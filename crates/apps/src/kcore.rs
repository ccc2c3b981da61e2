use std::collections::HashMap;

use mlvc_core::{InitActive, VertexCtx, VertexProgram};
use mlvc_graph::VertexId;
use mlvc_core::sync::{Mutex, RwLock};

/// Distributed k-core decomposition (coreness) in the style of Montresor
/// et al. — a DESIGN.md §9 extension app in the "merging updates not
/// possible" class (each neighbor's estimate matters individually).
///
/// Every vertex keeps a coreness estimate, initialized to its degree, and
/// remembers the latest estimate announced by each neighbor (the same
/// in-memory neighbor-state pattern as [`crate::Coloring`]; see DESIGN.md
/// §10). Each superstep it recomputes the **H-operator**: the largest `k`
/// such that at least `k` neighbors have estimate `≥ k`, capped by its own
/// degree. Estimates only decrease, so the process converges to the exact
/// coreness of every vertex.
pub struct KCore {
    known: RwLock<Vec<Mutex<HashMap<VertexId, u64>>>>,
}

impl Default for KCore {
    fn default() -> Self {
        KCore { known: RwLock::new(Vec::new()) }
    }
}

impl KCore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Decode a state word into the coreness estimate.
    pub fn coreness(state: u64) -> u32 {
        state as u32
    }
}

/// Largest `k` with at least `k` values `≥ k` (the H-index of the
/// neighbor estimates), capped by `cap`.
fn h_operator(values: impl Iterator<Item = u64>, cap: u64) -> u64 {
    let mut counts = vec![0u32; cap as usize + 1];
    let mut total = 0u32;
    for v in values {
        counts[v.min(cap) as usize] += 1;
        total += 1;
    }
    let mut at_least = total;
    let mut k = 0u64;
    for c in 1..=cap {
        // `at_least` = number of values ≥ c.
        at_least -= counts[c as usize - 1];
        if at_least as u64 >= c {
            k = c;
        }
    }
    k
}

impl VertexProgram for KCore {
    fn name(&self) -> &'static str {
        "kcore"
    }

    fn init_state(&self, _v: VertexId) -> u64 {
        0 // set to degree in superstep 1
    }

    fn init_active(&self, n: usize) -> InitActive {
        *self.known.write() = (0..n).map(|_| Mutex::new(HashMap::new())).collect();
        InitActive::All
    }

    fn process(&self, ctx: &mut VertexCtx<'_>) {
        let v = ctx.vertex();
        if ctx.superstep() == 1 {
            let d = ctx.degree() as u64;
            ctx.set_state(d);
            if d > 0 {
                ctx.send_all(d);
            }
            return;
        }
        let known_all = self.known.read();
        let mut known = known_all[v as usize].lock();
        for m in ctx.msgs() {
            known.insert(m.src, m.data);
        }
        let cap = ctx.degree() as u64;
        // Neighbors that never announced yet default to their best case —
        // but everyone announces in superstep 1, so the map is complete
        // from superstep 2 on.
        let new = h_operator(known.values().copied(), cap);
        drop(known);
        let old = ctx.state();
        if new < old {
            ctx.set_state(new);
            ctx.send_all(new);
        }
    }
}

/// Reference coreness by iterative peeling (exact, in-memory).
pub fn coreness_reference(g: &mlvc_graph::Csr) -> Vec<u32> {
    let n = g.num_vertices();
    let mut deg: Vec<usize> = (0..n as VertexId).map(|v| g.degree(v)).collect();
    let mut core = vec![0u32; n];
    let mut removed = vec![false; n];
    for k in 0.. {
        // Peel everything of degree ≤ k until stable.
        loop {
            let peel: Vec<usize> = (0..n)
                .filter(|&v| !removed[v] && deg[v] <= k)
                .collect();
            if peel.is_empty() {
                break;
            }
            for v in peel {
                removed[v] = true;
                core[v] = k as u32;
                for &u in g.out_edges(v as VertexId) {
                    if !removed[u as usize] {
                        deg[u as usize] -= 1;
                    }
                }
            }
        }
        if removed.iter().all(|&r| r) {
            break;
        }
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlvc_core::{Engine, EngineConfig, MultiLogEngine};
    use mlvc_graph::{StoredGraph, VertexIntervals};
    use mlvc_ssd::{Ssd, SsdConfig};
    use std::sync::Arc;

    fn run_kcore(csr: &mlvc_graph::Csr, steps: usize) -> Vec<u32> {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let sg = StoredGraph::store_with(
            &ssd,
            csr,
            "k",
            VertexIntervals::uniform(csr.num_vertices(), 4),
        ).unwrap();
        let mut eng = MultiLogEngine::new(ssd, sg, EngineConfig::default());
        let r = eng.run(&KCore::new(), steps);
        assert!(r.converged, "coreness must converge");
        eng.states().iter().map(|&s| KCore::coreness(s)).collect()
    }

    #[test]
    fn h_operator_cases() {
        assert_eq!(h_operator([3, 3, 3].into_iter(), 3), 3);
        assert_eq!(h_operator([1, 1, 1].into_iter(), 3), 1);
        assert_eq!(h_operator([5, 4, 3, 2, 1].into_iter(), 5), 3);
        assert_eq!(h_operator(std::iter::empty(), 4), 0);
        assert_eq!(h_operator([10, 10].into_iter(), 2), 2, "cap binds");
    }

    #[test]
    fn clique_has_coreness_n_minus_1() {
        let g = mlvc_gen::complete(6);
        let got = run_kcore(&g, 50);
        assert!(got.iter().all(|&c| c == 5), "{got:?}");
    }

    #[test]
    fn path_has_coreness_1_and_isolated_0() {
        let mut b = mlvc_graph::EdgeListBuilder::new(5).symmetrize(true);
        b.push(0, 1);
        b.push(1, 2);
        let got = run_kcore(&b.build(), 50);
        assert_eq!(got, vec![1, 1, 1, 0, 0]);
    }

    #[test]
    fn clique_with_tail() {
        // K4 on 0..4 plus tail 3-4-5: tail has coreness 1, clique 3.
        let mut b = mlvc_graph::EdgeListBuilder::new(6).symmetrize(true);
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                b.push(i, j);
            }
        }
        b.push(3, 4);
        b.push(4, 5);
        let got = run_kcore(&b.build(), 50);
        assert_eq!(got, vec![3, 3, 3, 3, 1, 1]);
    }

    #[test]
    fn rmat_matches_peeling_reference() {
        let g = mlvc_gen::rmat(mlvc_gen::RmatParams::social(9, 4), 12);
        let got = run_kcore(&g, 300);
        let expect = coreness_reference(&g);
        assert_eq!(got, expect);
    }

    #[test]
    fn reference_peeling_on_star() {
        let core = coreness_reference(&mlvc_gen::star(8));
        assert!(core.iter().all(|&c| c == 1));
    }
}
