use std::collections::HashMap;

use mlvc_core::{InitActive, VertexCtx, VertexProgram};
use mlvc_graph::VertexId;
use mlvc_core::sync::{Mutex, RwLock};

/// Speculative greedy graph coloring with conflict-driven recoloring (GC;
/// the paper cites the PowerGraph formulation \[9\]).
///
/// Every vertex speculatively picks a pseudo-random color from its feasible
/// window `[0, degree]` and announces it. Each vertex remembers the most
/// recent color announced by each neighbor (the paper stores these in the
/// edge values on storage — "active vertices access in-edge weights and
/// store the updates received via source vertices", §VIII; this
/// reproduction keeps the equivalent per-vertex map in host memory for
/// *both* engines, so the I/O comparison is unaffected — recorded in
/// DESIGN.md). On a conflict the *smaller* id yields and moves to a
/// pseudo-random color its window allows that no known neighbor holds —
/// the random draw (rather than a deterministic mex) keeps simultaneous
/// yielders from colliding again, so conflicts die off geometrically.
/// No messages → no conflicts → converged to a proper coloring, with
/// activity shrinking superstep over superstep (the paper's Fig. 2
/// workload).
///
/// Conflict detection consumes each `(source, color)` pair individually —
/// colors cannot be merged — placing GC in the paper's "merging updates
/// not possible" class.
pub struct Coloring {
    known: RwLock<Vec<Mutex<HashMap<VertexId, u64>>>>,
}

impl Default for Coloring {
    fn default() -> Self {
        Coloring { known: RwLock::new(Vec::new()) }
    }
}

impl Coloring {
    pub fn new() -> Self {
        Self::default()
    }

    /// Decode a state word into the color.
    pub fn color(state: u64) -> u32 {
        state as u32
    }
}

/// SplitMix64 finalizer — the per-(vertex, superstep) deterministic draw
/// behind speculative color choices.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pseudo-random color from the feasible window `[0, degree]` that no
/// known neighbor currently holds. The window always has a free slot
/// (a vertex has at most `degree` distinct neighbors), and staying inside
/// it bounds the palette by `max_degree + 1` — the greedy guarantee.
fn pick_color(v: VertexId, superstep: usize, degree: usize, used: &mut Vec<u64>) -> u64 {
    used.sort_unstable();
    used.dedup();
    let window = degree as u64 + 1;
    let in_window = used.iter().filter(|&&c| c < window).count() as u64;
    let free = window - in_window;
    if free == 0 {
        // Possible only when in-degree exceeds out-degree (non-symmetric
        // adjacency): fall back to the smallest globally free color.
        return mex(std::mem::take(used));
    }
    let mut r = mix((v as u64) << 32 | superstep as u64) % free;
    let mut candidate = 0u64;
    for &c in used.iter().filter(|&&c| c < window) {
        // `candidate..c` are free slots; is the r-th free one among them?
        let gap = c - candidate;
        if r < gap {
            return candidate + r;
        }
        r -= gap;
        candidate = c + 1;
    }
    candidate + r
}

/// Minimum color absent from `used`.
fn mex(mut used: Vec<u64>) -> u64 {
    used.sort_unstable();
    used.dedup();
    let mut candidate = 0u64;
    for &c in &used {
        match c.cmp(&candidate) {
            std::cmp::Ordering::Equal => candidate += 1,
            std::cmp::Ordering::Greater => break,
            std::cmp::Ordering::Less => {}
        }
    }
    candidate
}

impl VertexProgram for Coloring {
    fn name(&self) -> &'static str {
        "coloring"
    }

    fn init_state(&self, _v: VertexId) -> u64 {
        0
    }

    fn init_active(&self, n: usize) -> InitActive {
        // Fresh per-run neighbor-color memory.
        *self.known.write() = (0..n).map(|_| Mutex::new(HashMap::new())).collect();
        InitActive::All
    }

    fn process(&self, ctx: &mut VertexCtx<'_>) {
        let v = ctx.vertex();
        if ctx.superstep() == 1 {
            let c = pick_color(v, 1, ctx.degree(), &mut Vec::new());
            ctx.set_state(c);
            if ctx.degree() > 0 {
                ctx.send_all(c);
            }
            return;
        }
        let known_all = self.known.read();
        let mut known = known_all[v as usize].lock();
        for m in ctx.msgs() {
            known.insert(m.src, m.data);
        }
        let my = ctx.state();
        let conflict_higher = known.iter().any(|(&u, &c)| c == my && u > v);
        if conflict_higher {
            // Yield on a fair per-(vertex, superstep) draw; otherwise hold
            // the color and retry next superstep. The staggering keeps
            // simultaneous yielders from stampeding onto the same mex.
            if mix((v as u64) << 32 | ctx.superstep() as u64) & 1 == 0 {
                let used: Vec<u64> = known.values().copied().collect();
                drop(known);
                let new = mex(used);
                ctx.set_state(new);
                ctx.send_all(new);
            } else {
                drop(known);
                ctx.keep_active();
            }
        } else {
            // Keep the color; repair stale lower-priority offenders.
            let offenders: Vec<VertexId> = known
                .iter()
                .filter(|&(&u, &c)| c == my && u < v)
                .map(|(&u, _)| u)
                .collect();
            drop(known);
            for o in offenders {
                ctx.send(o, my);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::is_proper_coloring;
    use mlvc_core::{Engine, EngineConfig, MultiLogEngine};
    use mlvc_graph::{StoredGraph, VertexIntervals};
    use mlvc_ssd::{Ssd, SsdConfig};
    use std::sync::Arc;

    fn run_coloring(csr: &mlvc_graph::Csr, steps: usize) -> (Vec<u32>, bool) {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let iv = VertexIntervals::uniform(csr.num_vertices(), 4);
        let sg = StoredGraph::store_with(&ssd, csr, "gc", iv).unwrap();
        let mut eng = MultiLogEngine::new(ssd, sg, EngineConfig::default());
        let r = eng.run(&Coloring::new(), steps);
        (
            eng.states().iter().map(|&s| Coloring::color(s)).collect(),
            r.converged,
        )
    }

    #[test]
    fn mex_picks_smallest_free_color() {
        assert_eq!(mex(vec![0, 1, 2]), 3);
        assert_eq!(mex(vec![1, 2]), 0);
        assert_eq!(mex(vec![0, 2, 2, 5]), 1);
        assert_eq!(mex(vec![]), 0);
    }

    #[test]
    fn pick_color_avoids_used_and_stays_in_window() {
        for v in 0..64u32 {
            for step in 1..8usize {
                let mut used = vec![0, 2, 3];
                let c = pick_color(v, step, 4, &mut used);
                assert!(c == 1 || c == 4, "free slots of [0,4] minus {{0,2,3}}; got {c}");
            }
        }
        // Degree 0 has a single feasible color.
        assert_eq!(pick_color(9, 1, 0, &mut Vec::new()), 0);
        // A full low window forces the one remaining slot.
        let mut used = vec![0, 1, 2];
        assert_eq!(pick_color(3, 2, 3, &mut used), 3);
    }

    #[test]
    fn colors_complete_graph_properly_with_n_colors() {
        let g = mlvc_gen::complete(6);
        let (colors, converged) = run_coloring(&g, 100);
        assert!(converged);
        assert!(is_proper_coloring(&g, &colors));
        let mut distinct = colors.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 6, "K6 needs 6 colors");
    }

    #[test]
    fn colors_grid_with_few_colors() {
        let g = mlvc_gen::grid(6, 6);
        let (colors, converged) = run_coloring(&g, 200);
        assert!(converged);
        assert!(is_proper_coloring(&g, &colors));
        let max = colors.iter().max().unwrap();
        assert!(*max <= 4, "grid degree <= 4 bounds the window; got max color {max}");
    }

    #[test]
    fn colors_rmat_properly() {
        let g = mlvc_gen::rmat(mlvc_gen::RmatParams::social(9, 4), 8);
        let (colors, converged) = run_coloring(&g, 400);
        assert!(converged, "conflict-driven coloring must settle");
        assert!(is_proper_coloring(&g, &colors));
    }

    #[test]
    fn isolated_vertices_get_color_zero() {
        let mut b = mlvc_graph::EdgeListBuilder::new(3).symmetrize(true);
        b.push(0, 1);
        let (colors, _) = run_coloring(&b.build(), 20);
        assert_eq!(colors[2], 0);
        assert_ne!(colors[0], colors[1]);
    }

    #[test]
    fn activity_shrinks_over_supersteps() {
        // The Fig. 2 shape: GC activity collapses as colors settle.
        let g = mlvc_gen::rmat(mlvc_gen::RmatParams::social(9, 4), 2);
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let sg = StoredGraph::store_with(
            &ssd,
            &g,
            "gc",
            VertexIntervals::uniform(g.num_vertices(), 4),
        ).unwrap();
        let mut eng = MultiLogEngine::new(ssd, sg, EngineConfig::default());
        let r = eng.run(&Coloring::new(), 15);
        let first = r.supersteps.first().unwrap().active_vertices;
        let last = r.supersteps.last().unwrap().active_vertices;
        assert!(last < first / 2, "GC activity must shrink: {first} -> {last}");
    }
}
