use mlvc_core::{Combine, InitActive, MutationDelta, Reconverge, VertexCtx, VertexProgram};
use mlvc_graph::VertexId;

use crate::{pack_f64, unpack_f64};

/// Delta-push PageRank with threshold activation (paper §VII: "A vertex in
/// pagerank gets activated if it receives a delta update greater than a
/// certain threshold value (0.4)").
///
/// State = current rank estimate of the fixpoint
/// `r = (1 - d)·1 + d·Aᵀ r` (A column-normalized). Messages carry *delta
/// contributions*: in superstep 1 every vertex starts at `1 - d` and pushes
/// `(1 - d) / degree`; on receipt a vertex accumulates `Δr = d · Σ deltas`,
/// and forwards `Δr / degree` only when `|Δr|` exceeds the threshold. The
/// truncated residual is the approximation the paper's activation threshold
/// buys: activity shrinks superstep over superstep (Fig. 7a's dynamics).
///
/// Deltas sum, so PageRank is combinable and runs on GraFBoost.
#[derive(Debug, Clone, Copy)]
pub struct PageRank {
    pub damping: f64,
    pub threshold: f64,
}

impl Default for PageRank {
    fn default() -> Self {
        // The paper's activation threshold.
        PageRank { damping: 0.85, threshold: 0.4 }
    }
}

impl PageRank {
    pub fn new(damping: f64, threshold: f64) -> Self {
        assert!((0.0..1.0).contains(&damping));
        assert!(threshold >= 0.0);
        PageRank { damping, threshold }
    }

    /// Decode a state word into the vertex's rank.
    pub fn rank(state: u64) -> f64 {
        unpack_f64(state)
    }
}

fn combine_add(a: u64, b: u64) -> u64 {
    pack_f64(unpack_f64(a) + unpack_f64(b))
}

impl VertexProgram for PageRank {
    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn init_state(&self, _v: VertexId) -> u64 {
        pack_f64(0.0) // set properly in superstep 1
    }

    fn init_active(&self, _n: usize) -> InitActive {
        InitActive::All
    }

    fn process(&self, ctx: &mut VertexCtx<'_>) {
        if ctx.superstep() == 1 {
            let base = 1.0 - self.damping;
            ctx.set_state(pack_f64(base));
            let deg = ctx.degree();
            if deg > 0 {
                ctx.send_all(pack_f64(base / deg as f64));
            }
            return;
        }
        let incoming: f64 = ctx.msgs().iter().map(|m| unpack_f64(m.data)).sum();
        let delta = self.damping * incoming;
        let new = unpack_f64(ctx.state()) + delta;
        ctx.set_state(pack_f64(new));
        let deg = ctx.degree();
        if delta.abs() > self.threshold && deg > 0 {
            ctx.send_all(pack_f64(delta / deg as f64));
        }
    }

    /// Messages are consumed by payload alone.
    fn reads_src(&self) -> bool {
        false
    }

    fn combine(&self) -> Option<Combine> {
        Some(combine_add as Combine)
    }

    /// Always a full recompute. Threshold-truncated delta-push ranks are
    /// history-dependent — the bits depend on which residuals were dropped
    /// along the way — so no seeding scheme can match a cold run on the
    /// mutated graph bit for bit. (This is the trait default, restated here
    /// so the choice is explicit and pinned by the equivalence tests.)
    fn reconverge(&self, _states: &[u64], _delta: &MutationDelta) -> Reconverge {
        Reconverge::Restart
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::pagerank_reference;
    use mlvc_core::{Engine, EngineConfig, MultiLogEngine};
    use mlvc_graph::{StoredGraph, VertexIntervals};
    use mlvc_ssd::{Ssd, SsdConfig};
    use std::sync::Arc;

    fn run_pr(csr: &mlvc_graph::Csr, pr: PageRank, steps: usize) -> Vec<f64> {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let iv = VertexIntervals::uniform(csr.num_vertices(), 4);
        let sg = StoredGraph::store_with(&ssd, csr, "p", iv).unwrap();
        let mut eng = MultiLogEngine::new(ssd, sg, EngineConfig::default());
        eng.run(&pr, steps);
        eng.states().iter().map(|&s| PageRank::rank(s)).collect()
    }

    #[test]
    fn cycle_converges_to_uniform_rank_one() {
        let got = run_pr(&mlvc_gen::cycle(16), PageRank::new(0.85, 1e-9), 300);
        for (v, r) in got.iter().enumerate() {
            assert!((r - 1.0).abs() < 1e-6, "v={v} rank {r}");
        }
    }

    #[test]
    fn grid_matches_pull_reference_at_convergence() {
        let g = mlvc_gen::grid(4, 5);
        let got = run_pr(&g, PageRank::new(0.85, 1e-10), 500);
        let expect = pagerank_reference(&g, 0.85, 200);
        for v in 0..g.num_vertices() {
            assert!(
                (got[v] - expect[v]).abs() < 1e-6,
                "v={v} got {} expect {}",
                got[v],
                expect[v]
            );
        }
    }

    #[test]
    fn rank_mass_is_preserved_without_sinks() {
        let g = mlvc_gen::cycle(50);
        let got = run_pr(&g, PageRank::new(0.85, 1e-9), 300);
        let sum: f64 = got.iter().sum();
        assert!((sum - 50.0).abs() < 1e-5, "sum {sum}");
    }

    #[test]
    fn isolated_vertex_keeps_base_rank() {
        let mut b = mlvc_graph::EdgeListBuilder::new(4).symmetrize(true);
        b.push(0, 1);
        let got = run_pr(&b.build(), PageRank::new(0.85, 1e-9), 100);
        assert!((got[3] - 0.15).abs() < 1e-9);
    }

    #[test]
    fn threshold_shrinks_activity() {
        let g = mlvc_gen::rmat(mlvc_gen::RmatParams::social(9, 6), 3);
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let sg = StoredGraph::store_with(
            &ssd,
            &g,
            "p",
            VertexIntervals::uniform(g.num_vertices(), 4),
        ).unwrap();
        let mut eng = MultiLogEngine::new(ssd, sg, EngineConfig::default());
        let r = eng.run(&PageRank::new(0.85, 0.05), 15);
        assert!(r.supersteps.len() >= 3);
        let first = r.supersteps.first().unwrap().active_vertices;
        let last = r.supersteps.last().unwrap().active_vertices;
        assert!(last < first / 2, "activity must shrink: {first} -> {last}");
    }

    #[test]
    fn hub_gets_higher_rank_than_leaf() {
        let g = mlvc_gen::star(20);
        let got = run_pr(&g, PageRank::new(0.85, 1e-10), 300);
        assert!(got[0] > got[1] * 2.0, "hub {} leaf {}", got[0], got[1]);
    }
}
