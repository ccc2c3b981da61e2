use mlvc_core::{InitActive, VertexCtx, VertexProgram};
use mlvc_graph::VertexId;
use mlvc_core::Update;

/// Random walks (RW) in the style of DrunkardMob \[13\], the paper's sixth
/// workload: "we sampled every 1000th node as a source node and performed
/// a random walk for 10 iterations with a maximum step size of 10" (§VII).
///
/// Each walk is a message whose payload carries its remaining step budget;
/// a vertex increments its visit counter per arriving walk and forwards
/// the walk to a uniformly random neighbor. Walks are individual —
/// merging them would lose walk identity — so RW is in the "merging
/// updates not possible" class.
///
/// The access pattern is the sparse, random-hopping one that shard-based
/// engines handle worst (paper: RW is 6× faster on MultiLogVC).
#[derive(Debug, Clone, Copy)]
pub struct RandomWalk {
    /// Every `source_stride`-th vertex starts walks (paper: 1000).
    pub source_stride: usize,
    /// Walks started per source.
    pub walks_per_source: usize,
    /// Maximum steps a walk takes (paper: 10).
    pub max_steps: u64,
}

impl Default for RandomWalk {
    fn default() -> Self {
        RandomWalk { source_stride: 1000, walks_per_source: 1, max_steps: 10 }
    }
}

impl RandomWalk {
    pub fn new(source_stride: usize, walks_per_source: usize, max_steps: u64) -> Self {
        assert!(source_stride >= 1 && walks_per_source >= 1);
        RandomWalk { source_stride, walks_per_source, max_steps }
    }

    /// Decode a state word into the visit count.
    pub fn visits(state: u64) -> u64 {
        state
    }
}

impl VertexProgram for RandomWalk {
    fn name(&self) -> &'static str {
        "randomwalk"
    }

    fn init_state(&self, _v: VertexId) -> u64 {
        0
    }

    fn init_active(&self, n: usize) -> InitActive {
        let mut seeds = Vec::new();
        for v in (0..n).step_by(self.source_stride) {
            for _ in 0..self.walks_per_source {
                seeds.push(Update::new(v as VertexId, v as VertexId, self.max_steps));
            }
        }
        InitActive::Seeds(seeds)
    }

    fn process(&self, ctx: &mut VertexCtx<'_>) {
        ctx.set_state(ctx.state() + ctx.msgs().len() as u64);
        let degree = ctx.degree() as u64;
        if degree == 0 {
            return; // walks die at sinks
        }
        // One draw per forwarded walk, in message order. The walk never
        // looks at the neighbour it drew: it sends along the edge, and the
        // engine reads that one entry of the list — with every other
        // walk's, side by side.
        for m in ctx.msgs().iter().filter(|m| m.data > 0) {
            let pick = (ctx.rand_u64() % degree) as usize;
            ctx.send_along(pick, m.data - 1);
        }
    }

    /// Messages are consumed by payload alone.
    fn reads_src(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlvc_core::{Engine, EngineConfig, MultiLogEngine};
    use mlvc_graph::{StoredGraph, VertexIntervals};
    use mlvc_ssd::{Ssd, SsdConfig};
    use std::sync::Arc;

    fn run_rw(csr: &mlvc_graph::Csr, rw: RandomWalk, steps: usize) -> (Vec<u64>, bool) {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let iv = VertexIntervals::uniform(csr.num_vertices(), 4);
        let sg = StoredGraph::store_with(&ssd, csr, "r", iv).unwrap();
        let mut eng = MultiLogEngine::new(ssd, sg, EngineConfig::default());
        let r = eng.run(&rw, steps);
        (eng.states().to_vec(), r.converged)
    }

    #[test]
    fn walk_visit_budget_is_exact() {
        // One source, one walk of 5 steps on a cycle: exactly 6 visits
        // happen (source + 5 hops), walks never die early (degree 2 > 0).
        let g = mlvc_gen::cycle(12);
        let (visits, converged) = run_rw(&g, RandomWalk::new(100, 1, 5), 20);
        assert!(converged);
        assert_eq!(visits.iter().sum::<u64>(), 6);
    }

    #[test]
    fn walks_terminate_after_max_steps() {
        let g = mlvc_gen::cycle(12);
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let sg = StoredGraph::store_with(&ssd, &g, "r", VertexIntervals::uniform(12, 2)).unwrap();
        let mut eng = MultiLogEngine::new(ssd, sg, EngineConfig::default());
        let r = eng.run(&RandomWalk::new(100, 3, 4), 50);
        assert!(r.converged);
        // A walk of k steps occupies k+1 supersteps of activity.
        assert!(r.supersteps.len() <= 6, "supersteps {}", r.supersteps.len());
    }

    #[test]
    fn multiple_sources_spread_walks() {
        let g = mlvc_gen::cycle(30);
        let (visits, _) = run_rw(&g, RandomWalk::new(10, 2, 10), 30);
        // 3 sources × 2 walks × 11 visits each.
        assert_eq!(visits.iter().sum::<u64>(), 66);
        // Sources were definitely visited.
        assert!(visits[0] >= 2 && visits[10] >= 2 && visits[20] >= 2);
    }

    #[test]
    fn walks_die_at_isolated_sources() {
        let mut b = mlvc_graph::EdgeListBuilder::new(6).symmetrize(true);
        b.push(1, 2);
        let g = b.build();
        // Vertex 0 is an isolated source: its walk visits it once and dies.
        let (visits, converged) = run_rw(&g, RandomWalk::new(6, 1, 10), 20);
        assert!(converged);
        assert_eq!(visits[0], 1);
        assert_eq!(visits.iter().sum::<u64>(), 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = mlvc_gen::rmat(mlvc_gen::RmatParams::social(8, 4), 9);
        let (a, _) = run_rw(&g, RandomWalk::new(50, 2, 10), 20);
        let (b, _) = run_rw(&g, RandomWalk::new(50, 2, 10), 20);
        assert_eq!(a, b);
    }
}
