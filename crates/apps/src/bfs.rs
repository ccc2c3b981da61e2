use mlvc_core::{Combine, InitActive, MutationDelta, Reconverge, VertexCtx, VertexProgram};
use mlvc_graph::VertexId;
use mlvc_core::Update;

/// Breadth-first search from a source vertex.
///
/// State = BFS level (`UNVISITED` until reached). A vertex adopts the
/// minimum level offered by incoming messages and floods `level + 1`
/// whenever that lowered its state. Updates merge with `min`, so BFS
/// belongs to the paper's "merging updates acceptable" class and also runs
/// on GraFBoost.
///
/// On a fresh synchronous run the min-propagation rule settles each vertex
/// exactly once (every message reaching a level-`d` vertex carries ≥ `d`),
/// so it matches the classic settle-once formulation step for step — while
/// also accepting late *smaller* offers, which is what lets an incremental
/// re-convergence seed shortcut edges into an already-computed level map.
///
/// The paper's Fig. 5 workload: BFS's frontier starts tiny and widens,
/// which is the best case for selective active-vertex loading.
#[derive(Debug, Clone, Copy)]
pub struct Bfs {
    pub source: VertexId,
}

/// Level value of an unreached vertex.
pub const UNVISITED: u64 = u64::MAX;

impl Bfs {
    pub fn new(source: VertexId) -> Self {
        Bfs { source }
    }

    /// Decode a state word into a level (`None` = unreached).
    pub fn level(state: u64) -> Option<u64> {
        (state != UNVISITED).then_some(state)
    }
}

impl VertexProgram for Bfs {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn checkpoint_name(&self) -> String {
        format!("bfs source {}", self.source)
    }

    fn init_state(&self, _v: VertexId) -> u64 {
        UNVISITED
    }

    fn init_active(&self, _n: usize) -> InitActive {
        InitActive::Seeds(vec![Update::new(self.source, self.source, 0)])
    }

    fn process(&self, ctx: &mut VertexCtx<'_>) {
        let best = ctx.msgs().iter().map(|m| m.data).fold(ctx.state(), u64::min);
        if best < ctx.state() {
            ctx.set_state(best);
            ctx.send_all(best + 1);
        }
    }

    /// Messages are consumed by payload alone.
    fn reads_src(&self) -> bool {
        false
    }

    fn combine(&self) -> Option<Combine> {
        Some(u64::min as Combine)
    }

    /// Added edges can only shorten distances, and the distance map is the
    /// unique fixpoint of min-propagation: offering `level(s) + 1` across
    /// each new edge from a reached source re-converges to exactly the
    /// cold-run levels. Removals can lengthen or cut paths — old levels may
    /// be too small — so they fall back to a full recompute.
    fn reconverge(&self, states: &[u64], delta: &MutationDelta) -> Reconverge {
        if !delta.removed.is_empty() {
            return Reconverge::Restart;
        }
        let seeds = delta
            .added
            .iter()
            .filter(|&&(s, _)| states[s as usize] != UNVISITED)
            .map(|&(s, d)| Update::new(d, s, states[s as usize] + 1))
            .collect();
        Reconverge::Seed(seeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::bfs_reference;
    use mlvc_core::{Engine, EngineConfig, MultiLogEngine};
    use mlvc_graph::{StoredGraph, VertexIntervals};
    use mlvc_ssd::{Ssd, SsdConfig};
    use std::sync::Arc;

    fn run_bfs(csr: &mlvc_graph::Csr, src: u32) -> Vec<u64> {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let iv = VertexIntervals::uniform(csr.num_vertices(), 4);
        let sg = StoredGraph::store_with(&ssd, csr, "b", iv).unwrap();
        let mut eng = MultiLogEngine::new(ssd, sg, EngineConfig::default());
        let r = eng.run(&Bfs::new(src), 200);
        assert!(r.converged);
        eng.states().to_vec()
    }

    #[test]
    fn bfs_on_grid_matches_reference() {
        let g = mlvc_gen::grid(6, 7);
        let got = run_bfs(&g, 0);
        let expect = bfs_reference(&g, 0);
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(Bfs::level(got[v as usize]), expect[v as usize], "vertex {v}");
        }
    }

    #[test]
    fn bfs_leaves_unreachable_unvisited() {
        // Two components: path 0-1-2 and isolated 3,4.
        let mut b = mlvc_graph::EdgeListBuilder::new(5).symmetrize(true);
        b.push(0, 1);
        b.push(1, 2);
        let got = run_bfs(&b.build(), 0);
        assert_eq!(Bfs::level(got[2]), Some(2));
        assert_eq!(Bfs::level(got[3]), None);
        assert_eq!(Bfs::level(got[4]), None);
    }

    #[test]
    fn bfs_on_rmat_matches_reference() {
        let g = mlvc_gen::rmat(mlvc_gen::RmatParams::social(9, 6), 13);
        let got = run_bfs(&g, 1);
        let expect = bfs_reference(&g, 1);
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(Bfs::level(got[v as usize]), expect[v as usize], "vertex {v}");
        }
    }
}
