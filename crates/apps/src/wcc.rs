use mlvc_core::{
    Combine, InitActive, MutationDelta, Reconverge, Update, VertexCtx, VertexProgram,
};
use mlvc_graph::VertexId;

/// Weakly connected components by min-label propagation (DESIGN.md §8
/// extension app).
///
/// State = component label, initialized to the vertex id; every vertex
/// floods the smallest label it has seen. Labels merge with `min`, so WCC
/// is combinable and runs on all three engines. Converges to the minimum
/// vertex id of each component.
#[derive(Debug, Clone, Copy, Default)]
pub struct Wcc;

impl Wcc {
    /// Decode a state word into the component label.
    pub fn component(state: u64) -> u32 {
        state as u32
    }
}

impl VertexProgram for Wcc {
    fn name(&self) -> &'static str {
        "wcc"
    }

    fn init_state(&self, v: VertexId) -> u64 {
        v as u64
    }

    fn init_active(&self, _n: usize) -> InitActive {
        InitActive::All
    }

    fn process(&self, ctx: &mut VertexCtx<'_>) {
        let best = ctx.msgs().iter().map(|m| m.data).fold(ctx.state(), u64::min);
        if best < ctx.state() || ctx.superstep() == 1 {
            ctx.set_state(best);
            ctx.send_all(best);
        }
    }

    /// Messages are consumed by payload alone.
    fn reads_src(&self) -> bool {
        false
    }

    fn combine(&self) -> Option<Combine> {
        Some(u64::min as Combine)
    }

    /// Edge additions can only merge components, and min-label's fixpoint
    /// is unique: seeding each new edge's endpoint with the other side's
    /// converged label reaches exactly the cold-run answer. A removal can
    /// split a component — old labels may be too small — so removals fall
    /// back to a full recompute.
    fn reconverge(&self, states: &[u64], delta: &MutationDelta) -> Reconverge {
        if !delta.removed.is_empty() {
            return Reconverge::Restart;
        }
        let seeds = delta
            .added
            .iter()
            .map(|&(s, d)| Update::new(d, s, states[s as usize]))
            .collect();
        Reconverge::Seed(seeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlvc_core::{Engine, EngineConfig, MultiLogEngine};
    use mlvc_graph::{StoredGraph, VertexIntervals};
    use mlvc_ssd::{Ssd, SsdConfig};
    use std::sync::Arc;

    fn run_wcc(csr: &mlvc_graph::Csr, steps: usize) -> Vec<u32> {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let sg = StoredGraph::store_with(
            &ssd,
            csr,
            "w",
            VertexIntervals::uniform(csr.num_vertices(), 4),
        ).unwrap();
        let mut eng = MultiLogEngine::new(ssd, sg, EngineConfig::default());
        let r = eng.run(&Wcc, steps);
        assert!(r.converged);
        eng.states().iter().map(|&s| Wcc::component(s)).collect()
    }

    #[test]
    fn two_components_get_two_labels() {
        let mut b = mlvc_graph::EdgeListBuilder::new(8).symmetrize(true);
        for v in [0u32, 1, 2] {
            b.push(v, v + 1);
        }
        for v in [5u32, 6] {
            b.push(v, v + 1);
        }
        let comp = run_wcc(&b.build(), 30);
        assert_eq!(&comp[0..4], &[0, 0, 0, 0]);
        assert_eq!(comp[4], 4, "isolated vertex is its own component");
        assert_eq!(&comp[5..8], &[5, 5, 5]);
    }

    #[test]
    fn connected_graph_is_one_component() {
        let comp = run_wcc(&mlvc_gen::cycle(40), 60);
        assert!(comp.iter().all(|&c| c == 0));
    }

    #[test]
    fn rmat_components_are_label_consistent() {
        let g = mlvc_gen::rmat(mlvc_gen::RmatParams::social(9, 4), 4);
        let comp = run_wcc(&g, 300);
        // Every edge joins vertices of the same component.
        for (s, d) in g.edges() {
            assert_eq!(comp[s as usize], comp[d as usize]);
        }
        // The label of each component is its minimum member.
        for (v, &label) in comp.iter().enumerate() {
            assert!(label as usize <= v);
            assert_eq!(comp[label as usize], label);
        }
    }
}
