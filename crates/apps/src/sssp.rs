use mlvc_core::{Combine, InitActive, VertexCtx, VertexProgram};
use mlvc_core::Update;
use mlvc_graph::VertexId;

use crate::{pack_f64, unpack_f64};

/// Single-source shortest paths on *weighted* graphs (Bellman-Ford style
/// relaxation; DESIGN.md §8 extension app).
///
/// The one evaluation-adjacent program that reads **edge weights**, so it
/// exercises MultiLogVC's `val`-vector loading path end-to-end
/// (`needs_weights`): the graph loader fetches weight pages alongside the
/// column indices for active vertices only.
///
/// State = best-known distance (f64 bits, `+inf` when unreached). A vertex
/// adopting a shorter distance relaxes all out-edges with
/// `distance + weight`. Distances merge with `min`, so SSSP is combinable
/// — but it runs on MultiLogVC only, because the baselines model edge
/// values as message slots rather than weights.
#[derive(Debug, Clone, Copy)]
pub struct Sssp {
    pub source: VertexId,
}

impl Sssp {
    pub fn new(source: VertexId) -> Self {
        Sssp { source }
    }

    /// Decode a state word into a distance (`None` = unreachable).
    pub fn distance(state: u64) -> Option<f64> {
        let d = unpack_f64(state);
        d.is_finite().then_some(d)
    }
}

fn combine_min(a: u64, b: u64) -> u64 {
    if unpack_f64(a) <= unpack_f64(b) {
        a
    } else {
        b
    }
}

impl VertexProgram for Sssp {
    fn name(&self) -> &'static str {
        "sssp"
    }

    fn checkpoint_name(&self) -> String {
        format!("sssp source {}", self.source)
    }

    fn init_state(&self, _v: VertexId) -> u64 {
        pack_f64(f64::INFINITY)
    }

    fn init_active(&self, _n: usize) -> InitActive {
        InitActive::Seeds(vec![Update::new(self.source, self.source, pack_f64(0.0))])
    }

    fn needs_weights(&self) -> bool {
        true
    }

    fn process(&self, ctx: &mut VertexCtx<'_>) {
        let best = ctx
            .msgs()
            .iter()
            .map(|m| unpack_f64(m.data))
            .fold(f64::INFINITY, f64::min);
        if best < unpack_f64(ctx.state()) {
            ctx.set_state(pack_f64(best));
            // Every engine refuses a weightless graph where the run starts
            // (`ConfigError::NeedsWeights`); without weights no edge relaxes.
            for (dest, w) in ctx.edges().iter().zip(ctx.weights().into_iter().flatten()) {
                ctx.send(dest, pack_f64(best + w as f64));
            }
        }
    }

    /// Messages are consumed by payload alone.
    fn reads_src(&self) -> bool {
        false
    }

    fn combine(&self) -> Option<Combine> {
        Some(combine_min as Combine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::dijkstra_reference;
    use mlvc_core::{Engine, EngineConfig, MultiLogEngine};
    use mlvc_graph::{Csr, EdgeListBuilder, StoredGraph, VertexIntervals};
    use mlvc_ssd::{Ssd, SsdConfig};
    use mlvc_gen::rng::SeededRng;
    use std::sync::Arc;

    fn run_sssp(csr: &Csr, src: u32, steps: usize) -> Vec<Option<f64>> {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let sg = StoredGraph::store_with(
            &ssd,
            csr,
            "s",
            VertexIntervals::uniform(csr.num_vertices(), 4),
        ).unwrap();
        let mut eng = MultiLogEngine::new(ssd, sg, EngineConfig::default());
        let r = eng.run(&Sssp::new(src), steps);
        assert!(r.converged);
        eng.states().iter().map(|&s| Sssp::distance(s)).collect()
    }

    #[test]
    fn weighted_path_distances() {
        // 0 -1.0- 1 -2.0- 2 -0.5- 3, plus a heavy shortcut 0 -9.0- 3.
        let mut b = EdgeListBuilder::new(4).symmetrize(true);
        b.push_weighted(0, 1, 1.0);
        b.push_weighted(1, 2, 2.0);
        b.push_weighted(2, 3, 0.5);
        b.push_weighted(0, 3, 9.0);
        let d = run_sssp(&b.build(), 0, 20);
        assert_eq!(d[0], Some(0.0));
        assert_eq!(d[1], Some(1.0));
        assert_eq!(d[2], Some(3.0));
        assert_eq!(d[3], Some(3.5), "path beats the heavy shortcut");
    }

    #[test]
    fn unreachable_stays_infinite() {
        let mut b = EdgeListBuilder::new(4).symmetrize(true);
        b.push_weighted(0, 1, 1.0);
        let d = run_sssp(&b.build(), 0, 10);
        assert_eq!(d[2], None);
        assert_eq!(d[3], None);
    }

    #[test]
    fn random_weighted_graph_matches_dijkstra() {
        let mut rng = SeededRng::seed_from_u64(5);
        let n = 120;
        let mut b = EdgeListBuilder::new(n).symmetrize(true);
        for _ in 0..400 {
            let s = rng.gen_range(0..n as u32);
            let d = rng.gen_range(0..n as u32);
            if s != d {
                b.push_weighted(s, d, rng.gen_range(0.1..10.0f32));
            }
        }
        let g = b.build();
        let got = run_sssp(&g, 0, 400);
        let expect = dijkstra_reference(&g, 0);
        for v in 0..n {
            match (got[v], expect[v]) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert!((a - b).abs() < 1e-6, "v={v}: {a} vs {b}")
                }
                other => panic!("v={v}: {other:?}"),
            }
        }
    }
}
