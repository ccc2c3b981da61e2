use std::collections::HashMap;

use mlvc_core::{InitActive, VertexCtx, VertexProgram};
use mlvc_graph::VertexId;

/// Community detection by label propagation (CDLP, Raghavan et al. \[24\];
/// the paper's Algorithm 2 workload).
///
/// State = community label, initialized to the vertex id. Each superstep a
/// vertex adopts the most frequent label among the labels its neighbors
/// announced (ties break toward the smaller label, making the run
/// deterministic) and re-announces only when its label changed — exactly
/// the paper's snippet: compute `frequent_label`, compare with
/// `old_label`, `SendUpdate` on change, `deactivate`.
///
/// Every announcement must be counted *individually* — label frequencies
/// are not associative-commutative-reducible — so CDLP is in the paper's
/// "merging updates not possible" class: it cannot run on stock GraFBoost,
/// which is the generality argument for the multi-log.
///
/// One deliberate simplification (recorded in DESIGN.md): frequencies are
/// computed over the labels *received this superstep* rather than over a
/// per-edge label store kept in storage. The message-visibility and
/// activity dynamics — what the evaluation measures — are unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cdlp;

impl Cdlp {
    /// Decode a state word into the community label.
    pub fn label(state: u64) -> u32 {
        state as u32
    }
}

impl VertexProgram for Cdlp {
    fn name(&self) -> &'static str {
        "cdlp"
    }

    fn init_state(&self, v: VertexId) -> u64 {
        v as u64
    }

    fn init_active(&self, _n: usize) -> InitActive {
        InitActive::All
    }

    fn process(&self, ctx: &mut VertexCtx<'_>) {
        if ctx.superstep() == 1 {
            let label = ctx.state();
            ctx.send_all(label);
            return;
        }
        // frequent_label over individually preserved updates.
        let mut freq: HashMap<u64, u32> = HashMap::with_capacity(ctx.msgs().len());
        for m in ctx.msgs() {
            *freq.entry(m.data).or_insert(0) += 1;
        }
        let old = ctx.state();
        let new = freq
            .iter()
            .map(|(&label, &count)| (count, std::cmp::Reverse(label)))
            .max()
            .map(|(_, std::cmp::Reverse(label))| label)
            .unwrap_or(old);
        if new != old {
            ctx.set_state(new);
            ctx.send_all(new);
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

    fn run_cdlp(csr: &mlvc_graph::Csr, steps: usize) -> Vec<u32> {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let iv = VertexIntervals::uniform(csr.num_vertices(), 4);
        let sg = StoredGraph::store_with(&ssd, csr, "c", iv).unwrap();
        let mut eng = MultiLogEngine::new(ssd, sg, EngineConfig::default());
        eng.run(&Cdlp, steps);
        eng.states().iter().map(|&s| Cdlp::label(s)).collect()
    }

    #[test]
    fn two_cliques_with_a_bridge_find_two_communities() {
        // K5 on 0..5, K5 on 5..10, single bridge 4-5.
        let mut b = mlvc_graph::EdgeListBuilder::new(10).symmetrize(true);
        for block in [0u32, 5] {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    b.push(block + i, block + j);
                }
            }
        }
        b.push(4, 5);
        let labels = run_cdlp(&b.build(), 30);
        let a = labels[0];
        let c = labels[9];
        for &l in &labels[0..5] {
            assert_eq!(l, a, "first clique coherent");
        }
        for &l in &labels[5..10] {
            assert_eq!(l, c, "second clique coherent");
        }
        assert_ne!(a, c, "communities must differ");
    }

    #[test]
    fn sbm_recovers_planted_communities_mostly() {
        let p = mlvc_gen::SbmParams { n: 200, communities: 2, intra_degree: 16.0, inter_degree: 0.2 };
        let g = mlvc_gen::sbm(p, 12);
        let labels = run_cdlp(&g, 30);
        // Within each block, the dominant label should cover most vertices.
        for block in 0..2usize {
            let vs: Vec<usize> = (block * 100..(block + 1) * 100).collect();
            let mut freq = std::collections::HashMap::new();
            for &v in &vs {
                *freq.entry(labels[v]).or_insert(0usize) += 1;
            }
            let dominant = freq.values().copied().max().unwrap();
            assert!(dominant >= 80, "block {block}: dominant label covers {dominant}/100");
        }
    }

    #[test]
    fn isolated_vertices_keep_their_own_label() {
        let mut b = mlvc_graph::EdgeListBuilder::new(5).symmetrize(true);
        b.push(0, 1);
        let labels = run_cdlp(&b.build(), 10);
        assert_eq!(labels[3], 3);
        assert_eq!(labels[4], 4);
    }
}
