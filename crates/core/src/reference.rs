use std::time::Instant;

use mlvc_graph::{Csr, VertexId, Weights};
use mlvc_log::Update;

use crate::{
    ConfigError, Engine, InitActive, RunReport, SendSink, SuperstepStats, VertexCtx,
    VertexProgram,
};

/// Purely in-memory reference engine: the vertex-centric semantics with no
/// storage machinery at all.
///
/// Exists for three reasons:
/// * **differential testing** — the out-of-core engines must produce
///   exactly what this ~hundred-line interpreter produces;
/// * **prototyping** — applications can be developed and debugged against
///   it before paying for out-of-core runs;
/// * **documentation** — it is the executable specification of the
///   programming model (message delivery, combine, keep-active, weights).
///
/// It reports activity statistics but no I/O and no simulated time (it
/// performs no storage accesses). Structural updates are not supported —
/// it holds the graph immutably.
pub struct ReferenceEngine {
    graph: Csr,
    seed: u64,
    states: Vec<u64>,
}

impl ReferenceEngine {
    pub fn new(graph: Csr, seed: u64) -> Self {
        let states = vec![0u64; graph.num_vertices()];
        ReferenceEngine { graph, seed, states }
    }

    pub fn graph(&self) -> &Csr {
        &self.graph
    }
}

impl Engine for ReferenceEngine {
    fn name(&self) -> &'static str {
        "Reference"
    }

    fn states(&self) -> &[u64] {
        &self.states
    }

    fn run(&mut self, prog: &dyn VertexProgram, max_supersteps: usize) -> RunReport {
        let n = self.graph.num_vertices();
        let combine = prog.combine();
        let needs_weights = prog.needs_weights();
        self.states = (0..n as VertexId).map(|v| prog.init_state(v)).collect();

        let mut report = RunReport {
            engine: self.name().to_string(),
            app: prog.name().to_string(),
            ..Default::default()
        };
        if needs_weights && !self.graph.has_weights() {
            report.interrupted = Some(ConfigError::NeedsWeights { app: prog.name() }.into());
            return report;
        }

        let mut all_active = false;
        let mut inbox: Vec<Update> = Vec::new();
        match prog.init_active(n) {
            InitActive::All => all_active = true,
            InitActive::Seeds(seeds) => inbox = seeds,
        }
        let mut self_active: Vec<VertexId> = Vec::new();

        for superstep in 1..=max_supersteps {
            if !all_active && inbox.is_empty() && self_active.is_empty() {
                report.converged = true;
                break;
            }
            let wall0 = Instant::now();
            let mut st = SuperstepStats { superstep, ..Default::default() };

            // Group messages by destination (stable: send order preserved).
            inbox.sort_by_key(|u| u.dest);
            st.messages_processed = inbox.len() as u64;
            let mut groups: Vec<(VertexId, std::ops::Range<usize>)> = Vec::new();
            {
                let mut k = 0;
                while k < inbox.len() {
                    let d = inbox[k].dest;
                    let start = k;
                    while k < inbox.len() && inbox[k].dest == d {
                        k += 1;
                    }
                    groups.push((d, start..k));
                }
            }
            // Active set: receivers ∪ kept ∪ (all on superstep 1).
            let mut work: Vec<(VertexId, std::ops::Range<usize>)> = if all_active {
                let mut gi = 0;
                (0..n as VertexId)
                    .map(|v| {
                        if gi < groups.len() && groups[gi].0 == v {
                            gi += 1;
                            (v, groups[gi - 1].1.clone())
                        } else {
                            (v, 0..0)
                        }
                    })
                    .collect()
            } else {
                let mut merged = groups.clone();
                for &v in &self_active {
                    if merged.binary_search_by_key(&v, |(d, _)| *d).is_err() {
                        merged.push((v, 0..0));
                    }
                }
                merged.sort_by_key(|(d, _)| *d);
                merged
            };
            work.dedup_by_key(|(d, _)| *d);

            let graph = &self.graph;
            let states = &self.states;
            let seed = self.seed;
            let inbox_ref = &inbox;
            let outputs: Vec<_> =
                mlvc_par::par_map(&work, |(v, r)| {
                    let msgs = &inbox_ref[r.clone()];
                    let folded = combine.and_then(|f| msgs.iter().map(|u| u.data).reduce(f));
                    let folded = folded.map(|data| Update::new(*v, VertexId::MAX, data));
                    let msgs = folded.as_ref().map_or(msgs, std::slice::from_ref);
                    let mut sink = SendSink::flat();
                    let mut ctx = VertexCtx::new(
                        *v,
                        superstep,
                        n,
                        states[*v as usize],
                        msgs,
                        graph.out_edges(*v),
                        graph.out_weights(*v).filter(|_| needs_weights).map(Weights::from),
                        seed,
                        &mut sink,
                    );
                    prog.process(&mut ctx);
                    (ctx.into_outputs(), sink)
                });

            let mut next_inbox = Vec::new();
            let mut next_self = Vec::new();
            for ((v, r), (out, sink)) in work.iter().zip(outputs) {
                self.states[*v as usize] = out.state;
                st.active_vertices += 1;
                st.messages_delivered += if combine.is_some() && !r.is_empty() {
                    1
                } else {
                    r.len() as u64
                };
                st.edges_scanned += self.graph.degree(*v) as u64;
                assert!(
                    out.structural.is_empty(),
                    "ReferenceEngine holds the graph immutably"
                );
                if out.keep_active {
                    next_self.push(*v);
                }
                next_inbox.extend_from_slice(&sink.buffers()[0]);
            }
            st.messages_sent = next_inbox.len() as u64;
            st.wall_ns = wall0.elapsed().as_nanos() as u64;
            report.supersteps.push(st);

            inbox = next_inbox;
            next_self.sort_unstable();
            next_self.dedup();
            self_active = next_self;
            all_active = false;
        }
        if !all_active && inbox.is_empty() && self_active.is_empty() {
            report.converged = true;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, MultiLogEngine};
    use mlvc_graph::{EdgeListBuilder, StoredGraph, VertexIntervals};
    use mlvc_ssd::{Ssd, SsdConfig};
    use std::sync::Arc;

    /// Max-flood used across the engine test suites.
    struct Flood;
    impl VertexProgram for Flood {
        fn name(&self) -> &'static str {
            "flood"
        }
        fn init_state(&self, v: VertexId) -> u64 {
            v as u64
        }
        fn init_active(&self, _n: usize) -> InitActive {
            InitActive::All
        }
        fn process(&self, ctx: &mut VertexCtx<'_>) {
            let best = ctx.msgs().iter().map(|m| m.data).fold(ctx.state(), u64::max);
            if best > ctx.state() || ctx.superstep() == 1 {
                ctx.set_state(best);
                ctx.send_all(best);
            }
        }
    }

    fn ring(n: usize) -> Csr {
        let mut b = EdgeListBuilder::new(n).symmetrize(true);
        for v in 0..n as u32 {
            b.push(v, (v + 1) % n as u32);
        }
        b.build()
    }

    #[test]
    fn reference_matches_multilog_engine() {
        let csr = ring(48);
        let mut reference = ReferenceEngine::new(csr.clone(), 0xC0FFEE);
        let r1 = reference.run(&Flood, 100);

        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let sg = StoredGraph::store_with(&ssd, &csr, "r", VertexIntervals::uniform(48, 4)).unwrap();
        let mut mlvc = MultiLogEngine::new(ssd, sg, EngineConfig::default());
        let r2 = mlvc.run(&Flood, 100);

        assert!(r1.converged && r2.converged);
        assert_eq!(reference.states(), mlvc.states());
        assert_eq!(r1.supersteps.len(), r2.supersteps.len());
        for (a, b) in r1.supersteps.iter().zip(&r2.supersteps) {
            assert_eq!(a.active_vertices, b.active_vertices);
            assert_eq!(a.messages_processed, b.messages_processed);
        }
    }

    #[test]
    fn reference_reports_no_io() {
        let mut eng = ReferenceEngine::new(ring(8), 1);
        let r = eng.run(&Flood, 50);
        assert_eq!(r.total_pages_read(), 0);
        assert_eq!(r.total_io_time_ns(), 0);
        assert!(r.converged);
    }
}
