use std::sync::Arc;
use std::time::Instant;

use mlvc_core::{
    ConfigError, Engine, EngineConfig, InitActive, RunReport, SendSink, SuperstepStats, Update,
    VertexCtx, VertexProgram,
};
use mlvc_graph::{StoredGraph, VertexId};
use mlvc_ssd::{DeviceError, Ssd};

use crate::extsort::{external_sort, write_log_pages, SortedGroups};

/// The GraFBoost baseline engine: one global update log, external
/// sort(-reduce) per superstep, whole-interval adjacency scans.
///
/// With a combinable program this is GraFBoost proper (sort-reduce); with
/// a non-combinable one it is the paper's **adapted GraFBoost** (§VIII):
/// "as we cannot merge the updates generated to a target vertex into a
/// single value, we need to keep and sort all the updates".
pub struct GrafBoostEngine {
    ssd: Arc<Ssd>,
    graph: Arc<StoredGraph>,
    cfg: EngineConfig,
    states: Vec<u64>,
}

impl GrafBoostEngine {
    pub fn new(ssd: Arc<Ssd>, graph: StoredGraph, cfg: EngineConfig) -> Self {
        let states = vec![0u64; graph.num_vertices()];
        GrafBoostEngine { ssd, graph: Arc::new(graph), cfg: cfg.validated(), states }
    }

    pub fn with_shared_graph(ssd: Arc<Ssd>, graph: Arc<StoredGraph>, cfg: EngineConfig) -> Self {
        let states = vec![0u64; graph.num_vertices()];
        GrafBoostEngine { ssd, graph, cfg: cfg.validated(), states }
    }
}

impl GrafBoostEngine {
    /// The superstep driver; a device fault aborts the run and surfaces as
    /// `RunReport::interrupted`.
    fn drive(
        &mut self,
        prog: &dyn VertexProgram,
        max_supersteps: usize,
        report: &mut RunReport,
    ) -> Result<(), DeviceError> {
        // The baseline scans `rowptr` and `colidx` only: it hands out no weights.
        if prog.needs_weights() {
            return Err(ConfigError::NeedsWeights { app: prog.name() }.into());
        }
        let intervals = self.graph.intervals().clone();
        let n = intervals.num_vertices();
        let combine = prog.combine();
        // GraFBoost logs key-value pairs; the source rides along only for
        // programs that read it, exactly as in the multi-log.
        let has_src = prog.reads_src();
        self.states = (0..n as VertexId).map(|v| prog.init_state(v)).collect();

        let log = self.ssd.open_or_create("gfb.log")?;
        self.ssd.truncate(log)?;

        let mut all_active = false;
        match prog.init_active(n) {
            InitActive::All => all_active = true,
            InitActive::Seeds(seeds) => write_log_pages(&self.ssd, log, &seeds, has_src)?,
        }
        let mut self_active: Vec<VertexId> = Vec::new();

        for superstep in 1..=max_supersteps {
            if !all_active && self.ssd.num_pages(log)? == 0 && self_active.is_empty() {
                report.converged = true;
                break;
            }
            let wall0 = Instant::now();
            let io0 = self.ssd.stats().snapshot();
            let mut st = SuperstepStats { superstep, ..Default::default() };
            let mut next_self: Vec<VertexId> = Vec::new();
            let mut outbox: Vec<Update> = Vec::new();
            let flush_at = (self.cfg.multilog_budget() / mlvc_log::UPDATE_BYTES).max(1024);
            let mut sends_total = 0u64;

            // --- The single-log bottleneck: sort the whole log. ---
            let (sorted, sort_stats) =
                external_sort(&self.ssd, log, self.cfg.sort_budget(), combine, has_src, "gfb")?;
            st.messages_processed = sort_stats.updates_in;
            let buf_pages = ((self.cfg.sort_budget() / self.ssd.page_size()) / 4).max(1) as u64;
            let mut groups = SortedGroups::new(&self.ssd, sorted, buf_pages)?;
            let mut peeked: Option<(VertexId, Vec<Update>)> = groups.next_group()?;

            for i in intervals.iter_ids() {
                let iv = intervals.range(i);
                // Gather this interval's message groups from the stream.
                let mut msg_groups: Vec<(VertexId, Vec<Update>)> = Vec::new();
                while let Some((d, _)) = peeked.as_ref() {
                    if *d >= iv.end {
                        break;
                    }
                    if let Some(g) = peeked.take() {
                        msg_groups.push(g);
                    }
                    peeked = groups.next_group()?;
                }
                // Active set: receivers ∪ kept-active ∪ (all at superstep 1).
                let ss = self_active.partition_point(|&v| v < iv.start);
                let se = self_active.partition_point(|&v| v < iv.end);
                let kept = &self_active[ss..se];
                if msg_groups.is_empty() && kept.is_empty() && !all_active {
                    continue;
                }

                // --- No selective loading: scan the whole interval. ---
                let (rowptr, colidx, _w) = self.graph.read_interval(i)?;
                let adj = |v: VertexId| -> &[VertexId] {
                    let k = (v - iv.start) as usize;
                    &colidx[rowptr[k] as usize..rowptr[k + 1] as usize]
                };

                // Merge receivers with kept-active (both sorted).
                let mut work: Vec<(VertexId, &[Update])> = Vec::new();
                if all_active {
                    let mut gi = 0usize;
                    for v in iv.clone() {
                        if gi < msg_groups.len() && msg_groups[gi].0 == v {
                            work.push((v, &msg_groups[gi].1));
                            gi += 1;
                        } else {
                            work.push((v, &[]));
                        }
                    }
                } else {
                    let (mut gi, mut ki) = (0usize, 0usize);
                    while gi < msg_groups.len() || ki < kept.len() {
                        if ki >= kept.len()
                            || (gi < msg_groups.len() && msg_groups[gi].0 <= kept[ki])
                        {
                            if ki < kept.len() && msg_groups[gi].0 == kept[ki] {
                                ki += 1;
                            }
                            work.push((msg_groups[gi].0, &msg_groups[gi].1));
                            gi += 1;
                        } else {
                            work.push((kept[ki], &[]));
                            ki += 1;
                        }
                    }
                }

                let states = &self.states;
                let seed = self.cfg.seed;
                let outputs: Vec<_> =
                    mlvc_par::par_map(&work, |(v, msgs)| {
                        let mut sink = SendSink::flat();
                        let mut ctx = VertexCtx::new(
                            *v,
                            superstep,
                            n,
                            states[*v as usize],
                            msgs,
                            adj(*v),
                            None,
                            seed,
                            &mut sink,
                        );
                        prog.process(&mut ctx);
                        (ctx.into_outputs(), sink)
                    });

                for ((v, msgs), (out, sink)) in work.iter().zip(outputs) {
                    self.states[*v as usize] = out.state;
                    st.active_vertices += 1;
                    st.messages_delivered += msgs.len() as u64;
                    st.edges_scanned += adj(*v).len() as u64;
                    assert!(
                        out.structural.is_empty(),
                        "GraFBoost baseline does not support structural updates"
                    );
                    if out.keep_active {
                        next_self.push(*v);
                    }
                    let sends = &sink.buffers()[0];
                    sends_total += sends.len() as u64;
                    outbox.extend_from_slice(sends);
                    if outbox.len() >= flush_at {
                        write_log_pages(&self.ssd, log, &outbox, has_src)?;
                        outbox.clear();
                    }
                }
            }
            write_log_pages(&self.ssd, log, &outbox, has_src)?;

            next_self.sort_unstable();
            next_self.dedup();
            self_active = next_self;
            all_active = false;
            st.messages_sent = sends_total;
            st.io = self.ssd.stats().snapshot().since(&io0);
            let cost = &self.cfg.cost;
            st.compute_ns =
                cost.compute_ns(st.messages_processed, st.messages_delivered, st.edges_scanned);
            st.wall_ns = wall0.elapsed().as_nanos() as u64;
            report.supersteps.push(st);
        }
        if !all_active && self.ssd.num_pages(log)? == 0 && self_active.is_empty() {
            report.converged = true;
        }
        Ok(())
    }
}

impl Engine for GrafBoostEngine {
    fn name(&self) -> &'static str {
        "GraFBoost"
    }

    fn states(&self) -> &[u64] {
        &self.states
    }

    fn run(&mut self, prog: &dyn VertexProgram, max_supersteps: usize) -> RunReport {
        let mut report = RunReport {
            engine: self.name().to_string(),
            app: prog.name().to_string(),
            ..Default::default()
        };
        if let Err(e) = self.drive(prog, max_supersteps, &mut report) {
            report.interrupted = Some(e);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlvc_graph::VertexIntervals;
    use mlvc_ssd::SsdConfig;

    fn engines_for(
        csr: &mlvc_graph::Csr,
        k: usize,
    ) -> (GrafBoostEngine, mlvc_core::MultiLogEngine) {
        let iv = VertexIntervals::uniform(csr.num_vertices(), k);
        let ssd1 = Arc::new(Ssd::new(SsdConfig::test_small()));
        let sg1 = StoredGraph::store_with(&ssd1, csr, "g", iv.clone()).unwrap();
        let gfb = GrafBoostEngine::new(ssd1, sg1, EngineConfig::default());
        let ssd2 = Arc::new(Ssd::new(SsdConfig::test_small()));
        let sg2 = StoredGraph::store_with(&ssd2, csr, "m", iv).unwrap();
        let mlvc = mlvc_core::MultiLogEngine::new(ssd2, sg2, EngineConfig::default());
        (gfb, mlvc)
    }

    #[test]
    fn bfs_agrees_with_multilogvc() {
        let g = mlvc_gen::rmat(mlvc_gen::RmatParams::social(9, 6), 21);
        let (mut gfb, mut mlvc) = engines_for(&g, 4);
        let app = mlvc_apps::Bfs::new(3);
        let r1 = gfb.run(&app, 100);
        let r2 = mlvc.run(&app, 100);
        assert!(r1.converged && r2.converged);
        assert_eq!(gfb.states(), mlvc.states());
    }

    #[test]
    fn pagerank_agrees_within_float_tolerance() {
        let g = mlvc_gen::grid(5, 6);
        let (mut gfb, mut mlvc) = engines_for(&g, 3);
        let app = mlvc_apps::PageRank::new(0.85, 1e-10);
        gfb.run(&app, 300);
        mlvc.run(&app, 300);
        for v in 0..g.num_vertices() {
            let a = mlvc_apps::PageRank::rank(gfb.states()[v]);
            let b = mlvc_apps::PageRank::rank(mlvc.states()[v]);
            assert!((a - b).abs() < 1e-9, "v={v}: {a} vs {b}");
        }
    }

    #[test]
    fn adapted_grafboost_runs_coloring() {
        // Non-combinable program: the "adapted GraFBoost" configuration.
        let g = mlvc_gen::rmat(mlvc_gen::RmatParams::social(8, 4), 30);
        let (mut gfb, mut mlvc) = engines_for(&g, 4);
        let r1 = gfb.run(&mlvc_apps::Coloring::new(), 300);
        let r2 = mlvc.run(&mlvc_apps::Coloring::new(), 300);
        assert!(r1.converged && r2.converged);
        assert_eq!(gfb.states(), mlvc.states());
        let colors: Vec<u32> = gfb.states().iter().map(|&s| s as u32).collect();
        assert!(mlvc_apps::is_proper_coloring(&g, &colors));
    }

    #[test]
    fn mis_agrees_with_multilogvc() {
        let g = mlvc_gen::rmat(mlvc_gen::RmatParams::social(8, 4), 11);
        let (mut gfb, mut mlvc) = engines_for(&g, 4);
        let r1 = gfb.run(&mlvc_apps::Mis, 200);
        let r2 = mlvc.run(&mlvc_apps::Mis, 200);
        assert!(r1.converged && r2.converged);
        assert_eq!(gfb.states(), mlvc.states());
    }

    #[test]
    fn small_memory_forces_external_sort_and_costs_more() {
        // PageRank superstep 1 on a denser graph: the full-log sort pays
        // when the budget shrinks (the Fig. 8 effect).
        let g = mlvc_gen::rmat(mlvc_gen::RmatParams::social(10, 8), 3);
        let iv = VertexIntervals::uniform(g.num_vertices(), 8);

        let run_with = |mem: usize| {
            let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
            let sg = StoredGraph::store_with(&ssd, &g, "g", iv.clone()).unwrap();
            let mut eng =
                GrafBoostEngine::new(ssd, sg, EngineConfig::default().with_memory(mem));
            let r = eng.run(&mlvc_apps::PageRank::new(0.85, 1e-3), 2);
            r.total_io_time_ns()
        };
        let big = run_with(16 << 20);
        let small = run_with(64 << 10);
        assert!(small > big, "external sort must cost more: {small} vs {big}");
    }
}
