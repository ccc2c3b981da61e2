use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use mlvc_core::{
    actives_for_interval, compute_ns, Combine, ConfigError, Engine, EngineConfig, InitActive,
    RunReport, SendSink, SuperstepStats, Update, VertexCtx, VertexProgram,
};
use mlvc_graph::{Csr, IntervalId, VertexIntervals, VertexId};
use mlvc_log::BitSet;
use mlvc_ssd::{DeviceError, Ssd};

use crate::shards::{records_per_page, ShardRecord, ShardSet};

/// The GraphChi baseline engine: parallel sliding windows over shards,
/// synchronous (BSP) message delivery via edge values.
///
/// Two corner cases of on-edge delivery are handled with small in-memory
/// stashes so that no update is ever lost (results must match MultiLogVC
/// exactly for the comparison to be meaningful):
///
/// * an edge still carrying last superstep's undelivered value is about to
///   be overwritten by this superstep's message and the destination's
///   interval has not been processed yet → the old value moves to the
///   destination interval's *pending delivery* list for this superstep;
/// * two messages traverse the same edge in one superstep (random walks do
///   this) → with a `combine` they merge; otherwise the older value moves
///   to the *next* superstep's pending list.
///
/// An interval's inbox is its pending list, then the values fresh on its
/// in-edges, sorted stably by `(dest, src)`: a vertex receives its messages
/// in send order, as on MultiLogVC. A structural update, or a message to a
/// vertex that is not an out-neighbour, ends the run with
/// [`ConfigError::Unsupported`] (none of the paper's evaluation
/// applications does either).
pub struct GraphChiEngine {
    ssd: Arc<Ssd>,
    shards: ShardSet,
    cfg: EngineConfig,
    states: Vec<u64>,
}

/// What processing interval `i` holds of shard `j`: all of shard `i` (its
/// in-edges), or the page span of block `(j, i)` of every other shard (the
/// interval's out-edges there, one sliding window), with a dirty bit per
/// page for the write-back.
struct Window {
    shard: IntervalId,
    first_page: u64,
    records: Vec<ShardRecord>,
    /// The records whose sources lie in interval `i`, sorted by
    /// `(src, dst)`.
    block: Range<usize>,
    dirty: Vec<bool>,
}

impl Window {
    fn load(shards: &ShardSet, j: IntervalId, i: IntervalId) -> Result<Window, DeviceError> {
        let (lo, hi) = shards.window(j, i);
        let (records, first_page) = shards.load_range(j, lo, hi)?;
        let per_page = records_per_page(shards.ssd().page_size());
        let base = first_page as usize * per_page;
        let (b_lo, b_hi) = shards.block(j, i);
        let block = if b_lo < b_hi { b_lo - base..b_hi - base } else { 0..0 };
        let dirty = vec![false; records.len().div_ceil(per_page)];
        Ok(Window { shard: j, first_page, records, block, dirty })
    }

    /// The record of edge `v → d`, its page marked dirty; `None` when the
    /// window holds no such edge.
    fn edge_mut(&mut self, v: VertexId, d: VertexId, per_page: usize) -> Option<&mut ShardRecord> {
        let block = &self.records[self.block.clone()];
        let k = block.partition_point(|r| (r.src, r.dst) < (v, d));
        if block.get(k).is_none_or(|r| (r.src, r.dst) != (v, d)) {
            return None;
        }
        let k = self.block.start + k;
        self.dirty[k / per_page] = true;
        Some(&mut self.records[k])
    }
}

/// The shard order of interval `i`'s loads and write-backs: its own shard,
/// then every other shard's window, ascending.
fn call_order(i: IntervalId, ni: usize) -> impl Iterator<Item = IntervalId> {
    std::iter::once(i).chain((0..ni as IntervalId).filter(move |&j| j != i))
}

/// What one superstep carries from interval to interval.
struct Step {
    superstep: usize,
    st: SuperstepStats,
    /// Deliveries for this superstep, per interval: the previous
    /// superstep's stash, plus undelivered values rerouted on the way.
    pending: Vec<Vec<Update>>,
    /// The older of two messages sent over one edge, per interval.
    next_pending: Vec<Vec<Update>>,
    next_active: BitSet,
}

impl GraphChiEngine {
    /// Shard `graph` under `intervals` and build the engine.
    pub fn new(
        ssd: Arc<Ssd>,
        graph: &Csr,
        intervals: VertexIntervals,
        cfg: EngineConfig,
    ) -> Result<Self, DeviceError> {
        let shards = ShardSet::build(&ssd, graph, intervals, "gchi")?;
        let states = vec![0u64; graph.num_vertices()];
        Ok(GraphChiEngine { ssd, shards, cfg: cfg.validated(), states })
    }

    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The superstep driver; a device fault, or a program output the model
    /// cannot carry, aborts the run and surfaces as `RunReport::interrupted`.
    fn drive(
        &mut self,
        prog: &dyn VertexProgram,
        max_supersteps: usize,
        report: &mut RunReport,
    ) -> Result<(), DeviceError> {
        // The shards model edge values as message slots: they store no weights.
        if prog.needs_weights() {
            return Err(ConfigError::NeedsWeights { app: prog.name() }.into());
        }
        let intervals = self.shards.intervals().clone();
        let n = intervals.num_vertices();
        let ni = intervals.num_intervals();
        self.states = (0..n as VertexId).map(|v| prog.init_state(v)).collect();

        // Kept-active vertices and the receivers of messages in flight.
        let mut active = BitSet::new(n);
        let mut all_active = false;
        let mut pending: Vec<Vec<Update>> = vec![Vec::new(); ni];
        match prog.init_active(n) {
            InitActive::All => all_active = true,
            InitActive::Seeds(seeds) => {
                for u in seeds {
                    active.set(u.dest as usize);
                    pending[intervals.interval_of(u.dest) as usize].push(u);
                }
            }
        }

        for superstep in 1..=max_supersteps {
            if !all_active && active.count() == 0 {
                break;
            }
            let wall0 = Instant::now();
            let io0 = self.ssd.stats().snapshot();
            let mut step = Step {
                superstep,
                st: SuperstepStats { superstep, ..Default::default() },
                pending,
                next_pending: vec![Vec::new(); ni],
                next_active: BitSet::new(n),
            };
            for i in intervals.iter_ids() {
                let kept: Vec<VertexId> =
                    intervals.range(i).filter(|&v| all_active || active.get(v as usize)).collect();
                if kept.is_empty() && step.pending[i as usize].is_empty() {
                    continue; // the only case GraphChi skips a shard (§II-A)
                }
                self.interval(prog, i, &kept, &mut step)?;
            }
            // Reroutes only target later intervals: every delivery of this
            // superstep has been made. Schedule the next one's.
            pending = step.next_pending;
            for u in pending.iter().flatten() {
                step.next_active.set(u.dest as usize);
            }
            active = step.next_active;
            all_active = false;
            let mut st = step.st;
            st.io = self.ssd.stats().snapshot().since(&io0);
            st.compute_ns =
                compute_ns(st.messages_processed, st.messages_delivered, st.edges_scanned);
            st.wall_ns = wall0.elapsed().as_nanos() as u64;
            report.supersteps.push(st);
        }
        report.converged = !all_active && active.count() == 0;
        Ok(())
    }

    /// Process interval `i` (parallel sliding windows): load its windows,
    /// deliver its inbox to `kept` and its receivers, put their sends on
    /// the edges, and write the dirtied pages back.
    fn interval(
        &mut self,
        prog: &dyn VertexProgram,
        i: IntervalId,
        kept: &[VertexId],
        step: &mut Step,
    ) -> Result<(), DeviceError> {
        let intervals = self.shards.intervals();
        let ni = intervals.num_intervals();
        let mut windows = Vec::with_capacity(ni);
        for j in call_order(i, ni) {
            windows.push(Window::load(&self.shards, j, i)?);
        }
        windows.sort_by_key(|w| w.shard);

        // The stash first, then the fresh edge values: send order.
        let mut inbox = std::mem::take(&mut step.pending[i as usize]);
        let fresh = |r: &&ShardRecord| r.tag != 0 && r.tag as usize == step.superstep - 1;
        let own = &windows[i as usize].records;
        inbox.extend(own.iter().filter(fresh).map(|r| Update::new(r.dst, r.src, r.data)));
        inbox.sort_by_key(|u| (u.dest, u.src));
        let work = actives_for_interval(&inbox, kept, intervals.range(i), false);
        // Out-edges in shard order: merge-join each sorted block with the
        // ascending work list.
        let mut edges: Vec<Vec<VertexId>> = vec![Vec::new(); work.len()];
        for w in &windows {
            let mut k = 0usize;
            for r in &w.records[w.block.clone()] {
                while k < work.len() && work[k].0 < r.src {
                    k += 1;
                }
                if k == work.len() {
                    break;
                }
                if work[k].0 == r.src {
                    edges[k].push(r.dst);
                }
            }
        }

        let (states, seed, superstep) = (&self.states, self.cfg.seed, step.superstep);
        let n = intervals.num_vertices();
        let combine = prog.combine();
        let outputs: Vec<_> = mlvc_par::par_map2(&work, &edges, |(v, r), edges| {
            let msgs = &inbox[r.clone()];
            let folded = combine.and_then(|f| msgs.iter().map(|u| u.data).reduce(f));
            let folded = folded.map(|data| Update::new(*v, VertexId::MAX, data));
            let msgs = folded.as_ref().map_or(msgs, std::slice::from_ref);
            let mut sink = SendSink::flat();
            let state = states[*v as usize];
            let mut ctx =
                VertexCtx::new(*v, superstep, n, state, msgs, edges, None, seed, &mut sink);
            prog.process(&mut ctx);
            (ctx.into_outputs(), sink, msgs.len())
        });

        for (((v, r), edges), (out, sink, delivered)) in work.iter().zip(&edges).zip(outputs) {
            if !out.structural.is_empty() {
                let what = "structural updates";
                return Err(ConfigError::Unsupported { engine: "GraphChi", what }.into());
            }
            self.states[*v as usize] = out.state;
            let st = &mut step.st;
            st.active_vertices += 1;
            st.messages_processed += r.len() as u64;
            st.messages_delivered += delivered as u64;
            st.edges_scanned += edges.len() as u64;
            if out.keep_active {
                step.next_active.set(*v as usize);
            }
            for u in &sink.buffers()[0] {
                self.put_on_edge(*v, u, i, &mut windows, step, combine)?;
            }
        }

        for j in call_order(i, ni) {
            let w = &windows[j as usize];
            self.shards.write_back_dirty(j, w.first_page, &w.records, &w.dirty)?;
        }
        Ok(())
    }

    /// Write `u`, sent by `v` while interval `i` is processed, onto its edge
    /// record; stash whatever value it would overwrite undelivered.
    fn put_on_edge(
        &self,
        v: VertexId,
        u: &Update,
        i: IntervalId,
        windows: &mut [Window],
        step: &mut Step,
        combine: Option<Combine>,
    ) -> Result<(), DeviceError> {
        let intervals = self.shards.intervals();
        let per_page = records_per_page(self.ssd.page_size());
        let what = "a send along a non-edge";
        let non_edge = ConfigError::Unsupported { engine: "GraphChi", what };
        if u.dest as usize >= intervals.num_vertices() {
            return Err(non_edge.into());
        }
        let ji = intervals.interval_of(u.dest);
        let rec = windows[ji as usize].edge_mut(v, u.dest, per_page).ok_or(non_edge)?;
        step.st.messages_sent += 1;
        step.next_active.set(u.dest as usize);
        let superstep = step.superstep;
        let old = Update::new(rec.dst, rec.src, rec.data);
        if rec.tag != 0 && rec.tag as usize == superstep - 1 {
            // Undelivered previous-superstep value: if the destination
            // interval is still to be processed this superstep, reroute it.
            if ji > i {
                step.pending[ji as usize].push(old);
            }
        } else if rec.tag as usize == superstep {
            // Second message on this edge this superstep.
            if let Some(f) = combine {
                rec.data = f(rec.data, u.data);
                return Ok(());
            }
            step.next_pending[ji as usize].push(old);
        }
        rec.data = u.data;
        rec.tag = superstep as u32;
        Ok(())
    }
}

impl Engine for GraphChiEngine {
    fn name(&self) -> &'static str {
        "GraphChi"
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
    use mlvc_ssd::SsdConfig;

    fn engines_for(
        csr: &Csr,
        k: usize,
    ) -> (GraphChiEngine, mlvc_core::MultiLogEngine) {
        let iv = VertexIntervals::uniform(csr.num_vertices(), k);
        let ssd1 = Arc::new(Ssd::new(SsdConfig::test_small()));
        let gchi = GraphChiEngine::new(ssd1, csr, iv.clone(), EngineConfig::default()).unwrap();
        let ssd2 = Arc::new(Ssd::new(SsdConfig::test_small()));
        let sg = mlvc_graph::StoredGraph::store_with(&ssd2, csr, "m", iv).unwrap();
        let mlvc = mlvc_core::MultiLogEngine::new(ssd2, sg, EngineConfig::default());
        (gchi, mlvc)
    }

    #[test]
    fn bfs_agrees_with_multilogvc() {
        let g = mlvc_gen::rmat(mlvc_gen::RmatParams::social(9, 6), 21);
        let (mut gchi, mut mlvc) = engines_for(&g, 4);
        let app = mlvc_apps::Bfs::new(3);
        let r1 = gchi.run(&app, 100);
        let r2 = mlvc.run(&app, 100);
        assert!(r1.converged && r2.converged);
        assert_eq!(gchi.states(), mlvc.states());
    }

    #[test]
    fn cdlp_agrees_with_multilogvc() {
        let g = mlvc_gen::sbm(
            mlvc_gen::SbmParams { n: 120, communities: 3, intra_degree: 10.0, inter_degree: 0.5 },
            7,
        );
        let (mut gchi, mut mlvc) = engines_for(&g, 3);
        let r1 = gchi.run(&mlvc_apps::Cdlp, 20);
        let r2 = mlvc.run(&mlvc_apps::Cdlp, 20);
        assert_eq!(gchi.states(), mlvc.states());
        let _ = (r1, r2);
    }

    #[test]
    fn coloring_agrees_and_is_proper() {
        let g = mlvc_gen::rmat(mlvc_gen::RmatParams::social(8, 4), 30);
        let (mut gchi, mut mlvc) = engines_for(&g, 4);
        // Coloring keeps per-run auxiliary state: fresh instance per run.
        let r1 = gchi.run(&mlvc_apps::Coloring::new(), 300);
        let r2 = mlvc.run(&mlvc_apps::Coloring::new(), 300);
        assert!(r1.converged && r2.converged);
        assert_eq!(gchi.states(), mlvc.states());
        let colors: Vec<u32> = gchi.states().iter().map(|&s| s as u32).collect();
        assert!(mlvc_apps::is_proper_coloring(&g, &colors));
    }

    #[test]
    fn mis_agrees_with_multilogvc() {
        let g = mlvc_gen::rmat(mlvc_gen::RmatParams::social(8, 4), 11);
        let (mut gchi, mut mlvc) = engines_for(&g, 4);
        let r1 = gchi.run(&mlvc_apps::Mis, 200);
        let r2 = mlvc.run(&mlvc_apps::Mis, 200);
        assert!(r1.converged && r2.converged);
        assert_eq!(gchi.states(), mlvc.states());
    }

    #[test]
    fn pagerank_agrees_within_float_tolerance() {
        let g = mlvc_gen::grid(5, 6);
        let (mut gchi, mut mlvc) = engines_for(&g, 3);
        let app = mlvc_apps::PageRank::new(0.85, 1e-10);
        gchi.run(&app, 300);
        mlvc.run(&app, 300);
        for v in 0..g.num_vertices() {
            let a = mlvc_apps::PageRank::rank(gchi.states()[v]);
            let b = mlvc_apps::PageRank::rank(mlvc.states()[v]);
            assert!((a - b).abs() < 1e-9, "v={v}: {a} vs {b}");
        }
    }

    #[test]
    fn random_walk_total_visits_agree() {
        // Walk forwarding order differs between engines (message order is
        // engine-specific), so only aggregates are comparable.
        let g = mlvc_gen::cycle(40);
        let (mut gchi, mut mlvc) = engines_for(&g, 4);
        let app = mlvc_apps::RandomWalk::new(10, 2, 10);
        let r1 = gchi.run(&app, 30);
        let r2 = mlvc.run(&app, 30);
        assert!(r1.converged && r2.converged);
        let t1: u64 = gchi.states().iter().sum();
        let t2: u64 = mlvc.states().iter().sum();
        assert_eq!(t1, t2, "4 sources × 2 walks × 11 visits");
        assert_eq!(t1, 88);
    }

    #[test]
    fn graphchi_reads_more_pages_on_sparse_activity() {
        // BFS touching a small fraction of a large graph: GraphChi loads
        // whole shards; MultiLogVC only the active pages. This is the
        // paper's central claim (Fig. 5b) in miniature.
        let g = mlvc_gen::rmat(mlvc_gen::RmatParams::social(10, 8), 17);
        let (mut gchi, mut mlvc) = engines_for(&g, 8);
        let app = mlvc_apps::Bfs::new(0);
        let r1 = gchi.run(&app, 4);
        let r2 = mlvc.run(&app, 4);
        assert!(
            r1.total_pages() > 2 * r2.total_pages(),
            "GraphChi {} vs MultiLogVC {} pages",
            r1.total_pages(),
            r2.total_pages()
        );
    }

    #[test]
    fn idle_intervals_skip_shard_loads() {
        // Seeded BFS on a path: superstep 1 touches one interval only.
        let g = mlvc_gen::path(64);
        let iv = VertexIntervals::uniform(64, 8);
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let mut gchi = GraphChiEngine::new(Arc::clone(&ssd), &g, iv, EngineConfig::default()).unwrap();
        let r = gchi.run(&mlvc_apps::Bfs::new(0), 2);
        let s1 = &r.supersteps[0];
        // Interval 0's shard + windows only — far fewer pages than the
        // whole graph would need.
        assert!(s1.active_vertices == 1);
        assert!(s1.io.pages_read < 10, "pages {}", s1.io.pages_read);
    }
}
