use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use mlvc_core::{
    ConfigError, Engine, EngineConfig, InitActive, RunReport, SendSink, SuperstepStats, Update,
    VertexCtx, VertexProgram,
};
use mlvc_graph::{Csr, IntervalId, VertexIntervals, VertexId};
use mlvc_log::BitSet;
use mlvc_ssd::{DeviceError, Ssd};

use crate::shards::{ShardRecord, ShardSet};

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
/// Graph structural updates are not supported by this baseline (none of
/// the paper's evaluation applications mutate the graph).
pub struct GraphChiEngine {
    ssd: Arc<Ssd>,
    shards: ShardSet,
    cfg: EngineConfig,
    states: Vec<u64>,
}

struct BlockImage {
    shard: IntervalId,
    first_page: u64,
    records: Vec<ShardRecord>,
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

    /// The superstep driver; a device fault aborts the run and surfaces as
    /// `RunReport::interrupted`.
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
        let combine = prog.combine();

        self.states = (0..n as VertexId).map(|v| prog.init_state(v)).collect();

        let mut active = BitSet::new(n);
        let mut all_active = false;
        // Deliveries scheduled for the current superstep, per interval.
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
            let any_active = all_active || active.count() > 0;
            if !any_active {
                report.converged = true;
                break;
            }
            let wall0 = Instant::now();
            let io0 = self.ssd.stats().snapshot();
            let mut st = SuperstepStats { superstep, ..Default::default() };
            let mut next_active = BitSet::new(n);
            let mut next_pending: Vec<Vec<Update>> = vec![Vec::new(); ni];
            let mut sends_total = 0u64;

            for i in intervals.iter_ids() {
                let iv = intervals.range(i);
                // Active vertices of this interval, ascending.
                let actives: Vec<VertexId> = if all_active {
                    iv.clone().collect()
                } else {
                    iv.clone().filter(|&v| active.get(v as usize)).collect()
                };
                if actives.is_empty() && pending[i as usize].is_empty() {
                    continue; // the only case GraphChi skips a shard (§II-A)
                }

                // --- Load shard i fully + the interval's out-edge blocks
                //     from every other shard (parallel sliding windows). ---
                let shard_records = self.shards.load_shard(i)?;
                #[allow(unused_mut)]
                let mut images: Vec<BlockImage> = Vec::new();
                for j in intervals.iter_ids() {
                    if j == i {
                        continue;
                    }
                    let (lo, hi) = self.shards.block(j, i);
                    if lo >= hi {
                        continue;
                    }
                    let (records, first_page) = self.shards.load_range(j, lo, hi)?;
                    images.push(BlockImage { shard: j, first_page, records });
                }

                // --- Messages: fresh edge values + pending deliveries. ---
                let mut msgs: Vec<Update> = shard_records
                    .iter()
                    .filter(|r| r.tag as usize == superstep - 1 && r.tag != 0)
                    .map(|r| Update::new(r.dst, r.src, r.data))
                    .collect();
                // Seeds use tag semantics of "delivered at superstep 1".
                msgs.append(&mut pending[i as usize]);
                msgs.sort_by_key(|u| (u.dest, u.src));
                let mut groups: HashMap<VertexId, std::ops::Range<usize>> = HashMap::new();
                {
                    let mut k = 0usize;
                    while k < msgs.len() {
                        let d = msgs[k].dest;
                        let start = k;
                        while k < msgs.len() && msgs[k].dest == d {
                            k += 1;
                        }
                        groups.insert(d, start..k);
                    }
                }

                // Vertices to process: active ∪ message receivers.
                let mut process_list: Vec<VertexId> = actives;
                for &d in groups.keys() {
                    if !process_list.contains(&d) {
                        process_list.push(d);
                    }
                }
                process_list.sort_unstable();

                // --- Out-edge gather: merge-join each sorted block with the
                //     process list; also index record positions for sends. ---
                // Image index 0 = the shard itself (for dst within interval i).
                let mut out_edges: HashMap<VertexId, Vec<(VertexId, usize, usize)>> =
                    process_list.iter().map(|&v| (v, Vec::new())).collect();
                {
                    // Own shard's block (i, i).
                    let (lo, hi) = self.shards.block(i, i);
                    for (k, r) in shard_records[lo..hi].iter().enumerate() {
                        if let Some(list) = out_edges.get_mut(&r.src) {
                            list.push((r.dst, usize::MAX, lo + k));
                        }
                    }
                    for (img_idx, img) in images.iter().enumerate() {
                        let (lo, _hi) = self.shards.block(img.shard, i);
                        let per_page = self.ssd.page_size() / crate::SHARD_RECORD_BYTES;
                        let img_base = (img.first_page as usize) * per_page;
                        let start_in_img = lo - img_base;
                        let count = self.shards.block(img.shard, i).1 - lo;
                        for (k, r) in img.records[start_in_img..start_in_img + count]
                            .iter()
                            .enumerate()
                        {
                            if let Some(list) = out_edges.get_mut(&r.src) {
                                list.push((r.dst, img_idx, start_in_img + k));
                            }
                        }
                    }
                }

                // --- Parallel vertex processing. ---
                let states = &self.states;
                let seed = self.cfg.seed;
                let work: Vec<(VertexId, &[Update], Vec<VertexId>)> = process_list
                    .iter()
                    .map(|&v| {
                        let m: &[Update] =
                            groups.get(&v).map(|r| &msgs[r.clone()]).unwrap_or(&[]);
                        let edges: Vec<VertexId> =
                            out_edges[&v].iter().map(|&(d, _, _)| d).collect();
                        (v, m, edges)
                    })
                    .collect();
                let combined: Vec<Option<Update>> = work
                    .iter()
                    .map(|(v, m, _)| {
                        combine.and_then(|f| {
                            m.iter()
                                .map(|u| u.data)
                                .reduce(f)
                                .map(|data| Update::new(*v, VertexId::MAX, data))
                        })
                    })
                    .collect();
                for ((_, m, _), comb) in work.iter().zip(&combined) {
                    st.messages_delivered += match comb {
                        Some(_) => 1,
                        None => m.len() as u64,
                    };
                }
                let outputs: Vec<_> =
                    mlvc_par::par_map2(&work, &combined, |(v, m, edges), comb| {
                        let msgs_view: &[Update] = match comb {
                            Some(u) => std::slice::from_ref(u),
                            None => m,
                        };
                        let mut sink = SendSink::flat();
                        let mut ctx = VertexCtx::new(
                            *v,
                            superstep,
                            n,
                            states[*v as usize],
                            msgs_view,
                            edges,
                            None,
                            seed,
                            &mut sink,
                        );
                        prog.process(&mut ctx);
                        (ctx.into_outputs(), sink)
                    });

                // --- Apply outputs: states, on-edge sends, activity. ---
                let mut shard_image = shard_records;
                let per_page = self.ssd.page_size() / crate::SHARD_RECORD_BYTES;
                let mut shard_dirty = vec![false; shard_image.len().div_ceil(per_page)];
                let mut img_dirty: Vec<Vec<bool>> = images
                    .iter()
                    .map(|im| vec![false; im.records.len().div_ceil(per_page)])
                    .collect();
                for ((v, m, edges), (out, sink)) in work.iter().zip(outputs) {
                    self.states[*v as usize] = out.state;
                    st.active_vertices += 1;
                    st.messages_processed += m.len() as u64;
                    st.edges_scanned += edges.len() as u64;
                    assert!(
                        out.structural.is_empty(),
                        "GraphChi baseline does not support structural updates"
                    );
                    if out.keep_active {
                        next_active.set(*v as usize);
                    }
                    for u in &sink.buffers()[0] {
                        sends_total += 1;
                        next_active.set(u.dest as usize);
                        // Locate the edge record v→dest.
                        let slots = &out_edges[v];
                        let slot = slots
                            .iter()
                            .find(|&&(d, _, _)| d == u.dest)
                            .unwrap_or_else(|| {
                                // mlvc-lint: allow(no-panic-in-lib) -- a send along a non-edge violates the GraphChi model; abort
                                panic!(
                                    "GraphChi model requires sends along existing edges \
                                     ({v} -> {} missing)",
                                    u.dest
                                )
                            });
                        let (_, img_idx, rec_idx) = *slot;
                        let rec = if img_idx == usize::MAX {
                            shard_dirty[rec_idx / per_page] = true;
                            &mut shard_image[rec_idx]
                        } else {
                            img_dirty[img_idx][rec_idx / per_page] = true;
                            &mut images[img_idx].records[rec_idx]
                        };
                        if rec.tag as usize == superstep - 1 && rec.tag != 0 {
                            // Undelivered previous-superstep value: if the
                            // destination interval is still to be processed
                            // this superstep, reroute it.
                            let ji = intervals.interval_of(rec.dst);
                            if ji > i {
                                pending[ji as usize]
                                    .push(Update::new(rec.dst, rec.src, rec.data));
                            }
                        } else if rec.tag as usize == superstep {
                            // Second message on this edge this superstep.
                            match combine {
                                Some(f) => {
                                    rec.data = f(rec.data, u.data);
                                    continue;
                                }
                                None => {
                                    let ji = intervals.interval_of(rec.dst);
                                    next_pending[ji as usize]
                                        .push(Update::new(rec.dst, rec.src, rec.data));
                                }
                            }
                        }
                        rec.data = u.data;
                        rec.tag = superstep as u32;
                    }
                }

                // --- Write back the modified pages of the shard and its
                //     sliding windows. ---
                self.shards.write_back_dirty(i, 0, &shard_image, &shard_dirty)?;
                for (im, dirty) in images.iter().zip(&img_dirty) {
                    self.shards
                        .write_back_dirty(im.shard, im.first_page, &im.records, dirty)?;
                }
            }

            // Anything still pending for earlier intervals is impossible:
            // reroutes only target later intervals. Schedule next superstep.
            pending = next_pending;
            for (j, p) in pending.iter().enumerate() {
                if !p.is_empty() {
                    for u in p {
                        next_active.set(u.dest as usize);
                    }
                    let _ = j;
                }
            }
            active = next_active;
            all_active = false;
            st.messages_sent = sends_total;
            st.io = self.ssd.stats().snapshot().since(&io0);
            let cost = &self.cfg.cost;
            st.compute_ns =
                cost.compute_ns(st.messages_processed, st.messages_delivered, st.edges_scanned);
            st.wall_ns = wall0.elapsed().as_nanos() as u64;
            report.supersteps.push(st);
        }
        if !all_active && active.count() == 0 && pending.iter().all(|p| p.is_empty()) {
            report.converged = true;
        }
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
