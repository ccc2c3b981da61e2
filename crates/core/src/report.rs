use std::fmt::Write as _;

use mlvc_log::{EdgeLogStats, MultiLogStats};
use mlvc_mutate::MutationStats;
use mlvc_obs::{to_prometheus, MetricsSnapshot};
use mlvc_ssd::{DeviceError, SsdStatsSnapshot};

/// Statistics of one phase of a run — the seeding phase or one superstep:
/// the per-superstep rows behind the paper's Figures 2, 3, 5 and 7, and the
/// run's trace ([`Self::trace_fields`], DESIGN.md §13).
#[derive(Debug, Clone, Copy, Default)]
pub struct SuperstepStats {
    /// 1-based superstep number; 0 for the seeding phase.
    pub superstep: usize,
    /// Vertices processed this superstep (Fig. 2 numerator).
    pub active_vertices: u64,
    /// Incoming messages consumed from the logs (= updates sent over
    /// edges in the previous superstep; Fig. 2's "active edges"). This is
    /// the pre-`combine` count and is charged the per-record sort cost.
    pub messages_processed: u64,
    /// Messages handed to the processing function (post-`combine`: one per
    /// destination when a reduction is installed). Charged the per-message
    /// processing cost.
    pub messages_delivered: u64,
    /// Outgoing messages produced this superstep.
    pub messages_sent: u64,
    /// Adjacency entries scanned.
    pub edges_scanned: u64,
    /// Active vertices whose adjacency came from the edge log instead of
    /// the CSR.
    pub edge_log_hits: u64,
    /// Column-index pages accessed / accessed-and-inefficient
    /// ([`mlvc_log::is_inefficient`]: under 10% utilization) — Fig. 3's
    /// ratio.
    pub colidx_pages_accessed: u64,
    pub colidx_pages_inefficient: u64,
    /// Device activity during this superstep (pages, bytes, simulated I/O
    /// time).
    pub io: SsdStatsSnapshot,
    /// Simulated compute time ([`crate::compute_ns`] over messages + edges).
    pub compute_ns: u64,
    /// Simulated time the engine spent blocked on the I/O queue this
    /// superstep (submission stalls + residual completion waits). Already
    /// included in `io.read_time_ns`; broken out to show overlap: what
    /// the reads kept in flight could not hide behind compute (DESIGN.md
    /// §12).
    pub io_wait_ns: u64,
    /// Simulated time the engine spent blocked on writes queued behind it
    /// this superstep (eviction submission stalls + the drains). Already
    /// included in `io.write_time_ns`: the rest of it is the synchronous
    /// writes' time (DESIGN.md §5, rule 6).
    pub write_wait_ns: u64,
    /// High-water mark of requests in flight on the I/O queue this
    /// superstep.
    pub max_inflight: u64,
    /// Host wall-clock time of the superstep (reference only; experiment
    /// claims use simulated time).
    pub wall_ns: u64,
    /// Wall-clock time of the dataflow stages (reference only, like
    /// `wall_ns`): log load + decode, in-memory sort (zero for a program
    /// that declares `combine`: the decode folds instead), parallel vertex
    /// processing, and update scatter into the multi-log. Load + sort of
    /// batch *k+1* overlap the process + scatter of batch *k* (DESIGN.md
    /// §12), so these stage times can sum past `wall_ns`.
    pub load_ns: u64,
    pub sort_ns: u64,
    pub process_ns: u64,
    pub scatter_ns: u64,
    /// Wall-clock time of what the owner thread does besides `process_ns`
    /// and `scatter_ns`, so that the seven together account for `wall_ns`
    /// ([`RunReport::owner_totals_ns`]): getting the next fused batch (its
    /// load + sort when the owner decodes it, what is left of a look-ahead
    /// worker's when one was given it), carving the
    /// interval's inbox — in the asynchronous model, draining the write
    /// side into it — active list and work items out of the batch, the adjacency
    /// loads (graph loader + edge log), applying the processing outputs,
    /// and the superstep close-out.
    pub fetch_wait_ns: u64,
    pub assemble_ns: u64,
    pub adjacency_ns: u64,
    pub apply_ns: u64,
    pub close_out_ns: u64,
    /// Fused batches the owner fetched and decoded itself, where it retired
    /// them, and fused batches a look-ahead worker was spawned for — together
    /// the superstep's fused batches. Reference only, like the wall-clock
    /// fields and unlike every counter above: who decodes depends on the
    /// thread count by design, what is decoded does not (DESIGN.md §12).
    pub batches_inline: u64,
    pub batches_handed_off: u64,
    /// True if a crash-consistency checkpoint was written at this
    /// superstep's close-out (its I/O is charged to `io`).
    pub checkpointed: bool,
    /// The merge of the running program's own structural updates at this
    /// superstep's close-out (zero unless an interval reached the merge
    /// threshold here; its I/O is charged to `io`). Client batches never
    /// merge mid-run. See DESIGN.md §17.
    pub mutations: MutationStats,
    /// Multi-log activity this phase: update-record bytes appended across
    /// all intervals, pages flushed, pages carried into the next superstep
    /// in host memory (DESIGN.md §10), pages log-tail retention held in the
    /// multi-log instead of writing them to flash (DESIGN.md §18),
    /// buffer-pressure evictions.
    pub log_bytes_appended: u64,
    pub log_pages_flushed: u64,
    pub log_pages_carried: u64,
    pub log_pages_retained: u64,
    pub log_evictions: u64,
    /// Edge lists copied into the sequential edge log, and its pages
    /// written.
    pub edge_log_vertices: u64,
    pub edge_log_pages: u64,
    /// The device's FTL model this phase (all 0 when none is attached —
    /// `Ssd::enable_ftl`): host page writes, physical page
    /// writes (host + GC relocations), blocks erased, live pages relocated.
    pub ftl_host_writes: u64,
    pub ftl_physical_writes: u64,
    pub ftl_erases: u64,
    pub ftl_gc_relocations: u64,
    /// Page-cache activity this phase (DESIGN.md §18): this tenant's hits
    /// (held topology pages included) and misses (a tiered run's device
    /// page reads when no cache is attached), and frames reclaimed.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    /// Topology pages the engine holds at the phase's close (a gauge, not a
    /// delta — pins persist across supersteps), and requests answered from
    /// them (also counted in `cache_hits`).
    pub pinned_pages: u64,
    pub pinned_hits: u64,
}

impl SuperstepStats {
    /// Simulated superstep time: I/O + compute (the experiment currency).
    pub fn sim_time_ns(&self) -> u64 {
        self.io.io_time_ns() + self.compute_ns
    }

    /// Fraction of simulated time spent on storage (Fig. 5c).
    pub fn storage_fraction(&self) -> f64 {
        let t = self.sim_time_ns();
        if t == 0 {
            0.0
        } else {
            self.io.io_time_ns() as f64 / t as f64
        }
    }

    /// The phase's trace row: `(name, value)` in the order the JSON line
    /// writes them. Every value is a count or a cost-model time, none a
    /// matter of thread scheduling, so the rows of a run are bit-identical
    /// for any `MLVC_THREADS` — the wall-clock timers and who decoded which
    /// batch stay out.
    pub fn trace_fields(&self) -> [(&'static str, u64); 35] {
        let (io, m) = (&self.io, &self.mutations);
        [
            ("superstep", self.superstep as u64),
            ("active_vertices", self.active_vertices),
            ("messages_processed", self.messages_processed),
            ("messages_delivered", self.messages_delivered),
            ("messages_sent", self.messages_sent),
            ("edges_scanned", self.edges_scanned),
            ("fused_batches", self.batches_inline + self.batches_handed_off),
            ("pages_read", io.pages_read),
            ("pages_written", io.pages_written),
            ("bytes_read", io.bytes_read),
            ("useful_bytes_read", io.useful_bytes_read),
            ("bytes_written", io.bytes_written),
            ("log_bytes_appended", self.log_bytes_appended),
            ("log_pages_flushed", self.log_pages_flushed),
            ("log_pages_carried", self.log_pages_carried),
            ("log_pages_retained", self.log_pages_retained),
            ("log_evictions", self.log_evictions),
            ("edge_log_vertices", self.edge_log_vertices),
            ("edge_log_pages", self.edge_log_pages),
            ("edge_log_hits", self.edge_log_hits),
            ("ftl_host_writes", self.ftl_host_writes),
            ("ftl_physical_writes", self.ftl_physical_writes),
            ("ftl_erases", self.ftl_erases),
            ("ftl_gc_relocations", self.ftl_gc_relocations),
            ("sim_time_ns", self.sim_time_ns()),
            ("io_wait_ns", self.io_wait_ns),
            ("max_inflight", self.max_inflight),
            ("mut_edges_merged", m.edges_added + m.edges_removed),
            ("mut_intervals_merged", m.intervals_merged),
            ("mut_dirty_vertices", m.dirty_vertices),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cache_evictions", self.cache_evictions),
            ("pinned_pages", self.pinned_pages),
            ("pinned_hits", self.pinned_hits),
        ]
    }
}

/// `num / den`, undefined over nothing.
fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// Full-run statistics returned by [`crate::Engine::run`].
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    pub engine: String,
    pub app: String,
    /// Stable identity of this run, from `EngineConfig::tag` — what keeps
    /// concurrent jobs' records apart in merged JSONL/Prometheus output
    /// (`"mlvc"` for plain single-run CLI invocations).
    pub job_id: String,
    /// The seeding phase (superstep 0): the initial activations written
    /// into the multi-log, or a resumed checkpoint's restored pending pages.
    pub seeding: SuperstepStats,
    pub supersteps: Vec<SuperstepStats>,
    /// True if the run converged (no pending work) before the cap.
    pub converged: bool,
    /// Set when the run was cut short by a device fault (simulated crash
    /// or unrecoverable read error); the report covers the completed
    /// supersteps only.
    pub interrupted: Option<DeviceError>,
    /// Superstep of the checkpoint this run resumed from, when it was
    /// started via `run_recoverable` and a valid checkpoint existed.
    pub resumed_from: Option<u64>,
    /// Engine-specific extras.
    pub multilog: Option<MultiLogStats>,
    pub edgelog: Option<EdgeLogStats>,
    /// Accumulated merge activity over the whole run, `Some` only when
    /// something merged: the client batches `reconverge` merged before its
    /// drive, and the program's own structural updates.
    pub mutations: Option<MutationStats>,
    /// End-of-run metrics snapshot, built by every MultiLogVC run (the
    /// baselines leave it `None`). Its `mlvc_ssd_*` counters equal the
    /// device's own stats delta over the run exactly
    /// (`tests/io_accounting.rs`).
    pub obs: Option<MetricsSnapshot>,
}

impl RunReport {
    /// Every phase of the run in order — the seeding phase, then each
    /// superstep: the run's trace, one row per phase, covering every
    /// device operation of the run (`tests/io_accounting.rs` pins the sum).
    pub fn phases(&self) -> impl Iterator<Item = &SuperstepStats> {
        std::iter::once(&self.seeding).chain(&self.supersteps)
    }

    pub fn total_sim_time_ns(&self) -> u64 {
        self.supersteps.iter().map(|s| s.sim_time_ns()).sum()
    }

    pub fn total_io_time_ns(&self) -> u64 {
        self.supersteps.iter().map(|s| s.io.io_time_ns()).sum()
    }

    pub fn total_compute_ns(&self) -> u64 {
        self.supersteps.iter().map(|s| s.compute_ns).sum()
    }

    pub fn total_pages_read(&self) -> u64 {
        self.supersteps.iter().map(|s| s.io.pages_read).sum()
    }

    pub fn total_pages_written(&self) -> u64 {
        self.supersteps.iter().map(|s| s.io.pages_written).sum()
    }

    pub fn total_pages(&self) -> u64 {
        self.total_pages_read() + self.total_pages_written()
    }

    pub fn total_messages(&self) -> u64 {
        self.supersteps.iter().map(|s| s.messages_processed).sum()
    }

    /// Per-stage wall-clock totals `[load, sort, process, scatter]` in
    /// nanoseconds — reference timings for the BENCH trajectory.
    pub fn stage_totals_ns(&self) -> [u64; 4] {
        let mut t = [0u64; 4];
        for s in &self.supersteps {
            t[0] += s.load_ns;
            t[1] += s.sort_ns;
            t[2] += s.process_ns;
            t[3] += s.scatter_ns;
        }
        t
    }

    /// Wall-clock totals of the owner thread's time, in the order it is
    /// spent: `[fetch wait, assemble, adjacency, process, scatter, apply,
    /// close-out]`. Unlike [`Self::stage_totals_ns`] nothing here overlaps,
    /// so the seven sum to the supersteps' `wall_ns` less what no timer
    /// names.
    pub fn owner_totals_ns(&self) -> [u64; 7] {
        let mut t = [0u64; 7];
        for s in &self.supersteps {
            let row = [
                s.fetch_wait_ns,
                s.assemble_ns,
                s.adjacency_ns,
                s.process_ns,
                s.scatter_ns,
                s.apply_ns,
                s.close_out_ns,
            ];
            t.iter_mut().zip(row).for_each(|(t, ns)| *t += ns);
        }
        t
    }

    /// Fused batches of the run by who decoded them: `[by the owner, by a
    /// look-ahead worker]`. The second is the number of threads the fetch
    /// stage spawned.
    pub fn batch_totals(&self) -> [u64; 2] {
        self.supersteps
            .iter()
            .fold([0, 0], |[i, h], s| [i + s.batches_inline, h + s.batches_handed_off])
    }

    /// Storage fraction of the whole run (Fig. 5c).
    pub fn storage_fraction(&self) -> f64 {
        let t = self.total_sim_time_ns();
        if t == 0 {
            0.0
        } else {
            self.total_io_time_ns() as f64 / t as f64
        }
    }

    /// Speedup of this run over `other` in simulated time (the paper's
    /// Y-axes: "application execution time on GraphChi divided by
    /// application execution time on the MultiLogVC framework").
    pub fn speedup_over(&self, other: &RunReport) -> f64 {
        other.total_sim_time_ns() as f64 / self.total_sim_time_ns().max(1) as f64
    }

    /// The trace as JSON lines — the `mlvc run --metrics <path>` payload:
    /// one object per phase, its [`SuperstepStats::trace_fields`] then the
    /// phase's read and flash write amplification (`null` until defined).
    pub fn trace_jsonl(&self) -> String {
        let json = |r: Option<f64>| r.map_or_else(|| "null".to_string(), |x| format!("{x:.6}"));
        let mut out = String::new();
        for s in self.phases() {
            out.push('{');
            for (name, v) in s.trace_fields() {
                let _ = write!(out, "\"{name}\":{v},");
            }
            let _ = writeln!(
                out,
                "\"read_amplification\":{},\"write_amplification\":{}}}",
                json(s.io.read_amplification()),
                json(ratio(s.ftl_physical_writes, s.ftl_host_writes)),
            );
        }
        out
    }

    /// Prometheus text exposition of the end-of-run metrics snapshot
    /// (empty string when the engine built none).
    pub fn prometheus_text(&self) -> String {
        self.obs.as_ref().map(|s| to_prometheus(&[(None, s)])).unwrap_or_default()
    }

    /// Whole-run read amplification over every phase (bytes read / useful
    /// bytes read), `None` when nothing useful was read.
    pub fn read_amplification(&self) -> Option<f64> {
        let read = self.phases().map(|s| s.io.bytes_read).sum();
        ratio(read, self.phases().map(|s| s.io.useful_bytes_read).sum())
    }

    /// Whole-run flash write amplification from the FTL counters of every
    /// phase, `None` when no FTL model was attached or nothing was written.
    pub fn write_amplification(&self) -> Option<f64> {
        let physical = self.phases().map(|s| s.ftl_physical_writes).sum();
        ratio(physical, self.phases().map(|s| s.ftl_host_writes).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(io_ns: u64, compute_ns: u64) -> SuperstepStats {
        SuperstepStats {
            io: SsdStatsSnapshot { read_time_ns: io_ns, ..Default::default() },
            compute_ns,
            ..Default::default()
        }
    }

    #[test]
    fn sim_time_and_storage_fraction() {
        let s = step(900, 100);
        assert_eq!(s.sim_time_ns(), 1000);
        assert!((s.storage_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn report_totals_and_speedup() {
        let fast = RunReport { supersteps: vec![step(100, 10), step(50, 5)], ..Default::default() };
        let slow = RunReport { supersteps: vec![step(500, 10), step(250, 5)], ..Default::default() };
        assert_eq!(fast.total_sim_time_ns(), 165);
        let sp = fast.speedup_over(&slow);
        assert!(sp > 4.0 && sp < 5.0, "speedup {sp}");
    }
}
