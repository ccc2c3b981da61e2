//! Trace emission of one drive (DESIGN.md §13), active only with
//! [`crate::EngineConfig::obs`]: the trace ring, the unit-stats baselines
//! subtracted to turn cumulative counters into per-superstep deltas, the
//! one [`TraceRecord`] builder and the end-of-run registry snapshot.

use mlvc_log::{EdgeLogOptimizer, EdgeLogStats, MultiLog, MultiLogStats};
use mlvc_obs::{MetricsSnapshot, Registry, TraceRecord, TraceRing};
use mlvc_ssd::{CacheSnapshot, FtlConfig, FtlStats, Ssd, SsdStatsSnapshot};

use crate::{RunReport, SuperstepStats};

/// Trace records kept per run — far above any evaluation run (the paper
/// caps at 15 supersteps); beyond it the ring keeps the most recent records
/// so memory stays bounded.
const TRACE_RING_CAP: usize = 4096;

pub(crate) struct Tracer {
    ring: TraceRing,
    /// Device stats at run start — the whole-run baseline behind the
    /// seed-phase record and the end-of-run registry counters.
    run_base: SsdStatsSnapshot,
    /// FTL stats and page-cache snapshot at run start (defaults when no
    /// cache is attached), for the whole-run gauges and counters.
    ftl_run_base: FtlStats,
    cache_run_base: CacheSnapshot,
    /// Per-record baselines, advanced by every [`Self::record`].
    ml_base: MultiLogStats,
    el_base: EdgeLogStats,
    ftl_base: FtlStats,
    cache_base: CacheSnapshot,
}

impl Tracer {
    /// Attach the live FTL before any page write so flash amplification
    /// covers the whole run, and capture the baselines — device stats may
    /// already be nonzero (graph storing), and the FTL survives across runs
    /// on the same device.
    pub(crate) fn start(ssd: &Ssd) -> Tracer {
        ssd.enable_ftl(FtlConfig::default());
        let ftl0 = ssd.ftl_stats().unwrap_or_default();
        let cache0 = ssd.cache().map(|c| c.snapshot()).unwrap_or_default();
        Tracer {
            ring: TraceRing::new(TRACE_RING_CAP),
            run_base: ssd.stats().snapshot(),
            ftl_run_base: ftl0,
            cache_run_base: cache0.clone(),
            ml_base: MultiLogStats::default(),
            el_base: EdgeLogStats::default(),
            ftl_base: ftl0,
            cache_base: cache0,
        }
    }

    /// Device activity since the run started — the `io` of the seed-phase
    /// record, which has no superstep-local baseline.
    pub(crate) fn io_since_start(&self, ssd: &Ssd) -> SsdStatsSnapshot {
        ssd.stats().snapshot().since(&self.run_base)
    }

    /// Build and ring the record of the phase `st` describes: only
    /// counts, cost-model times, and deltas of the unit stats since the
    /// previous record — every field is thread-count invariant, unlike the
    /// wall-clock stage timings which stay out of the trace. The seed phase
    /// (superstep 0: the initial activations, or a resumed checkpoint's
    /// restored pending pages) is recorded through here too, so the trace
    /// accounts for every device operation of the run
    /// (`tests/io_accounting.rs` pins the sum).
    pub(crate) fn record(
        &mut self,
        ssd: &Ssd,
        st: &SuperstepStats,
        fused_batches: usize,
        multilog: &MultiLog,
        edgelog: &EdgeLogOptimizer,
    ) {
        let ml = multilog.stats();
        let el = edgelog.stats();
        let ftl = ssd.ftl_stats().unwrap_or_default();
        let cs = ssd.cache().map(|c| c.snapshot()).unwrap_or_default();
        let (ct, cb) = (cs.tenant(ssd.tenant()), self.cache_base.tenant(ssd.tenant()));
        let rec = TraceRecord {
            superstep: st.superstep as u64,
            active_vertices: st.active_vertices,
            messages_processed: st.messages_processed,
            messages_delivered: st.messages_delivered,
            messages_sent: st.messages_sent,
            edges_scanned: st.edges_scanned,
            fused_batches: fused_batches as u64,
            pages_read: st.io.pages_read,
            pages_written: st.io.pages_written,
            bytes_read: st.io.bytes_read,
            useful_bytes_read: st.io.useful_bytes_read,
            bytes_written: st.io.bytes_written,
            log_bytes_appended: ml.bytes_appended - self.ml_base.bytes_appended,
            log_pages_flushed: ml.pages_flushed - self.ml_base.pages_flushed,
            log_evictions: ml.evictions - self.ml_base.evictions,
            edge_log_vertices: el.vertices_logged - self.el_base.vertices_logged,
            edge_log_pages: el.pages_written - self.el_base.pages_written,
            edge_log_hits: st.edge_log_hits,
            ftl_host_writes: ftl.host_writes - self.ftl_base.host_writes,
            ftl_physical_writes: ftl.physical_writes - self.ftl_base.physical_writes,
            ftl_erases: ftl.erases - self.ftl_base.erases,
            ftl_gc_relocations: ftl.gc_relocations - self.ftl_base.gc_relocations,
            sim_time_ns: st.sim_time_ns(),
            io_wait_ns: st.io_wait_ns,
            max_inflight: st.max_inflight,
            mut_edges_merged: st.mutations.edges_added + st.mutations.edges_removed,
            mut_intervals_merged: st.mutations.intervals_merged,
            mut_dirty_vertices: st.mutations.dirty_vertices,
            cache_hits: ct.hits - cb.hits,
            cache_misses: ct.misses - cb.misses,
            cache_evictions: cs.evictions - self.cache_base.evictions,
            pinned_pages: cs.pinned_pages as u64,
            pinned_hits: cs.pinned_hits - self.cache_base.pinned_hits,
        };
        self.ml_base = ml;
        self.el_base = el;
        self.ftl_base = ftl;
        self.cache_base = cs;
        self.ring.push(rec);
    }

    /// Hand the trace and the end-of-run metrics registry snapshot to the
    /// report.
    pub(crate) fn finish(
        self,
        ssd: &Ssd,
        multilog: &MultiLog,
        edgelog: &EdgeLogOptimizer,
        report: &mut RunReport,
    ) {
        report.trace = self.ring.records();
        report.obs = Some(self.snapshot(ssd, multilog, edgelog, report));
    }

    /// End-of-run metrics registry snapshot: the `mlvc_ssd_*` counters are
    /// the device's own stats delta over this run — bit-exact equality with
    /// `Ssd::stats` is the contract `tests/io_accounting.rs` pins.
    fn snapshot(
        &self,
        ssd: &Ssd,
        multilog: &MultiLog,
        edgelog: &EdgeLogOptimizer,
        report: &RunReport,
    ) -> MetricsSnapshot {
        let reg = Registry::new();
        let io = self.io_since_start(ssd);
        reg.counter("mlvc_ssd_pages_read_total").add(io.pages_read);
        reg.counter("mlvc_ssd_pages_written_total").add(io.pages_written);
        reg.counter("mlvc_ssd_bytes_read_total").add(io.bytes_read);
        reg.counter("mlvc_ssd_bytes_written_total").add(io.bytes_written);
        reg.counter("mlvc_ssd_useful_bytes_read_total").add(io.useful_bytes_read);
        reg.counter("mlvc_ssd_read_batches_total").add(io.read_batches);
        reg.counter("mlvc_ssd_write_batches_total").add(io.write_batches);
        reg.counter("mlvc_ssd_read_time_ns_total").add(io.read_time_ns);
        reg.counter("mlvc_ssd_write_time_ns_total").add(io.write_time_ns);

        let ml = multilog.stats();
        reg.counter("mlvc_log_updates_logged_total").add(ml.updates_logged);
        reg.counter("mlvc_log_updates_read_total").add(ml.updates_read);
        reg.counter("mlvc_log_pages_flushed_total").add(ml.pages_flushed);
        reg.counter("mlvc_log_evictions_total").add(ml.evictions);
        reg.counter("mlvc_log_bytes_appended_total").add(ml.bytes_appended);

        let el = edgelog.stats();
        reg.counter("mlvc_edgelog_vertices_logged_total").add(el.vertices_logged);
        reg.counter("mlvc_edgelog_pages_written_total").add(el.pages_written);
        reg.counter("mlvc_edgelog_hits_total").add(el.hits);

        // Page-cache counters (tiering, DESIGN.md §18): whole-run deltas
        // for this engine's tenant — another tenant sharing the daemon's
        // cache never leaks into this run's series.
        if let Some(c) = ssd.cache() {
            let cs = c.snapshot();
            let b = &self.cache_run_base;
            let (ct, bt) = (cs.tenant(ssd.tenant()), b.tenant(ssd.tenant()));
            reg.counter("mlvc_cache_hits_total").add(ct.hits - bt.hits);
            reg.counter("mlvc_cache_misses_total").add(ct.misses - bt.misses);
            reg.counter("mlvc_cache_bytes_saved_total").add(ct.bytes_saved - bt.bytes_saved);
            reg.counter("mlvc_cache_evictions_total").add(cs.evictions - b.evictions);
            reg.counter("mlvc_cache_pinned_hits_total").add(cs.pinned_hits - b.pinned_hits);
            reg.gauge("mlvc_cache_capacity_pages").set(cs.capacity_pages as u64);
            reg.gauge("mlvc_cache_resident_pages").set(cs.resident_pages as u64);
            reg.gauge("mlvc_cache_pinned_pages").set(cs.pinned_pages as u64);
            reg.gauge("mlvc_cache_pinned_bytes").set(cs.pinned_bytes);
        }

        let ftl = ssd.ftl_stats().unwrap_or_default();
        let fb = &self.ftl_run_base;
        reg.counter("mlvc_ftl_host_writes_total").add(ftl.host_writes - fb.host_writes);
        reg.counter("mlvc_ftl_physical_writes_total")
            .add(ftl.physical_writes - fb.physical_writes);
        reg.counter("mlvc_ftl_erases_total").add(ftl.erases - fb.erases);
        reg.counter("mlvc_ftl_gc_relocations_total")
            .add(ftl.gc_relocations - fb.gc_relocations);

        reg.counter("mlvc_engine_supersteps_total")
            .add(report.supersteps.len() as u64);
        reg.counter("mlvc_engine_messages_processed_total")
            .add(report.supersteps.iter().map(|s| s.messages_processed).sum());
        reg.counter("mlvc_engine_messages_sent_total")
            .add(report.supersteps.iter().map(|s| s.messages_sent).sum());
        reg.counter("mlvc_engine_edges_scanned_total")
            .add(report.supersteps.iter().map(|s| s.edges_scanned).sum());

        reg.gauge("mlvc_engine_converged").set(u64::from(report.converged));
        // Amplification ratios as milli-units (gauges are integral).
        if io.useful_bytes_read > 0 {
            reg.gauge("mlvc_read_amplification_milli")
                .set((io.bytes_read as f64 / io.useful_bytes_read as f64 * 1000.0) as u64);
        }
        let host = ftl.host_writes - fb.host_writes;
        if host > 0 {
            let physical = ftl.physical_writes - fb.physical_writes;
            reg.gauge("mlvc_ftl_write_amplification_milli")
                .set((physical as f64 / host as f64 * 1000.0) as u64);
        }

        let pages_hist = reg.histogram(
            "mlvc_superstep_pages_read",
            &[4, 16, 64, 256, 1024, 4096, 16384],
        );
        let msgs_hist = reg.histogram(
            "mlvc_superstep_messages_sent",
            &[16, 256, 4096, 65536, 1048576],
        );
        for rec in self.ring.records() {
            pages_hist.observe(rec.pages_read);
            msgs_hist.observe(rec.messages_sent);
        }
        reg.snapshot()
    }
}
