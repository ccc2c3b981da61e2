//! Trace emission of one drive (DESIGN.md §13): the unit-stats baselines
//! subtracted to turn cumulative counters into per-phase deltas, the one
//! place a phase's unit counters are filled in ([`Tracer::close`]), and the
//! end-of-run metrics snapshot ([`Tracer::finish`]).

use std::collections::BTreeMap;

use mlvc_graph::HeldPages;
use mlvc_log::{EdgeLogOptimizer, EdgeLogStats, MultiLog, MultiLogStats};
use mlvc_obs::{HistogramSnapshot, MetricsSnapshot};
use mlvc_ssd::{CacheSnapshot, FtlStats, Ssd, SsdStatsSnapshot};

use crate::{RunReport, SuperstepStats};

pub(crate) struct Tracer {
    /// Device stats at run start — the whole-run baseline behind the
    /// seeding phase's `io` and the end-of-run counters.
    run_base: SsdStatsSnapshot,
    /// FTL stats and page-cache snapshot at run start (defaults when no
    /// cache is attached), for the whole-run gauges and counters.
    ftl_run_base: FtlStats,
    cache_run_base: CacheSnapshot,
    /// Per-phase baselines, advanced by every [`Self::close`].
    ml_base: MultiLogStats,
    el_base: EdgeLogStats,
    ftl_base: FtlStats,
    cache_base: CacheSnapshot,
    held_hits: u64,
    /// Whether the run holds topology pages: with no cache attached, its
    /// device page reads are then its cache misses.
    tiered: bool,
}

impl Tracer {
    /// Capture the baselines — device stats may already be nonzero (graph
    /// storing), and an FTL the caller attached survives across runs on the
    /// same device.
    pub(crate) fn start(ssd: &Ssd, tiered: bool) -> Tracer {
        let ftl0 = ssd.ftl_stats().unwrap_or_default();
        let cache0 = ssd.cache().map(|c| c.snapshot()).unwrap_or_default();
        Tracer {
            run_base: ssd.stats().snapshot(),
            ftl_run_base: ftl0,
            cache_run_base: cache0.clone(),
            ml_base: MultiLogStats::default(),
            el_base: EdgeLogStats::default(),
            ftl_base: ftl0,
            cache_base: cache0,
            held_hits: 0,
            tiered,
        }
    }

    /// Device activity since the run started — the `io` of the seeding
    /// phase, which has no superstep-local baseline.
    pub(crate) fn io_since_start(&self, ssd: &Ssd) -> SsdStatsSnapshot {
        ssd.stats().snapshot().since(&self.run_base)
    }

    /// Close the phase `st` describes: fill in its unit counters, the
    /// deltas of the multi-log, edge-log, FTL, page-cache and held-page
    /// stats since the previous phase closed. The seeding phase (superstep
    /// 0) closes through here too, so the phases of a run account for
    /// every device operation of it. A held page answered is a hit as a
    /// cache frame is; with no cache attached, a tiered run's misses are
    /// the pages it read from the device.
    pub(crate) fn close(
        &mut self,
        ssd: &Ssd,
        multilog: &MultiLog,
        edgelog: &EdgeLogOptimizer,
        held: &HeldPages,
        st: &mut SuperstepStats,
    ) {
        let ml = multilog.stats();
        let el = edgelog.stats();
        let ftl = ssd.ftl_stats().unwrap_or_default();
        let cache = ssd.cache();
        let cs = cache.as_ref().map(|c| c.snapshot()).unwrap_or_default();
        let (ct, cb) = (cs.tenant(ssd.tenant()), self.cache_base.tenant(ssd.tenant()));
        st.log_bytes_appended = ml.bytes_appended - self.ml_base.bytes_appended;
        st.log_pages_flushed = ml.pages_flushed - self.ml_base.pages_flushed;
        st.log_pages_carried = ml.pages_carried - self.ml_base.pages_carried;
        st.log_pages_retained = ml.pages_retained - self.ml_base.pages_retained;
        st.log_evictions = ml.evictions - self.ml_base.evictions;
        st.edge_log_vertices = el.vertices_logged - self.el_base.vertices_logged;
        st.edge_log_pages = el.pages_written - self.el_base.pages_written;
        st.ftl_host_writes = ftl.host_writes - self.ftl_base.host_writes;
        st.ftl_physical_writes = ftl.physical_writes - self.ftl_base.physical_writes;
        st.ftl_erases = ftl.erases - self.ftl_base.erases;
        st.ftl_gc_relocations = ftl.gc_relocations - self.ftl_base.gc_relocations;
        st.pinned_pages = held.pages() as u64;
        st.pinned_hits = held.hits() - self.held_hits;
        st.cache_hits = ct.hits - cb.hits + st.pinned_hits;
        st.cache_misses = match cache {
            None if self.tiered => st.io.pages_read,
            _ => ct.misses - cb.misses,
        };
        st.cache_evictions = cs.evictions - self.cache_base.evictions;
        self.held_hits = held.hits();
        self.ml_base = ml;
        self.el_base = el;
        self.ftl_base = ftl;
        self.cache_base = cs;
    }

    /// Hand the end-of-run metrics snapshot to the report.
    pub(crate) fn finish(
        self,
        ssd: &Ssd,
        multilog: &MultiLog,
        edgelog: &EdgeLogOptimizer,
        report: &mut RunReport,
    ) {
        report.obs = Some(self.snapshot(ssd, multilog, edgelog, report));
    }

    /// End-of-run metrics snapshot: the `mlvc_ssd_*` counters are the
    /// device's own stats delta over this run — bit-exact equality with
    /// `Ssd::stats` is the contract `tests/io_accounting.rs` pins.
    fn snapshot(
        &self,
        ssd: &Ssd,
        multilog: &MultiLog,
        edgelog: &EdgeLogOptimizer,
        report: &RunReport,
    ) -> MetricsSnapshot {
        let io = self.io_since_start(ssd);
        let ml = multilog.stats();
        let el = edgelog.stats();
        let ftl = ssd.ftl_stats().unwrap_or_default();
        let fb = &self.ftl_run_base;
        let host = ftl.host_writes - fb.host_writes;
        let physical = ftl.physical_writes - fb.physical_writes;
        let sum = |f: fn(&SuperstepStats) -> u64| report.supersteps.iter().map(f).sum::<u64>();
        let mut counters = vec![
            ("mlvc_ssd_pages_read_total", io.pages_read),
            ("mlvc_ssd_pages_written_total", io.pages_written),
            ("mlvc_ssd_bytes_read_total", io.bytes_read),
            ("mlvc_ssd_bytes_written_total", io.bytes_written),
            ("mlvc_ssd_useful_bytes_read_total", io.useful_bytes_read),
            ("mlvc_ssd_read_batches_total", io.read_batches),
            ("mlvc_ssd_write_batches_total", io.write_batches),
            ("mlvc_ssd_read_time_ns_total", io.read_time_ns),
            ("mlvc_ssd_write_time_ns_total", io.write_time_ns),
            ("mlvc_log_updates_logged_total", ml.updates_logged),
            ("mlvc_log_updates_read_total", ml.updates_read),
            ("mlvc_log_pages_flushed_total", ml.pages_flushed),
            ("mlvc_log_pages_retained_total", ml.pages_retained),
            ("mlvc_log_evictions_total", ml.evictions),
            ("mlvc_log_bytes_appended_total", ml.bytes_appended),
            ("mlvc_edgelog_vertices_logged_total", el.vertices_logged),
            ("mlvc_edgelog_pages_written_total", el.pages_written),
            ("mlvc_edgelog_hits_total", el.hits),
            ("mlvc_ftl_host_writes_total", host),
            ("mlvc_ftl_physical_writes_total", physical),
            ("mlvc_ftl_erases_total", ftl.erases - fb.erases),
            ("mlvc_ftl_gc_relocations_total", ftl.gc_relocations - fb.gc_relocations),
            ("mlvc_engine_supersteps_total", report.supersteps.len() as u64),
            ("mlvc_engine_messages_processed_total", sum(|s| s.messages_processed)),
            ("mlvc_engine_messages_sent_total", sum(|s| s.messages_sent)),
            ("mlvc_engine_edges_scanned_total", sum(|s| s.edges_scanned)),
        ];
        let mut gauges = vec![("mlvc_engine_converged", u64::from(report.converged))];
        // Page-cache counters (the daemon's shared cache, DESIGN.md §18):
        // whole-run deltas for this engine's tenant — another tenant sharing
        // the cache never leaks into this run's series.
        if let Some(c) = ssd.cache() {
            let cs = c.snapshot();
            let b = &self.cache_run_base;
            let (ct, bt) = (cs.tenant(ssd.tenant()), b.tenant(ssd.tenant()));
            counters.extend([
                ("mlvc_cache_hits_total", ct.hits - bt.hits),
                ("mlvc_cache_misses_total", ct.misses - bt.misses),
                ("mlvc_cache_bytes_saved_total", ct.bytes_saved - bt.bytes_saved),
                ("mlvc_cache_evictions_total", cs.evictions - b.evictions),
            ]);
            gauges.extend([
                ("mlvc_cache_capacity_pages", cs.capacity_pages as u64),
                ("mlvc_cache_resident_pages", cs.resident_pages as u64),
            ]);
        }
        // Amplification ratios as milli-units (gauges are integral).
        if io.useful_bytes_read > 0 {
            let milli = io.bytes_read as f64 / io.useful_bytes_read as f64 * 1000.0;
            gauges.push(("mlvc_read_amplification_milli", milli as u64));
        }
        if host > 0 {
            let milli = physical as f64 / host as f64 * 1000.0;
            gauges.push(("mlvc_ftl_write_amplification_milli", milli as u64));
        }
        let histograms = [
            ("mlvc_superstep_pages_read", HistogramSnapshot::of(
                &[4, 16, 64, 256, 1024, 4096, 16384],
                report.phases().map(|s| s.io.pages_read),
            )),
            ("mlvc_superstep_messages_sent", HistogramSnapshot::of(
                &[16, 256, 4096, 65536, 1048576],
                report.phases().map(|s| s.messages_sent),
            )),
        ];
        fn named<V>(pairs: impl IntoIterator<Item = (&'static str, V)>) -> BTreeMap<String, V> {
            pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
        }
        MetricsSnapshot {
            counters: named(counters),
            gauges: named(gauges),
            histograms: named(histograms),
        }
    }
}
