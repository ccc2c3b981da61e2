//! # mlvc-obs — observability layer for MultiLogVC
//!
//! The paper's central claims are I/O claims: MultiLogVC wins because it
//! reads only the column-index pages holding active vertices and keeps log
//! writes sequential. This crate gives the rest of the workspace the
//! vocabulary to state those claims at runtime:
//!
//! * a **lock-light metrics registry** ([`Registry`]) of named counters,
//!   gauges, and fixed-bucket histograms. Handles are cheap `Arc<AtomicU64>`
//!   clones; the registry mutex is touched only at registration and
//!   snapshot time, never on the hot increment path;
//! * a **per-superstep trace** ([`TraceRecord`], [`TraceRing`]): one
//!   fixed-size, `Copy`, all-`u64` record per superstep holding the
//!   deterministic I/O and message counters plus the derived paper-style
//!   read/write amplification. Records serialise to JSON lines
//!   ([`TraceRecord::to_json_line`], [`trace_to_jsonl`]) so runs are
//!   diffable with line-oriented tools;
//! * a [`MetricsSnapshot`] with deterministic (sorted) iteration order and
//!   Prometheus-text / JSON emitters;
//! * a tiny panic-free JSON parser ([`json`]): the serving daemon reads its
//!   request lines with it, `xtask sim-pins` the `BENCH_sim.json` pins and
//!   the benchmark's result line, and the tests the emitted traces.
//!
//! Everything is `std`-only, consistent with the workspace's
//! `mlvc-par` / `mlvc_ssd::sync` substitution, and deterministic: a
//! snapshot of the same run is byte-identical regardless of thread count
//! because only cost-model-derived and count-derived values are recorded
//! (wall-clock stage timings stay in `SuperstepStats`, outside the trace).

pub mod json;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Poison-tolerant lock: a panicked writer leaves the registry readable
/// (counters are monotone, so a torn registration is still meaningful).
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Instrument handles
// ---------------------------------------------------------------------------

/// Monotone counter. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the current value.
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket histogram over `u64` observations.
///
/// Bucket `i` counts observations `v <= bounds[i]` (first matching bound
/// wins); one implicit overflow bucket counts everything above the last
/// bound. Bounds are fixed at registration — no locking or resizing on the
/// observe path.
#[derive(Clone, Debug)]
pub struct Histogram {
    bounds: Arc<Vec<u64>>,
    buckets: Arc<Vec<AtomicU64>>,
    sum: Arc<AtomicU64>,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        let mut sorted: Vec<u64> = bounds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut buckets = Vec::with_capacity(sorted.len() + 1);
        buckets.resize_with(sorted.len() + 1, AtomicU64::default);
        Histogram {
            bounds: Arc::new(sorted),
            buckets: Arc::new(buckets),
            sum: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        if let Some(b) = self.buckets.get(idx) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Upper bounds of the finite buckets.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.as_ref().clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Instruments {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// Named-instrument registry.
///
/// `counter`/`gauge`/`histogram` get-or-register and hand back a clonable
/// handle; the internal mutex guards only the name maps, so the increment
/// path is a single relaxed atomic op. [`Registry::snapshot`] freezes every
/// instrument into a [`MetricsSnapshot`] with sorted, deterministic order.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Instruments>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut g = locked(&self.inner);
        g.counters.entry(name.to_string()).or_default().clone()
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut g = locked(&self.inner);
        g.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Get or register the histogram `name`. `bounds` are the finite bucket
    /// upper bounds (sorted and deduplicated internally); they are fixed by
    /// the first registration — later calls with different bounds get the
    /// existing instrument.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut g = locked(&self.inner);
        g.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .clone()
    }

    /// Freeze every registered instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = locked(&self.inner);
        MetricsSnapshot {
            counters: g.counters.iter().map(|(k, c)| (k.clone(), c.get())).collect(),
            gauges: g.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: g
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// Frozen histogram state inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; `buckets.len() == bounds.len() + 1`
    /// (the last entry is the overflow bucket).
    pub buckets: Vec<u64>,
    /// Sum of all observations.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// Point-in-time freeze of a [`Registry`], with deterministic (sorted)
/// iteration order so two snapshots of equal state serialise identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value by name, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Gauge value by name, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Prometheus text exposition format (counters, gauges, and classic
    /// histogram series with cumulative `_bucket{le=...}` lines).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cum = 0u64;
            for (bound, n) in h.bounds.iter().zip(h.buckets.iter()) {
                cum += n;
                let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cum}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        out
    }

    /// Prometheus text exposition with a `job` label on every series —
    /// how the serving daemon distinguishes per-job registries inside one
    /// daemon-wide scrape. The label value is escaped per the exposition
    /// format (backslash, double-quote, newline).
    pub fn to_prometheus_labeled(&self, job: &str) -> String {
        let esc: String = job
            .chars()
            .flat_map(|c| match c {
                '\\' => vec!['\\', '\\'],
                '"' => vec!['\\', '"'],
                '\n' => vec!['\\', 'n'],
                c => vec![c],
            })
            .collect();
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name}{{job=\"{esc}\"}} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name}{{job=\"{esc}\"}} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cum = 0u64;
            for (bound, n) in h.bounds.iter().zip(h.buckets.iter()) {
                cum += n;
                let _ = writeln!(out, "{name}_bucket{{job=\"{esc}\",le=\"{bound}\"}} {cum}");
            }
            let _ = writeln!(out, "{name}_bucket{{job=\"{esc}\",le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{name}_sum{{job=\"{esc}\"}} {}", h.sum);
            let _ = writeln!(out, "{name}_count{{job=\"{esc}\"}} {}", h.count());
        }
        out
    }

    /// Hand-rolled JSON object (the workspace is dependency-free). Key order
    /// is the sorted map order, so equal snapshots produce equal bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (k, (name, v)) in self.counters.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (k, (name, v)) in self.gauges.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (k, (name, h)) in self.histograms.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{{\"bounds\":[");
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("],\"buckets\":[");
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            let _ = write!(out, "],\"sum\":{},\"count\":{}}}", h.sum, h.count());
        }
        out.push_str("}}");
        out
    }
}

// ---------------------------------------------------------------------------
// Per-superstep trace
// ---------------------------------------------------------------------------

/// One superstep's deterministic observability record.
///
/// Every field is a `u64` count or a cost-model-derived time; none depends
/// on thread scheduling, so traces of the same run are **bit-identical for
/// any `MLVC_THREADS`** (DESIGN.md §13). Superstep 0 is the seeding phase
/// (initial activations written into the multi-log before the first BSP
/// superstep); supersteps 1.. mirror `RunReport::supersteps`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceRecord {
    /// 0 for the seed phase, then 1-based superstep number.
    pub superstep: u64,
    /// Vertices active at the start of the superstep.
    pub active_vertices: u64,
    /// Vertices handed to the vertex program.
    pub messages_processed: u64,
    /// Updates delivered to inboxes (post-combine).
    pub messages_delivered: u64,
    /// Updates emitted by the vertex program.
    pub messages_sent: u64,
    /// Adjacency entries scanned.
    pub edges_scanned: u64,
    /// Fused interval batches formed by the sort & group unit.
    pub fused_batches: u64,
    /// Device pages read.
    pub pages_read: u64,
    /// Device pages written.
    pub pages_written: u64,
    /// Device bytes read (page-granular).
    pub bytes_read: u64,
    /// Bytes of the read pages the caller declared useful.
    pub useful_bytes_read: u64,
    /// Device bytes written.
    pub bytes_written: u64,
    /// Multi-log update-record bytes appended across all intervals.
    pub log_bytes_appended: u64,
    /// Multi-log pages flushed.
    pub log_pages_flushed: u64,
    /// Multi-log buffer-pressure evictions.
    pub log_evictions: u64,
    /// Edge lists copied into the sequential edge log.
    pub edge_log_vertices: u64,
    /// Edge-log pages written.
    pub edge_log_pages: u64,
    /// Adjacency reads served from the edge log.
    pub edge_log_hits: u64,
    /// Host page writes seen by the FTL model.
    pub ftl_host_writes: u64,
    /// Physical page writes issued by the FTL (host + GC relocations).
    pub ftl_physical_writes: u64,
    /// Blocks erased by the FTL.
    pub ftl_erases: u64,
    /// Live pages relocated by garbage collection.
    pub ftl_gc_relocations: u64,
    /// Simulated time: device I/O plus cost-model compute.
    pub sim_time_ns: u64,
    /// Simulated nanoseconds the engine spent blocked on the I/O queue
    /// (submission stalls at full queue depth plus completion waits).
    /// Unlike the counters above this is a matter of timing — how much
    /// of the queue's service compute hid — but not of thread count.
    pub io_wait_ns: u64,
    /// High-water mark of concurrently outstanding I/O tickets.
    pub max_inflight: u64,
    /// Edge additions + removals merged from the mutation log into the
    /// stored CSR at this superstep's boundary (DESIGN.md §17).
    pub mut_edges_merged: u64,
    /// CSR interval partitions rewritten by that merge.
    pub mut_intervals_merged: u64,
    /// Distinct vertices whose adjacency or reachability the merge dirtied
    /// (the incremental re-activation set).
    pub mut_dirty_vertices: u64,
    /// Page-cache hits this tenant scored this superstep (0 with tiering
    /// disabled; DESIGN.md §18).
    pub cache_hits: u64,
    /// Page-cache misses this tenant charged to the device this superstep.
    pub cache_misses: u64,
    /// Frames reclaimed by the cache's replacement policy this superstep.
    pub cache_evictions: u64,
    /// Pages held in the pinned tier at superstep close (a gauge, not a
    /// delta — pins persist across supersteps).
    pub pinned_pages: u64,
    /// Hits served from the pinned tier this superstep (also counted in
    /// `cache_hits`).
    pub pinned_hits: u64,
}

/// Names of the `u64` fields of [`TraceRecord`], in emission order — the
/// JSONL schema contract checked by the smoke tests.
pub const TRACE_FIELDS: [&str; 33] = [
    "superstep",
    "active_vertices",
    "messages_processed",
    "messages_delivered",
    "messages_sent",
    "edges_scanned",
    "fused_batches",
    "pages_read",
    "pages_written",
    "bytes_read",
    "useful_bytes_read",
    "bytes_written",
    "log_bytes_appended",
    "log_pages_flushed",
    "log_evictions",
    "edge_log_vertices",
    "edge_log_pages",
    "edge_log_hits",
    "ftl_host_writes",
    "ftl_physical_writes",
    "ftl_erases",
    "ftl_gc_relocations",
    "sim_time_ns",
    "io_wait_ns",
    "max_inflight",
    "mut_edges_merged",
    "mut_intervals_merged",
    "mut_dirty_vertices",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "pinned_pages",
    "pinned_hits",
];

impl TraceRecord {
    /// `(name, value)` pairs in [`TRACE_FIELDS`] order.
    pub fn fields(&self) -> [(&'static str, u64); 33] {
        [
            ("superstep", self.superstep),
            ("active_vertices", self.active_vertices),
            ("messages_processed", self.messages_processed),
            ("messages_delivered", self.messages_delivered),
            ("messages_sent", self.messages_sent),
            ("edges_scanned", self.edges_scanned),
            ("fused_batches", self.fused_batches),
            ("pages_read", self.pages_read),
            ("pages_written", self.pages_written),
            ("bytes_read", self.bytes_read),
            ("useful_bytes_read", self.useful_bytes_read),
            ("bytes_written", self.bytes_written),
            ("log_bytes_appended", self.log_bytes_appended),
            ("log_pages_flushed", self.log_pages_flushed),
            ("log_evictions", self.log_evictions),
            ("edge_log_vertices", self.edge_log_vertices),
            ("edge_log_pages", self.edge_log_pages),
            ("edge_log_hits", self.edge_log_hits),
            ("ftl_host_writes", self.ftl_host_writes),
            ("ftl_physical_writes", self.ftl_physical_writes),
            ("ftl_erases", self.ftl_erases),
            ("ftl_gc_relocations", self.ftl_gc_relocations),
            ("sim_time_ns", self.sim_time_ns),
            ("io_wait_ns", self.io_wait_ns),
            ("max_inflight", self.max_inflight),
            ("mut_edges_merged", self.mut_edges_merged),
            ("mut_intervals_merged", self.mut_intervals_merged),
            ("mut_dirty_vertices", self.mut_dirty_vertices),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cache_evictions", self.cache_evictions),
            ("pinned_pages", self.pinned_pages),
            ("pinned_hits", self.pinned_hits),
        ]
    }

    /// Paper-style read amplification: total bytes read / useful bytes
    /// read. `None` before anything useful was read.
    pub fn read_amplification(&self) -> Option<f64> {
        if self.useful_bytes_read == 0 {
            None
        } else {
            Some(self.bytes_read as f64 / self.useful_bytes_read as f64)
        }
    }

    /// Flash write amplification from the FTL model: physical / host page
    /// writes. `None` before any host write (or with the FTL disabled).
    pub fn write_amplification(&self) -> Option<f64> {
        if self.ftl_host_writes == 0 {
            None
        } else {
            Some(self.ftl_physical_writes as f64 / self.ftl_host_writes as f64)
        }
    }

    /// One JSON object on one line: every [`TRACE_FIELDS`] entry plus the
    /// two derived amplification ratios (`null` until defined).
    pub fn to_json_line(&self) -> String {
        let mut out = String::from("{");
        for (name, v) in self.fields() {
            let _ = write!(out, "\"{name}\":{v},");
        }
        push_ratio(&mut out, "read_amplification", self.read_amplification());
        out.push(',');
        push_ratio(&mut out, "write_amplification", self.write_amplification());
        out.push('}');
        out
    }

}

fn push_ratio(out: &mut String, name: &str, v: Option<f64>) {
    match v {
        Some(x) => {
            let _ = write!(out, "\"{name}\":{x:.6}");
        }
        None => {
            let _ = write!(out, "\"{name}\":null");
        }
    }
}

/// Serialise a trace as JSON lines (one [`TraceRecord`] per line).
pub fn trace_to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json_line());
        out.push('\n');
    }
    out
}

/// Quote `s` as a JSON string literal (including the surrounding quotes),
/// escaping the characters JSON requires. Public so emitters elsewhere in
/// the workspace produce strings the [`json`] parser round-trips.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Bounded per-superstep trace buffer.
///
/// Keeps the most recent `capacity` records, overwriting the oldest when
/// full — the engine can trace arbitrarily long runs in O(capacity) memory.
#[derive(Debug, Clone)]
pub struct TraceRing {
    cap: usize,
    buf: Vec<TraceRecord>,
    head: usize,
    dropped: u64,
}

impl TraceRing {
    /// A ring holding at most `capacity` records (capacity 0 keeps one).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        TraceRing { cap, buf: Vec::new(), head: 0, dropped: 0 }
    }

    /// Append, overwriting the oldest record when full.
    pub fn push(&mut self, rec: TraceRecord) {
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else if let Some(slot) = self.buf.get_mut(self.head) {
            *slot = rec;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Records in arrival order, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum records held.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Records overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("mlvc_pages_read_total");
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        // Same name → same cell.
        let c2 = reg.counter("mlvc_pages_read_total");
        c2.inc();
        assert_eq!(c.get(), 43);
        let g = reg.gauge("mlvc_converged");
        g.set(7);
        g.set(1);
        assert_eq!(reg.gauge("mlvc_converged").get(), 1);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let reg = Registry::new();
        let h = reg.histogram("mlvc_step_pages", &[4, 16, 1]);
        assert_eq!(h.bounds(), &[1, 4, 16]); // sorted + deduped
        for v in [0, 1, 2, 5, 16, 17, 1000] {
            h.observe(v);
        }
        let s = reg.snapshot();
        let hs = &s.histograms["mlvc_step_pages"];
        assert_eq!(hs.buckets, vec![2, 1, 2, 2]);
        assert_eq!(hs.count(), 7);
        assert_eq!(hs.sum, 1041);
        // Re-registration with different bounds keeps the original.
        let h2 = reg.histogram("mlvc_step_pages", &[99]);
        assert_eq!(h2.bounds(), &[1, 4, 16]);
    }

    #[test]
    fn snapshot_is_deterministic_and_equal() {
        let mk = || {
            let reg = Registry::new();
            reg.counter("b_total").add(2);
            reg.counter("a_total").add(1);
            reg.gauge("z").set(9);
            reg.histogram("h", &[10]).observe(3);
            reg.snapshot()
        };
        let (s1, s2) = (mk(), mk());
        assert_eq!(s1, s2);
        assert_eq!(s1.to_json(), s2.to_json());
        assert_eq!(s1.to_prometheus(), s2.to_prometheus());
        // Sorted order regardless of registration order.
        let names: Vec<&str> = s1.counters.keys().map(String::as_str).collect();
        assert_eq!(names, vec!["a_total", "b_total"]);
        assert_eq!(s1.counter("a_total"), Some(1));
        assert_eq!(s1.counter("missing"), None);
    }

    #[test]
    fn prometheus_text_shape() {
        let reg = Registry::new();
        reg.counter("mlvc_reads_total").add(5);
        reg.gauge("mlvc_up").set(1);
        let h = reg.histogram("mlvc_lat", &[1, 2]);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE mlvc_reads_total counter\nmlvc_reads_total 5\n"));
        assert!(text.contains("# TYPE mlvc_up gauge\nmlvc_up 1\n"));
        assert!(text.contains("mlvc_lat_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("mlvc_lat_bucket{le=\"2\"} 2\n"));
        assert!(text.contains("mlvc_lat_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("mlvc_lat_sum 6\n"));
        assert!(text.contains("mlvc_lat_count 3\n"));
    }

    #[test]
    fn snapshot_json_parses_back() {
        let reg = Registry::new();
        reg.counter("c_total").add(3);
        reg.gauge("g").set(4);
        reg.histogram("h", &[1, 8]).observe(5);
        let s = reg.snapshot();
        let v = json::parse(&s.to_json()).expect("snapshot JSON must parse");
        let c = v.get("counters").and_then(|c| c.get("c_total"));
        assert_eq!(c.and_then(json::Json::as_num), Some(3.0));
        let h = v.get("histograms").and_then(|h| h.get("h")).expect("h");
        assert_eq!(h.get("sum").and_then(json::Json::as_num), Some(5.0));
        assert_eq!(h.get("count").and_then(json::Json::as_num), Some(1.0));
    }

    #[test]
    fn trace_record_amplification_and_json() {
        let mut r = TraceRecord { superstep: 3, ..TraceRecord::default() };
        assert_eq!(r.read_amplification(), None);
        assert_eq!(r.write_amplification(), None);
        r.bytes_read = 300;
        r.useful_bytes_read = 100;
        r.ftl_host_writes = 10;
        r.ftl_physical_writes = 25;
        assert_eq!(r.read_amplification(), Some(3.0));
        assert_eq!(r.write_amplification(), Some(2.5));
        let line = r.to_json_line();
        let v = json::parse(&line).expect("trace line must parse");
        for name in TRACE_FIELDS {
            assert!(v.get(name).is_some(), "missing field {name}");
        }
        assert_eq!(v.get("superstep").and_then(json::Json::as_num), Some(3.0));
        assert_eq!(
            v.get("read_amplification").and_then(json::Json::as_num),
            Some(3.0)
        );
        // fields() stays in schema order.
        let names: Vec<&str> = r.fields().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, TRACE_FIELDS.to_vec());
    }

    #[test]
    fn jsonl_one_line_per_record() {
        let recs = vec![
            TraceRecord { superstep: 0, ..TraceRecord::default() },
            TraceRecord { superstep: 1, ..TraceRecord::default() },
        ];
        let text = trace_to_jsonl(&recs);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (k, line) in lines.iter().enumerate() {
            let v = json::parse(line).expect("line parses");
            assert_eq!(v.get("superstep").and_then(json::Json::as_num), Some(k as f64));
        }
    }

    #[test]
    fn trace_ring_overwrites_oldest() {
        let mut ring = TraceRing::new(3);
        assert!(ring.is_empty());
        for step in 0..5u64 {
            ring.push(TraceRecord { superstep: step, ..TraceRecord::default() });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
        assert_eq!(ring.dropped(), 2);
        let steps: Vec<u64> = ring.records().iter().map(|r| r.superstep).collect();
        assert_eq!(steps, vec![2, 3, 4]);
    }

    #[test]
    fn trace_ring_zero_capacity_keeps_one() {
        let mut ring = TraceRing::new(0);
        ring.push(TraceRecord::default());
        ring.push(TraceRecord { superstep: 1, ..TraceRecord::default() });
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.records()[0].superstep, 1);
    }

    #[test]
    fn json_escape_round_trips_through_the_parser() {
        for s in ["plain", "with \"quotes\"", "back\\slash", "line\nbreak", "tab\there", "\u{1}"] {
            let quoted = json_escape(s);
            let v = json::parse(&quoted).expect("escaped string parses");
            assert_eq!(v.as_str(), Some(s), "round trip of {s:?}");
        }
    }

    #[test]
    fn labeled_prometheus_attaches_job_to_every_series() {
        let reg = Registry::new();
        reg.counter("mlvc_test_total").add(3);
        reg.gauge("mlvc_test_gauge").set(9);
        reg.histogram("mlvc_test_hist", &[10, 100]).observe(42);
        let text = reg.snapshot().to_prometheus_labeled("job \"x\"\n");
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(line.contains("job=\"job \\\"x\\\"\\n\""), "unlabeled series: {line}");
        }
        assert!(text.contains("mlvc_test_total{job="));
        assert!(text.contains("le=\"+Inf\""));
    }
}
