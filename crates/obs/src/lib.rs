//! # mlvc-obs — observability layer for MultiLogVC
//!
//! The paper's central claims are I/O claims: MultiLogVC wins because it
//! reads only the column-index pages holding active vertices and keeps log
//! writes sequential. This crate gives the rest of the workspace the
//! vocabulary to state those claims at runtime:
//!
//! * a **per-superstep trace** ([`TraceRecord`]): one fixed-size, `Copy`,
//!   all-`u64` record per superstep holding the deterministic I/O and
//!   message counters plus the derived paper-style read/write
//!   amplification. Records serialise to JSON lines
//!   ([`TraceRecord::to_json_line`], [`trace_to_jsonl`]) so runs are
//!   diffable with line-oriented tools;
//! * a [`MetricsSnapshot`] of a run's counters, gauges and fixed-bucket
//!   histograms ([`HistogramSnapshot::of`]), built once at the end of the
//!   run, with deterministic (sorted) iteration order, and the one
//!   Prometheus-text writer ([`to_prometheus`]) for one run or many jobs;
//! * a tiny panic-free JSON parser ([`json`]): the serving daemon reads its
//!   request lines with it, `xtask sim-pins` the `BENCH_sim.json` pins and
//!   the benchmark's result line, and the tests the emitted traces.
//!
//! Everything is `std`-only and deterministic: a snapshot of the same run
//! is byte-identical regardless of thread count because only
//! cost-model-derived and count-derived values are recorded (wall-clock
//! stage timings stay in `SuperstepStats`, outside the trace).

pub mod json;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Frozen fixed-bucket histogram inside a [`MetricsSnapshot`].
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
    /// Bucket `values` under `bounds` (sorted and deduplicated here):
    /// bucket `i` counts the values `v <= bounds[i]` the earlier buckets
    /// did not take, and one overflow bucket counts the rest.
    pub fn of(bounds: &[u64], values: impl IntoIterator<Item = u64>) -> Self {
        let mut bounds = bounds.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        let mut buckets = vec![0; bounds.len() + 1];
        let mut sum = 0;
        for v in values {
            buckets[bounds.partition_point(|&b| b < v)] += 1;
            sum += v;
        }
        HistogramSnapshot { bounds, buckets, sum }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// A run's end-of-run metrics, built once, with deterministic (sorted)
/// iteration order so two snapshots of equal state serialise identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value by name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }
}

/// The counters or the gauges of a snapshot.
type Scalars = fn(&MetricsSnapshot) -> &BTreeMap<String, u64>;

/// Prometheus text exposition of one or more snapshots: counters, gauges,
/// then classic histogram series with cumulative `_bucket{le=...}` lines.
/// A snapshot paired with `Some(job)` carries a `job` label on every
/// series (escaped per the exposition format: backslash, double-quote,
/// newline); one paired with `None` carries none. Each family gets one
/// `# TYPE` line followed by the samples of every snapshot that has it, in
/// the order given — the grouping the text format requires of a
/// multi-job scrape.
pub fn to_prometheus(snaps: &[(Option<&str>, &MetricsSnapshot)]) -> String {
    let labels: Vec<String> = snaps
        .iter()
        .map(|(job, _)| job.map_or_else(String::new, |j| format!("job=\"{}\"", escape_label(j))))
        .collect();
    let jobs = || snaps.iter().map(|(_, s)| *s).zip(&labels);
    let mut out = String::new();
    let scalars: [(&str, Scalars); 2] = [("counter", |s| &s.counters), ("gauge", |s| &s.gauges)];
    for (kind, map) in scalars {
        let names: BTreeSet<&String> = snaps.iter().flat_map(|(_, s)| map(s).keys()).collect();
        for name in names {
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (s, label) in jobs() {
                if let Some(v) = map(s).get(name) {
                    let _ = writeln!(out, "{} {v}", series(name, "", label, ""));
                }
            }
        }
    }
    let names: BTreeSet<&String> = snaps.iter().flat_map(|(_, s)| s.histograms.keys()).collect();
    for name in names {
        let _ = writeln!(out, "# TYPE {name} histogram");
        for (s, label) in jobs() {
            let Some(h) = s.histograms.get(name) else { continue };
            let mut cum = 0u64;
            for (bound, n) in h.bounds.iter().zip(&h.buckets) {
                cum += n;
                let le = format!("le=\"{bound}\"");
                let _ = writeln!(out, "{} {cum}", series(name, "_bucket", label, &le));
            }
            let _ = writeln!(out, "{} {}", series(name, "_bucket", label, "le=\"+Inf\""), h.count());
            let _ = writeln!(out, "{} {}", series(name, "_sum", label, ""), h.sum);
            let _ = writeln!(out, "{} {}", series(name, "_count", label, ""), h.count());
        }
    }
    out
}

/// `name{label,extra}`, without the braces when there is no label.
fn series(name: &str, suffix: &str, label: &str, extra: &str) -> String {
    match (label.is_empty(), extra.is_empty()) {
        (true, true) => format!("{name}{suffix}"),
        (false, false) => format!("{name}{suffix}{{{label},{extra}}}"),
        _ => format!("{name}{suffix}{{{label}{extra}}}"),
    }
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
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
    /// Edge additions + removals the running program's own structural
    /// updates merged into the stored CSR at this superstep's close-out
    /// (DESIGN.md §17).
    pub mut_edges_merged: u64,
    /// CSR interval partitions rewritten by that merge.
    pub mut_intervals_merged: u64,
    /// Distinct endpoints of the edges that merge changed (what the edge
    /// log and the pinned tier drop).
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter, a gauge and a three-observation histogram, each named
    /// `{prefix}_…`.
    fn sample(prefix: &str, n: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: BTreeMap::from([(format!("{prefix}_reads_total"), n)]),
            gauges: BTreeMap::from([(format!("{prefix}_up"), 1)]),
            histograms: BTreeMap::from([(
                format!("{prefix}_lat"),
                HistogramSnapshot::of(&[1, 2], [1, 2, 3]),
            )]),
        }
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = HistogramSnapshot::of(&[4, 16, 1], [0, 1, 2, 5, 16, 17, 1000]);
        assert_eq!(h.bounds, vec![1, 4, 16]); // sorted + deduped
        assert_eq!(h.buckets, vec![2, 1, 2, 2]);
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum, 1041);
        let empty = HistogramSnapshot::of(&[8], []);
        assert_eq!((empty.buckets, empty.sum), (vec![0, 0], 0));
    }

    #[test]
    fn prometheus_text_shape() {
        let snap = sample("mlvc", 5);
        let text = to_prometheus(&[(None, &snap)]);
        assert_eq!(
            text,
            "# TYPE mlvc_reads_total counter\nmlvc_reads_total 5\n\
             # TYPE mlvc_up gauge\nmlvc_up 1\n\
             # TYPE mlvc_lat histogram\n\
             mlvc_lat_bucket{le=\"1\"} 1\n\
             mlvc_lat_bucket{le=\"2\"} 2\n\
             mlvc_lat_bucket{le=\"+Inf\"} 3\n\
             mlvc_lat_sum 6\n\
             mlvc_lat_count 3\n"
        );
        assert_eq!(snap.counter("mlvc_reads_total"), Some(5));
        assert_eq!(snap.counter("missing"), None);
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
    fn json_escape_round_trips_through_the_parser() {
        for s in ["plain", "with \"quotes\"", "back\\slash", "line\nbreak", "tab\there", "\u{1}"] {
            let quoted = json_escape(s);
            let v = json::parse(&quoted).expect("escaped string parses");
            assert_eq!(v.as_str(), Some(s), "round trip of {s:?}");
        }
    }

    #[test]
    fn labeled_prometheus_attaches_job_to_every_series() {
        let snap = sample("mlvc_test", 3);
        let text = to_prometheus(&[(Some("job \"x\"\n"), &snap)]);
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(line.contains("job=\"job \\\"x\\\"\\n\""), "unlabeled series: {line}");
        }
        assert!(text.contains("mlvc_test_reads_total{job="));
        assert!(text.contains("mlvc_test_lat_bucket{job=\"job \\\"x\\\"\\n\",le=\"+Inf\"} 3\n"));
    }

    /// Several jobs in one exposition: one `# TYPE` line per family, then
    /// that family's samples from every job that has it, in job order.
    #[test]
    fn jobs_share_one_type_line_per_family() {
        let (a, b, c) = (sample("mlvc", 1), sample("mlvc", 2), sample("mlvc_only_c", 3));
        let text = to_prometheus(&[(Some("a"), &a), (Some("b"), &b), (Some("c"), &c)]);
        assert_eq!(text.matches("# TYPE mlvc_reads_total counter\n").count(), 1);
        assert!(text.starts_with(
            "# TYPE mlvc_only_c_reads_total counter\n\
             mlvc_only_c_reads_total{job=\"c\"} 3\n\
             # TYPE mlvc_reads_total counter\n\
             mlvc_reads_total{job=\"a\"} 1\n\
             mlvc_reads_total{job=\"b\"} 2\n"
        ));
        assert!(text.contains(
            "mlvc_lat_count{job=\"a\"} 3\n\
             mlvc_lat_bucket{job=\"b\",le=\"1\"} 1\n"
        ));
        let types = text.lines().filter(|l| l.starts_with("# TYPE")).count();
        assert_eq!(types, 6, "three families of two distinct prefixes:\n{text}");
    }
}
