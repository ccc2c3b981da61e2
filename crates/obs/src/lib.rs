//! # mlvc-obs — observability layer for MultiLogVC
//!
//! The paper's central claims are I/O claims: MultiLogVC wins because it
//! reads only the column-index pages holding active vertices and keeps log
//! writes sequential. This crate gives the rest of the workspace the
//! vocabulary to state those claims at runtime:
//!
//! * a [`MetricsSnapshot`] of a run's counters, gauges and fixed-bucket
//!   histograms ([`HistogramSnapshot::of`]), built once at the end of the
//!   run, with deterministic (sorted) iteration order, and the one
//!   Prometheus-text writer ([`to_prometheus`]) for one run or many jobs;
//! * a tiny panic-free JSON parser ([`json`]): the serving daemon reads its
//!   request lines with it, `xtask sim-pins` the `BENCH_sim.json` pins and
//!   the benchmark's result line, and the tests the emitted traces.
//!
//! The per-superstep trace rows are the engine's own
//! `mlvc_core::SuperstepStats`; `RunReport::trace_jsonl` writes them.
//!
//! Everything is `std`-only and deterministic: a snapshot of the same run
//! is byte-identical regardless of thread count because only
//! cost-model-derived and count-derived values are recorded.

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
