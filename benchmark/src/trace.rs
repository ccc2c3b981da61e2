//! Span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each layer; nothing inside the program is instrumented. They are kept
//! in memory and written once, when the benchmark ends. A disabled
//! recorder records nothing, which is what "tracing off" means for the
//! end-to-end pass.

use std::collections::BTreeMap;
use std::time::Instant;

use multilogvc::core::RunReport;
use multilogvc::obs::json_escape;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one job share this identifier.
    pub job: u64,
    /// True for rows synthesised from counters the program returned
    /// (`RunReport::supersteps`) instead of clocked around a call.
    pub synth: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Pause or resume recording; the traced pass turns spans off for
    /// every other job to measure what recording them costs.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open one. Returns `None` when the
    /// recorder is off.
    pub fn begin(&mut self, name: &'static str, job: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.ns_of(Instant::now());
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            job,
            synth: false,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Close the span `begin` returned (and anything left open inside it)
    /// and return its duration in ms; 0 when the recorder is off.
    pub fn end(&mut self, id: Option<SpanId>) -> f64 {
        let Some(id) = id else { return 0.0 };
        let now = self.ns_of(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        self.spans[id].dur_ns() as f64 / 1e6
    }

    /// Record a finished span with explicit bounds — for spans that
    /// overlap instead of nesting (concurrent requests) and for
    /// synthesised rows.
    pub fn add(
        &mut self,
        name: &'static str,
        job: u64,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
        synth: bool,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            job,
            synth,
        });
        Some(self.spans.len() - 1)
    }

    /// Per-superstep rows under a `core.run` span, synthesised from what
    /// the engine already returns: one `core.superstep` row per
    /// `SuperstepStats` (its `wall_ns`), each with the four stage timers as
    /// children. Supersteps are laid end to end, finishing where the run
    /// span finishes — what precedes them is the engine's seeding. Stage
    /// rows are laid end to end from their superstep's start; with batch
    /// prefetch the stages overlap, so their sum can pass the superstep's
    /// wall and self time clamps at zero.
    pub fn add_supersteps(&mut self, run: Option<SpanId>, report: &RunReport) {
        let Some(run) = run else { return };
        let (job, run_end) = (self.spans[run].job, self.spans[run].end_ns);
        let total: u64 = report.supersteps.iter().map(|s| s.wall_ns).sum();
        let mut at = run_end.saturating_sub(total);
        for s in &report.supersteps {
            let step = self.add("core.superstep", job, Some(run), at, at + s.wall_ns, true);
            let mut stage_at = at;
            for (name, ns) in [
                ("core.load", s.load_ns),
                ("core.sort", s.sort_ns),
                ("core.process", s.process_ns),
                ("core.scatter", s.scatter_ns),
            ] {
                self.add(name, job, step, stage_at, stage_at + ns, true);
                stage_at += ns;
            }
            at += s.wall_ns;
        }
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover (children clipped to the
    /// parent, overlaps between children counted once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let (lo, hi) = (self.spans[p].start_ns, self.spans[p].end_ns);
                let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
                if b > a {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    if b > reach {
                        covered += b - a.max(reach);
                        reach = b;
                    }
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name: (spans, total ns, self ns).
    pub fn by_name(&self) -> BTreeMap<&'static str, (usize, u64, u64)> {
        let mut out: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += own;
        }
        out
    }

    /// The whole trace as one JSON document; `header` is a JSON object
    /// (the environment header) embedded verbatim.
    pub fn to_json(&self, header: &str) -> String {
        let own = self.self_times();
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str("{\"env\":");
        out.push_str(header);
        out.push_str(",\"spans\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":{},\"job\":{},\"parent\":{parent},\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{},\"synth\":{}}}",
                json_escape(s.name),
                s.job,
                s.start_ns,
                s.end_ns,
                own[id],
                s.synth
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multilogvc::core::SuperstepStats;
    use multilogvc::obs::json;

    fn tracer_with(spans: &[(&'static str, Option<SpanId>, u64, u64)]) -> Tracer {
        let mut t = Tracer::new(true);
        for &(name, parent, a, b) in spans {
            t.add(name, 1, parent, a, b, false);
        }
        t
    }

    #[test]
    fn self_time_is_span_minus_what_children_cover() {
        let t = tracer_with(&[
            ("job", None, 0, 100),
            ("a", Some(0), 10, 40),
            ("b", Some(0), 30, 60),  // overlaps a: union covers 10..60
            ("c", Some(0), 90, 130), // clipped to the parent: 90..100
            ("leaf", Some(1), 10, 15),
        ]);
        assert_eq!(t.self_times(), vec![100 - 50 - 10, 30 - 5, 30, 40, 5]);
    }

    #[test]
    fn children_longer_than_parent_clamp_self_time_at_zero() {
        let t = tracer_with(&[
            ("step", None, 0, 10),
            ("load", Some(0), 0, 8),
            ("sort", Some(0), 8, 25),
        ]);
        assert_eq!(t.self_times()[0], 0);
    }

    #[test]
    fn begin_end_nest_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let job = t.begin("job", 7);
        let inner = t.begin("inner", 7);
        t.end(inner);
        t.end(job);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        t.set_enabled(false);
        let id = t.begin("job", 8);
        assert_eq!(t.end(id), 0.0);
        t.add("x", 8, None, 0, 1, false);
        assert!(t.spans().len() == 2 && id.is_none());
    }

    #[test]
    fn superstep_rows_come_from_the_run_report() {
        let step = |wall, load, scatter| SuperstepStats {
            wall_ns: wall,
            load_ns: load,
            scatter_ns: scatter,
            ..Default::default()
        };
        let report = RunReport {
            supersteps: vec![step(40, 10, 20), step(50, 5, 5)],
            ..Default::default()
        };
        let mut t = Tracer::new(true);
        let run = t.add("core.run", 3, None, 0, 100, false);
        t.add_supersteps(run, &report);
        let steps: Vec<&Span> = t
            .spans()
            .iter()
            .filter(|s| s.name == "core.superstep")
            .collect();
        assert_eq!(steps.len(), 2);
        assert_eq!((steps[0].start_ns, steps[0].end_ns), (10, 50));
        assert_eq!((steps[1].start_ns, steps[1].end_ns), (50, 100));
        assert!(steps
            .iter()
            .all(|s| s.synth && s.parent == run && s.job == 3));
        let by = t.by_name();
        assert_eq!(by["core.scatter"], (2, 25, 25));
        assert_eq!(
            by["core.run"].2, 10,
            "seeding is what the supersteps leave uncovered"
        );
        assert_eq!(by["core.superstep"].2, (40 - 30) + (50 - 10));
    }

    #[test]
    fn trace_json_parses_back() {
        let t = tracer_with(&[("job", None, 0, 100), ("a", Some(0), 10, 40)]);
        let doc = json::parse(&t.to_json("{\"seed\":42}")).expect("trace.json parses");
        assert_eq!(
            doc.get("env")
                .and_then(|e| e.get("seed"))
                .and_then(|v| v.as_num()),
            Some(42.0)
        );
        let spans = doc
            .get("spans")
            .and_then(|s| s.as_arr())
            .expect("spans array");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(|v| v.as_num()), Some(0.0));
        assert!(spans[0].get("parent").is_some_and(|v| v.is_null()));
        assert_eq!(spans[0].get("self_ns").and_then(|v| v.as_num()), Some(70.0));
    }
}
