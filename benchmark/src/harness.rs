//! What every workload shares: the run context, the closed-loop clock,
//! the sample ledger, and the layer metrics read off the counters an
//! engine run returns.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use multilogvc::core::RunReport;
use multilogvc::ssd::{CacheSnapshot, SsdStatsSnapshot};

use crate::calibrate::Probe;
use crate::inputs::Sizes;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, Summary, TAIL_SAMPLES};
use crate::trace::Tracer;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// How long a closed loop keeps issuing jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reps {
    /// Until this many seconds have passed (and the loop's minimum job
    /// count is met) — `--seconds`.
    Seconds(f64),
    /// Exactly this many jobs — `--smoke`.
    Jobs(usize),
}

pub struct Ctx {
    pub seed: u64,
    pub sizes: Sizes,
    pub reps: Reps,
    /// Hardware threads; batch workloads pin the engine to this many.
    pub nproc: usize,
    /// Scratch and result files go here (inside the checkout).
    pub out_dir: PathBuf,
    /// The traced pass gives the per-layer numbers; end-to-end metrics
    /// come from the pass with tracing off.
    pub traced: bool,
    /// Records only on the traced pass.
    pub tracer: Tracer,
    /// Job identifiers for spans, unique across workloads of one pass.
    pub next_job: u64,
    /// The calibration kernel every timed stretch is bracketed by.
    pub probe: Probe,
}

impl Ctx {
    pub fn job_id(&mut self) -> u64 {
        self.next_job += 1;
        self.next_job
    }

    /// A clock for one closed loop given `share` of the run's time.
    pub fn clock(&self, share: f64, min_jobs: usize) -> Clock {
        let reps = match self.reps {
            Reps::Seconds(s) => Reps::Seconds(s * share),
            jobs => jobs,
        };
        Clock::new(reps, min_jobs)
    }
}

pub struct Clock {
    start: Instant,
    reps: Reps,
    min_jobs: usize,
}

impl Clock {
    pub fn new(reps: Reps, min_jobs: usize) -> Clock {
        Clock {
            start: Instant::now(),
            reps,
            min_jobs,
        }
    }

    /// Whether the loop should start another job after `done` of them.
    pub fn more(&self, done: usize) -> bool {
        match self.reps {
            Reps::Seconds(s) => done < self.min_jobs || self.start.elapsed().as_secs_f64() < s,
            Reps::Jobs(n) => done < n,
        }
    }
}

pub fn secs(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `num / den`, reading 0 when there was nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over the state words: equal fingerprints across jobs stand in
/// for comparing every job's states in full.
pub fn fingerprint(states: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in states {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-job samples by metric name; summarised once the loop is over.
#[derive(Default)]
pub struct Ledger {
    samples: BTreeMap<&'static str, Vec<f64>>,
    singles: BTreeMap<&'static str, Summary>,
}

impl Ledger {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// A value that is not a median over jobs (a ratio of medians, a
    /// session total per job); `n` says how many samples stand behind it.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        self.singles.insert(name, Summary::single(value, n));
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn summary(&self, name: &str) -> Summary {
        match self.singles.get(name) {
            Some(s) => *s,
            None => Summary::of(self.samples(name)),
        }
    }

    /// Every per-layer metric by name; one the workload does not exercise
    /// reads 0 with a sample count of 0.
    pub fn per_layer(&self) -> BTreeMap<&'static str, Summary> {
        PER_LAYER
            .iter()
            .map(|m| (m.name, self.summary(m.name)))
            .collect()
    }

    /// Engine-side layer metrics of one job, from its `RunReport`, the
    /// clocked duration of the run and the device activity of the job.
    pub fn push_report(&mut self, report: &RunReport, run_ms: f64, dev: &SsdStatsSnapshot) {
        let [load, sort, process, scatter] = report.stage_totals_ns().map(ms);
        let steps = &report.supersteps;
        let msgs = report.total_messages() as f64;
        let sent: u64 = steps.iter().map(|s| s.messages_sent).sum();
        self.push("core.run_ms", run_ms);
        self.push("core.load_ms", load);
        self.push("core.sort_ms", sort);
        self.push("core.process_ms", process);
        self.push("core.scatter_ms", scatter);
        self.push(
            "core.other_ms",
            (run_ms - load - sort - process - scatter).max(0.0),
        );
        self.push("core.supersteps", steps.len() as f64);
        self.push("core.msgs", msgs);
        self.push("core.ns_per_msg", ratio(run_ms * 1e6, msgs));
        self.push(
            "core.io_wait_ms",
            ms(steps.iter().map(|s| s.io_wait_ns).sum()),
        );
        self.push("apps.process_ns_per_msg", ratio(process * 1e6, msgs));
        self.push("log.scatter_ns_per_msg", ratio(scatter * 1e6, sent as f64));
        self.push("log.read_sort_ns_per_msg", ratio((load + sort) * 1e6, msgs));
        if let Some(l) = &report.multilog {
            self.push(
                "log.msgs_per_page",
                ratio(l.updates_logged as f64, l.pages_flushed as f64),
            );
            self.push("log.pages_flushed", l.pages_flushed as f64);
            self.push("log.evictions", l.evictions as f64);
        }
        if let Some(e) = &report.edgelog {
            self.push("log.edgelog_hits", e.hits as f64);
            self.push(
                "log.edgelog_accuracy",
                e.prediction_accuracy().unwrap_or(0.0),
            );
        }
        let colidx: u64 = steps.iter().map(|s| s.colidx_pages_accessed).sum();
        let inefficient: u64 = steps.iter().map(|s| s.colidx_pages_inefficient).sum();
        let edges: u64 = steps.iter().map(|s| s.edges_scanned).sum();
        self.push(
            "graph.colidx_inefficient_frac",
            ratio(inefficient as f64, colidx as f64),
        );
        self.push(
            "graph.edges_per_page_read",
            ratio(edges as f64, colidx as f64),
        );
        self.push("ssd.read_batches", dev.read_batches as f64);
        self.push("ssd.write_batches", dev.write_batches as f64);
        self.push(
            "ssd.pages_per_read_batch",
            ratio(dev.pages_read as f64, dev.read_batches as f64),
        );
        self.push("ssd.sim_read_ms", ms(dev.read_time_ns));
        self.push("ssd.sim_write_ms", ms(dev.write_time_ns));
        let sim = dev.io_time_ns() + report.total_compute_ns();
        self.push(
            "ssd.storage_frac",
            ratio(dev.io_time_ns() as f64, sim as f64),
        );
    }

    /// Cache-side layer metrics from the activity between two snapshots,
    /// spread over `jobs` jobs.
    pub fn push_cache(&mut self, before: &CacheSnapshot, after: &CacheSnapshot, jobs: usize) {
        let per_job = |a: u64, b: u64| (b - a) as f64 / jobs.max(1) as f64;
        let hits = per_job(before.total_hits(), after.total_hits());
        let misses = per_job(before.total_misses(), after.total_misses());
        self.push("ssd.cache_hits", hits);
        self.push("ssd.cache_misses", misses);
        self.push("ssd.cache_hit_frac", ratio(hits, hits + misses));
        self.push(
            "ssd.cache_evictions",
            per_job(before.evictions, after.evictions),
        );
        self.push("ssd.pinned_pages", after.pinned_pages as f64);
        self.push(
            "ssd.pinned_hits",
            per_job(before.pinned_hits, after.pinned_hits),
        );
    }
}

/// Simulated time of a job: compute time of its engine runs plus every
/// nanosecond of device time the job caused, inside a run or outside one.
pub fn sim_ns(report: &RunReport, dev: &SsdStatsSnapshot) -> u64 {
    report.total_compute_ns() + dev.io_time_ns()
}

/// What one workload's pass produced.
pub struct Outcome {
    pub workload: &'static str,
    /// Engine threads pinned for this workload.
    pub threads: usize,
    /// One line on the inputs: sizes against budgets.
    pub inputs: String,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check mismatches that are not a single job's failure.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, Summary>,
    /// Wall of the whole workload: set-up, goldens, jobs and checks.
    pub took_s: f64,
}

impl Outcome {
    /// An outcome with nothing attempted yet, for the workload whose
    /// engine threads were just pinned.
    pub fn new(workload: &'static str, inputs: String) -> Outcome {
        Outcome {
            workload,
            threads: multilogvc::par::max_threads(),
            inputs,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: BTreeMap::new(),
            took_s: 0.0,
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Device-side per-job values of the end-to-end table.
pub struct DeviceSide {
    pub sim_ms: Summary,
    pub pages_read: Summary,
    pub pages_written: Summary,
    pub read_amp: Summary,
}

impl DeviceSide {
    /// Medians over per-job device activity and simulated time.
    pub fn of_jobs(jobs: &[(u64, SsdStatsSnapshot)]) -> DeviceSide {
        let col = |f: &dyn Fn(&(u64, SsdStatsSnapshot)) -> f64| {
            Summary::of(&jobs.iter().map(f).collect::<Vec<f64>>())
        };
        DeviceSide {
            sim_ms: col(&|j| ms(j.0)),
            pages_read: col(&|j| j.1.pages_read as f64),
            pages_written: col(&|j| j.1.pages_written as f64),
            read_amp: col(&|j| j.1.read_amplification().unwrap_or(0.0)),
        }
    }
}

/// Host-wall samples of one closed loop, corrected for machine speed
/// (see `calibrate`).
#[derive(Default)]
pub struct Walls {
    /// Per job, seconds on the nominal machine.
    pub corrected: Vec<f64>,
    /// Per job, seconds as clocked.
    pub raw: Vec<f64>,
    /// Correction factor applied, per `push`.
    pub speed: Vec<f64>,
    /// Corrected time the loop was busy: jobs and the untimed checks
    /// between them, calibration excluded.
    pub busy_s: f64,
}

impl Walls {
    /// Record jobs that ran between two calibration runs: their walls,
    /// the wall of the whole stretch, and the stretch's correction.
    pub fn push(&mut self, walls: &[f64], stretch_s: f64, correction: f64) {
        self.raw.extend_from_slice(walls);
        self.corrected.extend(walls.iter().map(|w| w * correction));
        self.speed.push(correction);
        self.busy_s += stretch_s * correction;
    }
}

/// Set up `SETUP_REPS` times (once on the traced pass, which reports no
/// `setup_s`), each bracketed by the calibration kernel. Returns the last
/// set-up's product and every set-up's corrected wall.
pub fn set_up<T>(ctx: &mut Ctx, mut make: impl FnMut(&Ctx) -> T) -> (T, Vec<f64>) {
    let reps = if ctx.traced { 1 } else { SETUP_REPS };
    let mut walls = Vec::new();
    let mut made = None;
    ctx.probe.start();
    for _ in 0..reps {
        let t = Instant::now();
        made = Some(make(ctx));
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall * ctx.probe.lap());
    }
    (made.expect("at least one set-up"), walls)
}

/// The end-to-end table of one workload from its timed loop, plus two
/// rows for the reader that are not gated: the median job wall as clocked
/// and the machine's speed against nominal.
pub fn end_to_end(
    setups: &[f64],
    jobs: &Walls,
    dev: DeviceSide,
) -> BTreeMap<&'static str, Summary> {
    let walls = &jobs.corrected;
    // A tail percentile needs ten samples beyond it; a loop that completes
    // tens of jobs supports none above the median, and repeats the median
    // instead of reporting an order statistic that is mostly noise.
    let tail = match percentile(walls, 0.9) {
        (p90, beyond) if beyond >= TAIL_SAMPLES => p90,
        _ => median(walls),
    };
    let values = [
        Summary::of(setups),
        Summary::of(walls),
        Summary::single(tail, walls.len()),
        Summary::single(ratio(walls.len() as f64, jobs.busy_s), walls.len()),
        dev.sim_ms,
        dev.pages_read,
        dev.pages_written,
        dev.read_amp,
    ];
    let mut table: BTreeMap<&'static str, Summary> =
        END_TO_END.iter().map(|m| m.name).zip(values).collect();
    table.insert("job_wall_raw_s", Summary::of(&jobs.raw));
    table.insert("machine_speed", Summary::of(&jobs.speed));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_counts_jobs_or_seconds() {
        let jobs = Clock::new(Reps::Jobs(2), 11);
        assert!(jobs.more(1) && !jobs.more(2));
        let timed = Clock::new(Reps::Seconds(0.0), 3);
        assert!(
            timed.more(2),
            "the minimum job count outlasts the time budget"
        );
        assert!(!timed.more(3));
    }

    #[test]
    fn ledger_reports_every_layer_metric_and_zero_for_the_unexercised() {
        let mut l = Ledger::default();
        l.push("core.run_ms", 3.0);
        l.push("core.run_ms", 1.0);
        l.push("core.run_ms", 2.0);
        l.set("core.thread_speedup", 1.5, 4);
        let all = l.per_layer();
        assert_eq!(all.len(), PER_LAYER.len());
        assert_eq!((all["core.run_ms"].value, all["core.run_ms"].n), (2.0, 3));
        assert_eq!(
            (
                all["core.thread_speedup"].value,
                all["core.thread_speedup"].n
            ),
            (1.5, 4)
        );
        assert_eq!(
            (all["serve.rejected"].value, all["serve.rejected"].n),
            (0.0, 0)
        );
    }

    #[test]
    fn walls_are_corrected_stretch_by_stretch() {
        let mut w = Walls::default();
        w.push(&[1.0, 2.0], 4.0, 0.5);
        w.push(&[3.0], 3.0, 2.0);
        assert_eq!(w.corrected, [0.5, 1.0, 6.0]);
        assert_eq!(w.raw, [1.0, 2.0, 3.0]);
        assert_eq!(w.speed, [0.5, 2.0]);
        assert_eq!(w.busy_s, 8.0);
    }

    #[test]
    fn end_to_end_table_has_every_metric() {
        let mut jobs = Walls::default();
        jobs.push(&[0.5, 0.25], 1.0, 1.0);
        let dev = DeviceSide::of_jobs(&[(2_000_000, SsdStatsSnapshot::default())]);
        let t = end_to_end(&[1.0, 3.0, 2.0], &jobs, dev);
        assert!(END_TO_END.iter().all(|m| t.contains_key(m.name)));
        assert_eq!(t["setup_s"].value, 2.0);
        assert_eq!((t["job_wall_s"].value, t["job_wall_s"].n), (0.375, 2));
        assert_eq!(
            t["job_wall_p90_s"].value, 0.375,
            "two samples support no tail"
        );
        assert_eq!(t["jobs_per_s"].value, 2.0);
        assert_eq!(t["sim_ms"].value, 2.0);
        let mut many = Walls::default();
        many.push(&(1..=100).map(f64::from).collect::<Vec<f64>>(), 1.0, 2.0);
        let dev = DeviceSide::of_jobs(&[(0, SsdStatsSnapshot::default())]);
        let t = end_to_end(&[1.0], &many, dev);
        assert_eq!(
            t["job_wall_p90_s"].value, 180.0,
            "p90 of the corrected walls"
        );
        assert_eq!(
            (t["job_wall_raw_s"].value, t["machine_speed"].value),
            (50.5, 2.0)
        );
    }

    #[test]
    fn fingerprint_tells_states_apart() {
        assert_eq!(fingerprint(&[1, 2, 3]), fingerprint(&[1, 2, 3]));
        assert_ne!(fingerprint(&[1, 2, 3]), fingerprint(&[1, 3, 2]));
    }
}
