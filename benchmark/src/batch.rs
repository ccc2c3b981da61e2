//! `pr-cf`, `rw-cf`, `pr-cf-tiered`: one engine run per job, from the
//! graph file to the final states — the steps of `mlvc run`.

use std::fs::File;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use multilogvc::apps::{PageRank, RandomWalk};
use multilogvc::core::{
    Engine, EngineConfig, MultiLogEngine, ReferenceEngine, RunReport, TieringConfig, VertexProgram,
};
use multilogvc::graph::{Csr, StoredGraph, VertexIntervals, UPDATE_BYTES};
use multilogvc::io::{read_csr_binary, write_csr_binary};
use multilogvc::par;
use multilogvc::ssd::{CacheSnapshot, Ssd, SsdConfig, SsdStatsSnapshot};

use crate::harness::{
    end_to_end, fingerprint, ratio, secs, set_up, sim_ns, Ctx, DeviceSide, Ledger, Outcome, Walls,
};
use crate::stats::median;

/// Superstep cap: PageRank converges in about six on CF and the walk ends
/// after its 21, so neither run is cut short.
const STEPS: usize = 30;
/// Random-walk sources are every 4th vertex, one walker each, 20 steps.
const WALK_STRIDE: usize = 4;
const WALK_STEPS: u64 = 20;
const RANK_TOLERANCE: f64 = 1e-8;

enum App {
    PageRank,
    Walk,
}

struct Spec {
    name: &'static str,
    app: App,
    tiered: bool,
}

fn spec(name: &str) -> Spec {
    match name {
        "pr-cf" => Spec {
            name: "pr-cf",
            app: App::PageRank,
            tiered: false,
        },
        "rw-cf" => Spec {
            name: "rw-cf",
            app: App::Walk,
            tiered: false,
        },
        "pr-cf-tiered" => Spec {
            name: "pr-cf-tiered",
            app: App::PageRank,
            tiered: true,
        },
        other => unreachable!("{other} is not a batch workload"),
    }
}

impl Spec {
    fn program(&self) -> Box<dyn VertexProgram> {
        match self.app {
            App::PageRank => Box::new(PageRank::default()),
            App::Walk => Box::new(RandomWalk::new(WALK_STRIDE, 1, WALK_STEPS)),
        }
    }

    fn config(&self, ctx: &Ctx, obs: bool) -> EngineConfig {
        let cfg = EngineConfig::default()
            .with_memory(ctx.sizes.batch_budget)
            .with_seed(ctx.seed)
            .with_tag(self.name)
            .with_obs(obs);
        if self.tiered {
            cfg.with_tiering(TieringConfig {
                cache_bytes: ctx.sizes.tier_cache,
                pin_budget_bytes: ctx.sizes.tier_pin,
                ..Default::default()
            })
        } else {
            cfg
        }
    }
}

/// Generate the graph and write the snapshot the jobs read. Timed as
/// set-up; never cached across runs.
fn setup(ctx: &Ctx, path: &Path) -> (Csr, f64) {
    let t = Instant::now();
    let g = multilogvc::gen::cf_mini(ctx.sizes.batch_scale, ctx.seed).graph;
    let gen_s = t.elapsed().as_secs_f64();
    let file = File::create(path).expect("create the snapshot file");
    write_csr_binary(file, &g).expect("write the snapshot");
    (g, gen_s)
}

struct Job {
    /// Request to result: read → intervals → store → run → states.
    wall_s: f64,
    /// Span durations; 0 with the recorder off.
    read_ms: f64,
    intervals_ms: f64,
    store_ms: f64,
    /// Clocked around the engine run with or without the recorder.
    run_ms: f64,
    report: RunReport,
    /// Device activity of the whole job, and of its store step alone.
    dev: SsdStatsSnapshot,
    store_pages: u64,
    cache: Option<CacheSnapshot>,
    states: Vec<u64>,
}

fn job(ctx: &mut Ctx, path: &Path, prog: &dyn VertexProgram, cfg: &EngineConfig) -> Job {
    let id = ctx.job_id();
    let tr = &mut ctx.tracer;
    let root = tr.begin("job", id);
    let t0 = Instant::now();

    let span = tr.begin("io.read_snapshot", id);
    let g = read_csr_binary(File::open(path).expect("open the snapshot")).expect("read snapshot");
    let read_ms = tr.end(span);

    let span = tr.begin("graph.intervals", id);
    let iv = VertexIntervals::for_graph(&g, UPDATE_BYTES, cfg.sort_budget());
    let intervals_ms = tr.end(span);

    let span = tr.begin("graph.store", id);
    let ssd = Arc::new(Ssd::new(SsdConfig::default()));
    let stored = StoredGraph::store_with(&ssd, &g, "cli", iv).expect("store the graph");
    let store_ms = tr.end(span);
    let store_pages = ssd.stats().snapshot().pages_written;

    let run = tr.begin("core.run", id);
    let t_run = Instant::now();
    let mut engine = MultiLogEngine::new(Arc::clone(&ssd), stored, cfg.clone());
    let report = engine.run(prog, STEPS);
    let states = engine.states();
    let t1 = Instant::now();
    tr.end(run);
    tr.add_supersteps(run, &report);
    tr.end(root);

    Job {
        wall_s: secs(t0, t1),
        read_ms,
        intervals_ms,
        store_ms,
        run_ms: secs(t_run, t1) * 1e3,
        dev: ssd.stats().snapshot(),
        store_pages,
        cache: ssd.cache().map(|c| c.snapshot()),
        states: states.to_vec(),
        report,
    }
}

/// Checks every job against the golden and against the first job.
struct Checker {
    golden: Vec<u64>,
    first: Option<u64>,
    walkers: u64,
}

impl Checker {
    fn new(spec: &Spec, g: &Csr, seed: u64) -> Checker {
        let mut reference = ReferenceEngine::new(g.clone(), seed);
        reference.run(spec.program().as_ref(), STEPS);
        let walkers = g.num_vertices().div_ceil(WALK_STRIDE) as u64;
        Checker {
            golden: reference.states().to_vec(),
            first: None,
            walkers,
        }
    }

    /// `Err` says what is wrong with this job's output.
    fn check(&mut self, spec: &Spec, j: &Job) -> Result<(), String> {
        if let Some(e) = &j.report.interrupted {
            return Err(format!("run interrupted: {e}"));
        }
        if !j.report.converged {
            return Err(format!("not converged in {STEPS} supersteps"));
        }
        let print = fingerprint(&j.states);
        if *self.first.get_or_insert(print) != print {
            return Err("states differ from the first timed job's".to_string());
        }
        if j.states.len() != self.golden.len() {
            return Err("state count differs from the golden's".to_string());
        }
        match spec.app {
            App::PageRank => {
                let worst = j
                    .states
                    .iter()
                    .zip(&self.golden)
                    .map(|(&a, &b)| (PageRank::rank(a) - PageRank::rank(b)).abs())
                    .fold(0.0, f64::max);
                if worst >= RANK_TOLERANCE {
                    return Err(format!("rank off the golden by {worst:e}"));
                }
            }
            // Every walker is counted where it starts and at most once
            // per step after that.
            App::Walk => {
                let visits: u64 = j.states.iter().map(|&s| RandomWalk::visits(s)).sum();
                if visits < self.walkers || visits > self.walkers * (WALK_STEPS + 1) {
                    return Err(format!("{visits} visits by {} walkers", self.walkers));
                }
            }
        }
        Ok(())
    }
}

fn inputs_line(ctx: &Ctx, spec: &Spec, g: &Csr) -> String {
    let mut s = format!(
        "cf_mini({}): {} vertices, {} stored edges, {} MiB of colidx; engine budget {} KiB",
        ctx.sizes.batch_scale,
        g.num_vertices(),
        g.num_edges(),
        (g.num_edges() * 4) >> 20,
        ctx.sizes.batch_budget >> 10,
    );
    if spec.tiered {
        s.push_str(&format!(
            "; cache {} KiB + pinned tier {} KiB",
            ctx.sizes.tier_cache >> 10,
            ctx.sizes.tier_pin >> 10
        ));
    }
    s
}

pub fn run(ctx: &mut Ctx, name: &str) -> Outcome {
    let spec = spec(name);
    par::set_thread_override(Some(ctx.nproc));
    let path = ctx.out_dir.join(format!("{}.csr", spec.name));
    let prog = spec.program();

    let mut ledger = Ledger::default();
    let ((g, gen_s), setups) = set_up(ctx, |ctx| setup(ctx, &path));
    ledger.push("gen.rmat_edges_per_s", ratio(g.num_edges() as f64, gen_s));
    let mut out = Outcome::new(spec.name, inputs_line(ctx, &spec, &g));
    let mut checker = Checker::new(&spec, &g, ctx.seed);
    drop(g);

    let cfg = spec.config(ctx, false);
    let mut judge = |out: &mut Outcome, j: &Job| {
        out.attempted += 1;
        if let Err(why) = checker.check(&spec, j) {
            out.failed += 1;
            out.problems
                .push(format!("{}: job {}: {why}", spec.name, out.attempted));
        }
    };

    // Discarded warm-up job.
    let cold = job(ctx, &path, prog.as_ref(), &cfg);
    ledger.push("core.cold_run_ms", cold.run_ms);

    if !ctx.traced {
        let clock = ctx.clock(1.0, 11);
        let mut walls = Walls::default();
        let mut device = Vec::new();
        ctx.probe.start();
        while clock.more(device.len()) {
            let t = Instant::now();
            let j = job(ctx, &path, prog.as_ref(), &cfg);
            judge(&mut out, &j);
            let stretch = t.elapsed().as_secs_f64();
            walls.push(&[j.wall_s], stretch, ctx.probe.lap());
            device.push((sim_ns(&j.report, &j.dev), j.dev));
        }
        out.metrics = end_to_end(&setups, &walls, DeviceSide::of_jobs(&device));
    } else {
        traced(ctx, &spec, &path, prog.as_ref(), &mut ledger, &mut |j| {
            judge(&mut out, j)
        });
        out.metrics = ledger.per_layer();
    }
    std::fs::remove_file(&path).ok();
    out
}

/// Closed loop of A/B pairs: `run(ctx, true)` is A, `run(ctx, false)` is
/// B, and which goes first swaps every pair so neither always follows the
/// other. Returns the pairs as (A, B).
fn pairs(
    ctx: &mut Ctx,
    share: f64,
    judge: &mut dyn FnMut(&Job),
    mut run: impl FnMut(&mut Ctx, bool) -> Job,
) -> Vec<(Job, Job)> {
    let clock = ctx.clock(share, 4);
    let mut out = Vec::new();
    while clock.more(out.len() * 2) {
        let a_first = out.len() % 2 == 0;
        let first = run(ctx, a_first);
        let second = run(ctx, !a_first);
        judge(&first);
        judge(&second);
        out.push(if a_first {
            (first, second)
        } else {
            (second, first)
        });
    }
    out
}

/// Median over pairs of A's value ÷ B's. The two jobs of a pair run back
/// to back, so a slow spell of the machine falls on both.
fn pair_ratio(pairs: &[(Job, Job)], value: impl Fn(&Job) -> f64) -> f64 {
    median(
        &pairs
            .iter()
            .map(|(a, b)| ratio(value(a), value(b)))
            .collect::<Vec<f64>>(),
    )
}

/// The traced pass: spans on against spans off (the difference is the
/// tracing overhead), then the thread and obs A/Bs.
fn traced(
    ctx: &mut Ctx,
    spec: &Spec,
    path: &Path,
    prog: &dyn VertexProgram,
    ledger: &mut Ledger,
    judge: &mut dyn FnMut(&Job),
) {
    let cfg = spec.config(ctx, false);
    let thread_ab = !spec.tiered;
    let obs_ab = spec.name == "pr-cf";
    let ab_share = |on: bool| if on { 0.3 } else { 0.0 };
    let main_share = 1.0 - ab_share(thread_ab) - ab_share(obs_ab);

    let spans = pairs(ctx, main_share, judge, |ctx, on| {
        ctx.tracer.set_enabled(on);
        job(ctx, path, prog, &cfg)
    });
    for (j, _) in &spans {
        ledger.push("io.read_snapshot_ms", j.read_ms);
        ledger.push("graph.intervals_ms", j.intervals_ms);
        ledger.push("graph.store_ms", j.store_ms);
        ledger.push("graph.store_pages", j.store_pages as f64);
        ledger.push_report(&j.report, j.run_ms, &j.dev);
        if let Some(cache) = &j.cache {
            ledger.push_cache(&CacheSnapshot::default(), cache, 1);
        }
    }
    let overhead = pair_ratio(&spans, |j| j.wall_s) - 1.0;
    ledger.set("bench.trace_overhead_frac", overhead, spans.len());

    // The A/Bs compare engine settings, not layers: spans stay off.
    ctx.tracer.set_enabled(false);
    if thread_ab {
        let threads = pairs(ctx, 0.3, judge, |ctx, single| {
            par::set_thread_override(Some(if single { 1 } else { ctx.nproc }));
            job(ctx, path, prog, &cfg)
        });
        par::set_thread_override(Some(ctx.nproc));
        let drift: Vec<f64> = threads
            .iter()
            .map(|(one, all)| one.dev.pages_written.abs_diff(all.dev.pages_written) as f64)
            .collect();
        ledger.set(
            "core.thread_speedup",
            pair_ratio(&threads, |j| j.run_ms),
            threads.len(),
        );
        ledger.set("core.thread_drift_pages", median(&drift), drift.len());
    }
    if obs_ab {
        let with_obs = spec.config(ctx, true);
        let obs = pairs(ctx, 0.3, judge, |ctx, on| {
            job(ctx, path, prog, if on { &with_obs } else { &cfg })
        });
        ledger.set(
            "obs.overhead_frac",
            pair_ratio(&obs, |j| j.run_ms) - 1.0,
            obs.len(),
        );
    }
    ctx.tracer.set_enabled(true);
}
