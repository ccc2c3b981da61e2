//! `wcc-mutate`: a graph stored once, then rounds of mutation ingest
//! followed by merge and incremental WCC re-convergence.

use std::sync::Arc;
use std::time::Instant;

use multilogvc::apps::Wcc;
use multilogvc::core::{Engine, EngineConfig, MultiLogEngine, ReferenceEngine, RunReport};
use multilogvc::graph::{Csr, StoredGraph, VertexIntervals, UPDATE_BYTES};
use multilogvc::mutate::{apply_to_csr, EdgeMutation, MutationConfig, MutationLog};
use multilogvc::par;
use multilogvc::ssd::sync::Mutex;
use multilogvc::ssd::{Ssd, SsdConfig, SsdStatsSnapshot};

use crate::harness::{
    end_to_end, ratio, secs, set_up, sim_ns, Ctx, DeviceSide, Ledger, Outcome, Walls,
};
use crate::inputs::mutation_batch;
use crate::stats::median;

/// Superstep cap: label propagation on CF converges in well under this.
const STEPS: usize = 50;
/// Rounds every run completes; the device-side end-to-end values are
/// taken over exactly these, so they repeat for a seed however many more
/// rounds the time allows.
const COUNTED_ROUNDS: usize = 11;
const TAG: &str = "wcc-mutate";

struct Stored {
    base: Csr,
    ssd: Arc<Ssd>,
    engine: MultiLogEngine,
    log: Arc<Mutex<MutationLog>>,
}

fn config(ctx: &Ctx) -> EngineConfig {
    EngineConfig::default()
        .with_memory(ctx.sizes.mutate_budget)
        .with_seed(ctx.seed)
        .with_tag(TAG)
}

fn store(ctx: &Ctx, g: &Csr, name: &str) -> (Arc<Ssd>, MultiLogEngine, VertexIntervals) {
    let cfg = config(ctx);
    let iv = VertexIntervals::for_graph(g, UPDATE_BYTES, cfg.sort_budget());
    let ssd = Arc::new(Ssd::new(SsdConfig::default()));
    let stored = StoredGraph::store_with(&ssd, g, name, iv.clone()).expect("store the graph");
    (Arc::clone(&ssd), MultiLogEngine::new(ssd, stored, cfg), iv)
}

/// Generate, store, run WCC to its fixpoint and attach an empty mutation
/// log. Timed as set-up.
fn setup(ctx: &Ctx) -> Stored {
    let base = multilogvc::gen::cf_mini(ctx.sizes.mutate_scale, ctx.seed).graph;
    let (ssd, mut engine, iv) = store(ctx, &base, "base");
    let report = engine.run(&Wcc, STEPS);
    assert!(
        report.converged && report.interrupted.is_none(),
        "base WCC run must converge"
    );
    let log = MutationLog::new(Arc::clone(&ssd), iv, MutationConfig::default(), TAG)
        .expect("open the mutation log");
    let log = Arc::new(Mutex::new(log));
    engine
        .attach_mutations(Arc::clone(&log))
        .expect("attach the mutation log");
    Stored {
        base,
        ssd,
        engine,
        log,
    }
}

struct Round {
    wall_s: f64,
    ingest_ms: f64,
    reconverge_ms: f64,
    report: RunReport,
    /// Device activity of the whole round.
    dev: SsdStatsSnapshot,
}

fn round(ctx: &mut Ctx, s: &mut Stored, batch: &[EdgeMutation]) -> Round {
    let id = ctx.job_id();
    let tr = &mut ctx.tracer;
    let before = s.ssd.stats().snapshot();
    let root = tr.begin("job", id);
    let t0 = Instant::now();

    let span = tr.begin("mutate.ingest", id);
    s.log.lock().ingest(batch).expect("ingest the batch");
    let t_ingest = Instant::now();
    tr.end(span);

    let run = tr.begin("core.reconverge", id);
    let report = s.engine.reconverge(&Wcc, STEPS);
    let t1 = Instant::now();
    tr.end(run);
    tr.add_supersteps(run, &report);
    tr.end(root);

    Round {
        wall_s: secs(t0, t1),
        ingest_ms: secs(t0, t_ingest) * 1e3,
        reconverge_ms: secs(t_ingest, t1) * 1e3,
        report,
        dev: s.ssd.stats().snapshot().since(&before),
    }
}

fn check(r: &Round) -> Result<(), String> {
    if let Some(e) = &r.report.interrupted {
        return Err(format!("re-convergence interrupted: {e}"));
    }
    if !r.report.converged {
        return Err(format!("not converged in {STEPS} supersteps"));
    }
    match r.report.mutations {
        Some(m) if m.merges > 0 => Ok(()),
        _ => Err("the round merged nothing".to_string()),
    }
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    par::set_thread_override(Some(ctx.nproc));
    let (mut s, setups) = set_up(ctx, setup);
    let inputs = format!(
        "cf_mini({}): {} vertices, {} stored edges; engine budget {} KiB; {} mutations per round \
         (3/4 adds, 1/4 removes of stored edges)",
        ctx.sizes.mutate_scale,
        s.base.num_vertices(),
        s.base.num_edges(),
        ctx.sizes.mutate_budget >> 10,
        ctx.sizes.mutate_batch,
    );
    let mut out = Outcome::new("wcc-mutate", inputs);

    let mut ledger = Ledger::default();
    let mut applied: Vec<EdgeMutation> = Vec::new();
    let mut rounds = 0usize;
    let mut next = |ctx: &mut Ctx, s: &mut Stored, out: &mut Outcome, counted: bool| {
        let batch = mutation_batch(&s.base, ctx.seed, rounds, ctx.sizes.mutate_batch);
        rounds += 1;
        let r = round(ctx, s, &batch);
        applied.extend_from_slice(&batch);
        if counted {
            out.attempted += 1;
            if let Err(why) = check(&r) {
                out.failed += 1;
                out.problems
                    .push(format!("wcc-mutate: round {rounds}: {why}"));
            }
        }
        r
    };

    // Discarded warm-up round.
    next(ctx, &mut s, &mut out, false);

    let share = if ctx.traced { 0.8 } else { 1.0 };
    let clock = ctx.clock(share, COUNTED_ROUNDS);
    let mut walls = Walls::default();
    let mut device = Vec::new();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    ctx.probe.start();
    while clock.more(device.len()) {
        // On the traced pass rounds pair up, one with spans on and one
        // off, on first in every other pair; the difference is the
        // tracing overhead.
        let (pair, second) = (device.len() / 2, device.len() % 2 == 1);
        let spans = ctx.traced && (pair % 2 == 1) == second;
        ctx.tracer.set_enabled(spans);
        let t = Instant::now();
        let r = next(ctx, &mut s, &mut out, true);
        let stretch = t.elapsed().as_secs_f64();
        walls.push(&[r.wall_s], stretch, ctx.probe.lap());
        device.push((sim_ns(&r.report, &r.dev), r.dev));
        if spans {
            on.push(r.wall_s);
            push_layers(&mut ledger, ctx, &r);
        } else {
            off.push(r.wall_s);
        }
    }
    ctx.tracer.set_enabled(ctx.traced);

    // Output check: the states after the last round equal a cold run on
    // the graph `apply_to_csr` makes of every batch ingested.
    let (golden, _) = apply_to_csr(&s.base, &applied).expect("golden graph");
    let mut reference = ReferenceEngine::new(golden.clone(), ctx.seed);
    reference.run(&Wcc, STEPS);
    if reference.states() != s.engine.states() {
        out.problems
            .push("wcc-mutate: final states differ from a cold run's".to_string());
    }

    if ctx.traced {
        let by_pair: Vec<f64> = on.iter().zip(&off).map(|(a, b)| ratio(*a, *b)).collect();
        ledger.set(
            "bench.trace_overhead_frac",
            median(&by_pair) - 1.0,
            by_pair.len(),
        );
        // Cold WCC on the mutated graph, against the incremental rounds.
        ctx.tracer.set_enabled(false);
        let clock = ctx.clock(0.2, 3);
        let mut cold = Vec::new();
        while clock.more(cold.len()) {
            let (_ssd, mut engine, _iv) = store(ctx, &golden, "cold");
            let t = Instant::now();
            engine.run(&Wcc, STEPS);
            cold.push(t.elapsed().as_secs_f64() * 1e3);
        }
        ctx.tracer.set_enabled(true);
        let incremental = median(ledger.samples("mutate.reconverge_ms"));
        ledger.set(
            "mutate.cold_over_incremental",
            ratio(median(&cold), incremental),
            cold.len(),
        );
        out.metrics = ledger.per_layer();
    } else {
        device.truncate(COUNTED_ROUNDS);
        out.metrics = end_to_end(&setups, &walls, DeviceSide::of_jobs(&device));
    }
    out
}

fn push_layers(ledger: &mut Ledger, ctx: &Ctx, r: &Round) {
    ledger.push_report(&r.report, r.reconverge_ms, &r.dev);
    ledger.push(
        "mutate.ingest_edges_per_s",
        ratio(ctx.sizes.mutate_batch as f64, r.ingest_ms / 1e3),
    );
    ledger.push("mutate.reconverge_ms", r.reconverge_ms);
    ledger.push(
        "mutate.reconverge_supersteps",
        r.report.supersteps.len() as f64,
    );
    // The merge runs inside `reconverge` before its first superstep, so
    // its writes are what the round wrote outside every superstep.
    let in_steps: u64 = r.report.supersteps.iter().map(|s| s.io.pages_written).sum();
    ledger.push(
        "mutate.merge_pages_written",
        r.dev.pages_written.saturating_sub(in_steps) as f64,
    );
    let merged = r.report.mutations.map_or(0, |m| m.intervals_merged);
    ledger.push("mutate.intervals_merged", merged as f64);
}
