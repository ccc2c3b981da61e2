//! `mlvc` — command-line front end for the MultiLogVC framework.
//!
//! ```text
//! mlvc gen   --kind rmat-social --scale 14 --seed 42 --out graph.csr
//! mlvc stats graph.csr
//! mlvc convert graph.txt graph.csr
//! mlvc run   --app pagerank --graph graph.csr --engine mlvc --steps 15
//! # crash-consistent checkpointing + recovery (DESIGN.md §11):
//! mlvc run    --app pagerank --graph graph.csr --ssd-dir /tmp/dev \
//!             --checkpoint-every 2 --crash-after 500
//! mlvc resume --app pagerank --graph graph.csr --ssd-dir /tmp/dev
//! ```
//!
//! Graph files: `.csr` = mlvc binary snapshot, anything else = SNAP-style
//! edge-list text (auto-detected by magic on read).

use std::fs::File;
use std::io::Read;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use multilogvc::apps::{AppError, Bfs, Coloring, KCore, Mis, PageRank, Sssp};
use multilogvc::core::{
    Engine, EngineConfig, MultiLogEngine, ReferenceEngine, RunReport, TieringConfig,
    VertexProgram,
};
use multilogvc::grafboost::GrafBoostEngine;
use multilogvc::graph::{Csr, VertexIntervals};
use multilogvc::graphchi::GraphChiEngine;
use multilogvc::io::{
    read_csr_binary, read_edge_list, write_csr_binary, write_edge_list, EdgeListOptions,
};
use multilogvc::graph::StoredGraph;
use multilogvc::mutate::{EdgeMutation, MutationConfig, MutationLog};
use multilogvc::serve::{Daemon, ServeConfig};
use multilogvc::ssd::{DeviceError, FaultPlan, Ssd, SsdConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  mlvc gen --kind <rmat-social|rmat-web|er|ba> [--scale N] [--vertices N]
           [--edges-per-vertex K] [--seed S] --out <file>
  mlvc stats <graph>
  mlvc convert <in> <out>
  mlvc run --app <bfs|pagerank|cdlp|coloring|mis|randomwalk|wcc|kcore|sssp>
           --graph <file> [--engine mlvc|graphchi|grafboost|reference]
           [--steps N] [--memory-kb K] [--source V] [--seed S] [--async]
           [--ssd-dir DIR] [--checkpoint-every K] [--crash-after N]
           [--metrics FILE] [--cache-kb K] [--pin-budget-kb K]
  mlvc resume --app <app> --graph <file> --ssd-dir DIR
           [--steps N] [--memory-kb K] [--source V] [--seed S]
           [--checkpoint-every K]
  mlvc serve --graphs <name=file[,name=file...]> [--memory-kb K]
           [--cache-kb K] [--pin-budget-kb K] [--workers N]
           [--requests FILE] [--metrics FILE] [--ssd-dir DIR]
  mlvc ingest --graph <file> --batch <file> [--out FILE]
           [--app <bfs|pagerank|wcc|...>] [--steps N] [--memory-kb K]
           [--source V] [--seed S] [--ssd-dir DIR]

graph files ending in .csr are binary snapshots; all others are
SNAP-style edge-list text (auto-detected on read).

--async (mlvc engine only) runs the asynchronous computation model: an
interval also receives what the current superstep has already logged for
it.

--ssd-dir backs the simulated SSD with host files so checkpoints survive
the process; --checkpoint-every K (mlvc engine only) writes a
crash-consistent checkpoint every K supersteps; --crash-after N injects
a deterministic device crash (torn page) at the Nth page write. `resume`
restarts an interrupted mlvc-engine run from its last durable checkpoint.

--metrics FILE (mlvc engine only) turns on the observability layer
(DESIGN.md §13): the per-superstep trace is written to FILE as JSON
lines and a Prometheus text snapshot of the run counters to FILE.prom;
the run summary then also reports read/write amplification.

--cache-kb K (mlvc engine only) attaches a K-KiB scan-resistant (2Q)
device page cache (adaptive memory tiering, DESIGN.md §18);
--pin-budget-kb K adds a pinned tier that holds the hottest intervals'
CSR extents resident. Cache hit, eviction, and pin counters flow into
the --metrics artifacts.

`ingest` applies an edge-mutation batch to a stored graph through the
on-device mutation log (DESIGN.md §17). The batch file is text, one
mutation per line: `add <src> <dst>` or `remove <src> <dst>` (blank
lines and `#` comments ignored). With --app the base graph is computed
first, then the batch is merged and the app *incrementally
re-converges* from its previous states; without it the batch is merged
directly. --out writes the mutated graph back out as a snapshot.

`serve` starts the multi-tenant daemon (DESIGN.md §15): datasets from
--graphs are stored once on one shared device, then jobs arrive as one
JSON object per line on stdin (or --requests FILE) and replies stream
to stdout. --memory-kb is the global admission budget shared by all
concurrent jobs, --cache-kb sizes the shared page cache, --workers N
(default 4) runs N jobs at once. The hardware threads are split between
them: each job's engine gets max(1, threads / N), so N jobs keep about
as many threads runnable as the machine has, and a job whose share is
one thread spawns none; MLVC_THREADS, when set, is each job's count
instead. --pin-budget-kb carves DRAM from the admission
budget to hold dataset CSR extents pinned in the cache (DESIGN.md
§18). --metrics FILE writes the daemon-wide Prometheus rollup (per-job
labeled series) on shutdown.";

/// Minimal flag parser: `--key value` pairs plus positionals.
struct Args<'a> {
    flags: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
    positional: Vec<&'a str>,
}

fn parse_args<'a>(args: &'a [String]) -> Result<Args<'a>, String> {
    let mut out = Args { flags: Vec::new(), switches: Vec::new(), positional: Vec::new() };
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if let Some(key) = a.strip_prefix("--") {
            if key == "async" {
                out.switches.push(key);
                i += 1;
            } else {
                let val = args
                    .get(i + 1)
                    .ok_or_else(|| format!("--{key} needs a value"))?;
                out.flags.push((key, val.as_str()));
                i += 2;
            }
        } else {
            out.positional.push(a);
            i += 1;
        }
    }
    Ok(out)
}

impl<'a> Args<'a> {
    fn get(&self, key: &str) -> Option<&'a str> {
        self.flags.iter().rev().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
    fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v}")),
        }
    }
    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing command".into());
    };
    let rest = parse_args(&args[1..])?;
    match cmd.as_str() {
        "gen" => cmd_gen(&rest),
        "stats" => cmd_stats(&rest),
        "convert" => cmd_convert(&rest),
        "run" => cmd_run(&rest, false),
        "resume" => cmd_run(&rest, true),
        "serve" => cmd_serve(&rest),
        "ingest" => cmd_ingest(&rest),
        other => Err(format!("unknown command: {other}")),
    }
}

// --- graph file handling -------------------------------------------------

fn load_graph(path: &str) -> Result<Csr, String> {
    let mut f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut head = [0u8; 8];
    let n = f.read(&mut head).map_err(|e| e.to_string())?;
    let is_snapshot = n == 8 && &head == multilogvc::io::SNAPSHOT_MAGIC;
    let f = File::open(path).map_err(|e| e.to_string())?;
    if is_snapshot {
        read_csr_binary(f).map_err(|e| format!("{path}: {e}"))
    } else {
        read_edge_list(f, &EdgeListOptions::default()).map_err(|e| format!("{path}: {e}"))
    }
}

fn save_graph(path: &str, g: &Csr) -> Result<(), String> {
    let f = File::create(path).map_err(|e| format!("{path}: {e}"))?;
    if path.ends_with(".csr") {
        write_csr_binary(f, g).map_err(|e| e.to_string())
    } else {
        write_edge_list(f, g).map_err(|e| e.to_string())
    }
}

// --- subcommands ----------------------------------------------------------

fn cmd_gen(a: &Args) -> Result<(), String> {
    let kind = a.get("kind").ok_or("gen needs --kind")?;
    let out = a.get("out").ok_or("gen needs --out")?;
    let seed: u64 = a.get_parsed("seed", 42)?;
    let scale: u32 = a.get_parsed("scale", 14)?;
    let epv: usize = a.get_parsed("edges-per-vertex", 8)?;
    let vertices: usize = a.get_parsed("vertices", 1usize << scale)?;
    let g = match kind {
        "rmat-social" => mlvc_gen::rmat(mlvc_gen::RmatParams::social(scale, epv), seed),
        "rmat-web" => mlvc_gen::rmat(mlvc_gen::RmatParams::web(scale, epv), seed),
        "er" => mlvc_gen::erdos_renyi(vertices, vertices * epv, seed),
        "ba" => mlvc_gen::barabasi_albert(vertices, epv.max(1), seed),
        other => return Err(format!("unknown --kind {other}")),
    };
    save_graph(out, &g)?;
    println!(
        "wrote {out}: {} vertices, {} stored edges",
        g.num_vertices(),
        g.num_edges()
    );
    Ok(())
}

fn cmd_stats(a: &Args) -> Result<(), String> {
    let path = a.positional.first().ok_or("stats needs a graph file")?;
    let g = load_graph(path)?;
    let s = mlvc_gen::degree_stats(&g);
    println!("{path}");
    println!("  vertices        {}", s.num_vertices);
    println!("  stored edges    {}", s.num_edges);
    println!("  degree min/med/mean/p99/max  {}/{}/{:.1}/{}/{}",
        s.min_degree, s.median_degree, s.mean_degree, s.p99_degree, s.max_degree);
    println!("  isolated        {}", s.isolated_vertices);
    println!("  top-1% edge share {:.3}", s.top1pct_edge_share);
    println!("  weighted        {}", g.has_weights());
    Ok(())
}

fn cmd_convert(a: &Args) -> Result<(), String> {
    let [input, output] = a.positional.as_slice() else {
        return Err("convert needs <in> <out>".into());
    };
    let g = load_graph(input)?;
    save_graph(output, &g)?;
    println!("{input} -> {output} ({} vertices, {} edges)", g.num_vertices(), g.num_edges());
    Ok(())
}

/// The program `--app` names, from the one registry (`mlvc_apps::by_name`).
fn make_app(name: &str, g: &Csr, source: u32) -> Result<Box<dyn VertexProgram>, String> {
    multilogvc::apps::by_name(name, g.has_weights(), source).map_err(|e| match e {
        AppError::Unknown(other) => format!("unknown --app {other}"),
        needs_weights => needs_weights.to_string(),
    })
}

/// Render a device fault as a CLI error string.
fn dev(e: DeviceError) -> String {
    format!("device error: {e}")
}

/// Device backing the run: host-file-backed under `--ssd-dir` (checkpoints
/// survive the process, enabling `mlvc resume`), in-memory otherwise.
fn make_ssd(a: &Args) -> Result<Arc<Ssd>, String> {
    match a.get("ssd-dir") {
        Some(dir) => Ssd::new_on_disk(SsdConfig::default(), PathBuf::from(dir))
            .map(Arc::new)
            .map_err(|e| format!("--ssd-dir {dir}: {e}")),
        None => Ok(Arc::new(Ssd::new(SsdConfig::default()))),
    }
}

fn cmd_run(a: &Args, resume: bool) -> Result<(), String> {
    let app_name = a.get("app").ok_or("run needs --app")?;
    let path = a.get("graph").ok_or("run needs --graph")?;
    let engine_name = a.get("engine").unwrap_or("mlvc");
    let steps: usize = a.get_parsed("steps", 15)?;
    let memory_kb: usize = a.get_parsed("memory-kb", 2048)?;
    let seed: u64 = a.get_parsed("seed", 42)?;
    let source: u32 = a.get_parsed("source", 0u32)?;
    let checkpoint_every: usize = a.get_parsed("checkpoint-every", 0)?;
    let crash_after: u64 = a.get_parsed("crash-after", 0)?;
    let cache_kb: usize = a.get_parsed("cache-kb", 0)?;
    let pin_budget_kb: usize = a.get_parsed("pin-budget-kb", 0)?;
    let metrics_path = a.get("metrics");
    // What only the mlvc engine reads is refused elsewhere, not ignored.
    let mlvc_only = [
        ("--metrics", metrics_path.is_some()),
        ("--cache-kb", cache_kb > 0),
        ("--pin-budget-kb", pin_budget_kb > 0),
        ("--async", a.has("async")),
        ("--checkpoint-every", checkpoint_every > 0),
    ];
    if engine_name != "mlvc" {
        if let Some((flag, _)) = mlvc_only.iter().find(|(_, given)| *given) {
            return Err(format!("{flag} supports only --engine mlvc"));
        }
    }
    if pin_budget_kb > 0 && cache_kb == 0 {
        return Err("--pin-budget-kb requires --cache-kb (the pinned tier fills through the cache)".into());
    }
    if resume {
        if engine_name != "mlvc" {
            return Err("resume supports only --engine mlvc".into());
        }
        if a.get("ssd-dir").is_none() {
            return Err("resume needs --ssd-dir (the device holding the checkpoints)".into());
        }
    }

    let g = load_graph(path)?;
    if source as usize >= g.num_vertices() {
        return Err(format!("--source {source} out of range"));
    }
    let app = make_app(app_name, &g, source)?;
    let mut cfg = EngineConfig::default()
        .with_memory(memory_kb << 10)
        .with_seed(seed)
        .with_async(a.has("async"))
        .with_obs(metrics_path.is_some());
    if checkpoint_every > 0 {
        cfg = cfg.with_checkpoint_every(checkpoint_every);
    }
    if cache_kb > 0 {
        cfg = cfg.with_tiering(TieringConfig {
            cache_bytes: cache_kb << 10,
            pin_budget_bytes: pin_budget_kb << 10,
        });
    }
    cfg.validate().map_err(|e| e.to_string())?;
    let iv = VertexIntervals::for_graph(&g, 16, cfg.sort_budget());

    println!(
        "{} {app_name} on {path} ({} vertices, {} edges) with {engine_name}, {} KiB budget",
        if resume { "resuming" } else { "running" },
        g.num_vertices(),
        g.num_edges(),
        memory_kb
    );
    let report: RunReport = match engine_name {
        "mlvc" => {
            let ssd = make_ssd(a)?;
            let sg = StoredGraph::store_with(&ssd, &g, "cli", iv).map_err(dev)?;
            if crash_after > 0 {
                ssd.install_fault_plan(FaultPlan::crash_after(crash_after, seed));
            }
            ssd.stats().reset();
            let mut e = MultiLogEngine::new(ssd, sg, cfg);
            let r = if resume {
                e.run_recoverable(app.as_ref(), steps)
            } else {
                e.run(app.as_ref(), steps)
            };
            print_states_summary(app_name, e.states());
            r
        }
        "graphchi" => {
            let ssd = make_ssd(a)?;
            let mut e = GraphChiEngine::new(Arc::clone(&ssd), &g, iv, cfg).map_err(dev)?;
            if crash_after > 0 {
                ssd.install_fault_plan(FaultPlan::crash_after(crash_after, seed));
            }
            ssd.stats().reset();
            let r = e.run(app.as_ref(), steps);
            print_states_summary(app_name, e.states());
            r
        }
        "grafboost" => {
            let ssd = make_ssd(a)?;
            let sg = StoredGraph::store_with(&ssd, &g, "cli", iv).map_err(dev)?;
            if crash_after > 0 {
                ssd.install_fault_plan(FaultPlan::crash_after(crash_after, seed));
            }
            ssd.stats().reset();
            let mut e = GrafBoostEngine::new(ssd, sg, cfg);
            let r = e.run(app.as_ref(), steps);
            print_states_summary(app_name, e.states());
            r
        }
        "reference" => {
            let mut e = ReferenceEngine::new(g.clone(), seed);
            let r = e.run(app.as_ref(), steps);
            print_states_summary(app_name, e.states());
            r
        }
        other => return Err(format!("unknown --engine {other}")),
    };

    println!("\nsuperstep | active | msgs in | pages R | pages W | sim ms");
    for s in &report.supersteps {
        println!(
            "{:9} | {:6} | {:7} | {:7} | {:7} | {:6.2}{}",
            s.superstep,
            s.active_vertices,
            s.messages_processed,
            s.io.pages_read,
            s.io.pages_written,
            s.sim_time_ns() as f64 / 1e6,
            if s.checkpointed { "  ckpt" } else { "" }
        );
    }
    // Host wall-clock, beside the simulated clock above and never mixed
    // with it. The owner-thread rows follow one another, so they sum to the
    // supersteps row less what no timer names. Load + sort are measured
    // inside the decode of a fused batch, whoever runs it: inside fetch wait
    // when the owner does, beside the owner's work on the batch before when
    // a look-ahead worker was handed it.
    let [fetch_wait, assemble, adjacency, process, scatter, apply, close_out] =
        report.owner_totals_ns();
    let [load, sort, ..] = report.stage_totals_ns();
    println!("\nstage          | host wall ms");
    for (stage, ns) in [
        ("fetch wait", fetch_wait),
        ("assemble", assemble),
        ("adjacency", adjacency),
        ("process", process),
        ("scatter", scatter),
        ("apply", apply),
        ("close-out", close_out),
        ("supersteps", report.supersteps.iter().map(|s| s.wall_ns).sum()),
        ("load (decode)", load),
        ("sort (decode)", sort),
    ] {
        println!("{stage:14} | {:12.2}", ns as f64 / 1e6);
    }
    let [inline, handed_off] = report.batch_totals();
    println!("fused batches: {inline} decoded by the owner, {handed_off} handed to a worker");
    if let Some(from) = report.resumed_from {
        println!("\nresumed from the checkpoint at superstep {from}");
    }
    if let Some(path) = metrics_path {
        write_metrics(path, &report)?;
    }
    println!(
        "\nconverged: {}; total {:.2} ms simulated ({:.0}% storage)",
        report.converged,
        report.total_sim_time_ns() as f64 / 1e6,
        100.0 * report.storage_fraction()
    );
    if let Some(e) = &report.interrupted {
        println!("run interrupted: {e}");
        if a.get("ssd-dir").is_some() {
            println!(
                "recover with: mlvc resume --app {app_name} --graph {path} --ssd-dir {}",
                a.get("ssd-dir").unwrap_or("<dir>")
            );
        }
    }
    Ok(())
}

/// Emit the observability artifacts of a run: the per-superstep trace as
/// JSON lines at `path` and a Prometheus text snapshot at `path.prom`,
/// plus the amplification summary on stdout (DESIGN.md §13).
fn write_metrics(path: &str, report: &RunReport) -> Result<(), String> {
    std::fs::write(path, report.trace_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    let prom = format!("{path}.prom");
    std::fs::write(&prom, report.prometheus_text()).map_err(|e| format!("{prom}: {e}"))?;
    let amp = |v: Option<f64>| v.map_or("n/a".to_string(), |x| format!("{x:.3}"));
    println!(
        "metrics: {} trace records -> {path}, registry -> {prom}",
        report.metrics().len()
    );
    println!(
        "read amplification {}; flash write amplification {}",
        amp(report.read_amplification()),
        amp(report.write_amplification())
    );
    Ok(())
}

/// Threads each served job's engine gets when `workers` jobs run at once on
/// `threads` hardware threads: an equal share, never none.
fn serve_engine_threads(threads: usize, workers: usize) -> usize {
    (threads / workers.max(1)).max(1)
}

/// `mlvc serve`: long-running multi-tenant daemon (DESIGN.md §15). Stores
/// the `--graphs` datasets once on one shared device, then executes jobs
/// arriving as JSON lines (stdin or `--requests FILE`) on a bounded
/// worker pool behind admission control and a shared page cache. Reply
/// events stream to stdout, one JSON object per line.
fn cmd_serve(a: &Args) -> Result<(), String> {
    let specs = a.get("graphs").ok_or("serve needs --graphs name=file[,name=file...]")?;
    let memory_kb: usize = a.get_parsed("memory-kb", 65536)?;
    let cache_kb: usize = a.get_parsed("cache-kb", 8192)?;
    let pin_budget_kb: usize = a.get_parsed("pin-budget-kb", 0)?;
    let workers: usize = a.get_parsed("workers", 4)?;
    // The workers run jobs side by side, so they share the threads between
    // them; an explicit MLVC_THREADS is the operator's word on each job's.
    if std::env::var_os("MLVC_THREADS").is_none() {
        let threads = serve_engine_threads(multilogvc::par::max_threads(), workers);
        multilogvc::par::set_thread_override(Some(threads));
    }

    let ssd = make_ssd(a)?;
    let cache_pages = ((cache_kb << 10) / ssd.page_size()).max(1);
    let cfg = ServeConfig {
        memory_budget: memory_kb << 10,
        cache_pages,
        workers,
        pin_budget_bytes: pin_budget_kb << 10,
    };
    let mut daemon = Daemon::with_device(cfg, Arc::clone(&ssd));
    for spec in specs.split(',') {
        let (name, path) = spec
            .split_once('=')
            .ok_or_else(|| format!("bad --graphs entry {spec:?} (want name=file)"))?;
        let g = load_graph(path)?;
        eprintln!(
            "serve: dataset {name} <- {path} ({} vertices, {} edges)",
            g.num_vertices(),
            g.num_edges()
        );
        daemon.add_dataset(name, &g).map_err(dev)?;
    }
    eprintln!(
        "serve: {} KiB budget, {cache_pages}-page shared cache, {workers} workers; \
         one JSON request per line",
        memory_kb
    );

    let served = match a.get("requests") {
        Some(path) => {
            let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
            daemon.serve(std::io::BufReader::new(f), std::io::stdout())
        }
        None => daemon.serve(std::io::stdin().lock(), std::io::stdout()),
    };
    served.map_err(|e| format!("serve transport: {e}"))?;

    if let Some(path) = a.get("metrics") {
        std::fs::write(path, daemon.prometheus_rollup())
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("serve: metrics rollup -> {path}");
    }
    Ok(())
}

/// Parse a text mutation batch: one `add <src> <dst>` or
/// `remove <src> <dst>` per line, blank lines and `#` comments ignored.
fn load_batch(path: &str) -> Result<Vec<EdgeMutation>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |what: &str| format!("{path}:{}: {what}: {raw:?}", i + 1);
        let mut it = line.split_whitespace();
        let op = it.next().ok_or_else(|| bad("missing op"))?;
        let src: u32 =
            it.next().ok_or_else(|| bad("missing src"))?.parse().map_err(|_| bad("bad src"))?;
        let dst: u32 =
            it.next().ok_or_else(|| bad("missing dst"))?.parse().map_err(|_| bad("bad dst"))?;
        if it.next().is_some() {
            return Err(bad("trailing tokens"));
        }
        out.push(match op {
            "add" => EdgeMutation::add(src, dst),
            "remove" | "rm" => EdgeMutation::remove(src, dst),
            _ => return Err(bad("op must be add or remove")),
        });
    }
    Ok(out)
}

/// `mlvc ingest`: apply an edge-mutation batch to a stored graph through
/// the on-device mutation log (DESIGN.md §17). With `--app` the base
/// graph is solved first and the app incrementally re-converges after
/// the merge; without it the batch is merged directly.
fn cmd_ingest(a: &Args) -> Result<(), String> {
    let path = a.get("graph").ok_or("ingest needs --graph")?;
    let batch_path = a.get("batch").ok_or("ingest needs --batch")?;
    let steps: usize = a.get_parsed("steps", 50)?;
    let memory_kb: usize = a.get_parsed("memory-kb", 2048)?;
    let seed: u64 = a.get_parsed("seed", 42)?;
    let source: u32 = a.get_parsed("source", 0u32)?;

    let g = load_graph(path)?;
    if g.has_weights() {
        return Err("ingest supports only unweighted graphs".into());
    }
    let batch = load_batch(batch_path)?;
    if let Some(&m) = batch.iter().find(|m| {
        m.src as usize >= g.num_vertices() || m.dst as usize >= g.num_vertices()
    }) {
        return Err(format!(
            "batch vertex out of range: ({}, {}) on {} vertices",
            m.src,
            m.dst,
            g.num_vertices()
        ));
    }

    let cfg = EngineConfig::default().with_memory(memory_kb << 10).with_seed(seed);
    cfg.validate().map_err(|e| e.to_string())?;
    let iv = VertexIntervals::for_graph(&g, 16, cfg.sort_budget());
    let ssd = make_ssd(a)?;
    let sg = StoredGraph::store_with(&ssd, &g, "cli", iv.clone()).map_err(dev)?;
    let mut mlog = MutationLog::new(Arc::clone(&ssd), iv, MutationConfig::default(), "cli")
        .map_err(|e| format!("mutation log: {e}"))?;
    println!(
        "ingesting {} mutations from {batch_path} into {path} ({} vertices, {} edges)",
        batch.len(),
        g.num_vertices(),
        g.num_edges()
    );
    let ing = mlog.ingest(&batch).map_err(|e| format!("ingest: {e}"))?;
    println!("accepted {} ({} deduped in-batch)", ing.accepted, ing.deduped);

    let outcome = match a.get("app") {
        None => mlog.merge(&sg, cfg.queue_depth).map_err(|e| format!("merge: {e}"))?,
        Some(app_name) => {
            // Solve the base graph, then merge the pending batch and
            // incrementally re-converge from the previous states.
            let app = make_app(app_name, &g, source)?;
            let mut eng =
                MultiLogEngine::new(Arc::clone(&ssd), sg.with_device(Arc::clone(&ssd)), cfg.clone());
            let base = eng.run(app.as_ref(), steps);
            println!(
                "base run: {} supersteps, converged {}",
                base.supersteps.len(),
                base.converged
            );
            eng.attach_mutations(Arc::new(multilogvc::ssd::sync::Mutex::new(mlog)))
                .map_err(dev)?;
            let inc = eng.reconverge(app.as_ref(), steps);
            let stats = inc.mutations.unwrap_or_default();
            println!(
                "re-converged in {} supersteps (cold run above took {})",
                inc.supersteps.len(),
                base.supersteps.len()
            );
            print_states_summary(app_name, eng.states());
            multilogvc::mutate::MergeOutcome { delta: Default::default(), stats }
        }
    };
    println!(
        "merge: +{} -{} edges, {} intervals rewritten, {} dirty vertices",
        outcome.stats.edges_added,
        outcome.stats.edges_removed,
        outcome.stats.intervals_merged,
        outcome.stats.dirty_vertices
    );

    if let Some(out) = a.get("out") {
        let mutated = sg.to_csr().map_err(dev)?;
        save_graph(out, &mutated)?;
        println!("wrote {out}: {} vertices, {} stored edges", mutated.num_vertices(), mutated.num_edges());
    }
    Ok(())
}

fn print_states_summary(app: &str, states: &[u64]) {
    match app {
        "bfs" => {
            let reached = states.iter().filter(|&&s| Bfs::level(s).is_some()).count();
            let depth = states.iter().filter_map(|&s| Bfs::level(s)).max().unwrap_or(0);
            println!("reached {reached} vertices, max level {depth}");
        }
        "pagerank" => {
            let top = states
                .iter()
                .enumerate()
                .max_by(|a, b| PageRank::rank(*a.1).total_cmp(&PageRank::rank(*b.1)))
                .map(|(v, &s)| (v, PageRank::rank(s)));
            if let Some((v, r)) = top {
                println!("top rank: vertex {v} at {r:.4}");
            }
        }
        "wcc" | "cdlp" => {
            let mut labels: Vec<u64> = states.to_vec();
            labels.sort_unstable();
            labels.dedup();
            println!("{} distinct labels", labels.len());
        }
        "coloring" => {
            let max = states.iter().map(|&s| Coloring::color(s)).max().unwrap_or(0);
            println!("colors used: {}", max + 1);
        }
        "mis" => {
            let k = states
                .iter()
                .filter(|&&s| Mis::state(s) == multilogvc::apps::MisState::InSet)
                .count();
            println!("independent set size: {k}");
        }
        "kcore" => {
            let max = states.iter().map(|&s| KCore::coreness(s)).max().unwrap_or(0);
            println!("max coreness: {max}");
        }
        "randomwalk" => {
            println!("total visits: {}", states.iter().sum::<u64>());
        }
        "sssp" => {
            let reached = states.iter().filter(|&&s| Sssp::distance(s).is_some()).count();
            println!("reached {reached} vertices");
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parser_handles_flags_switches_positionals() {
        let raw = strs(&["--app", "bfs", "in.txt", "--async", "--steps", "9", "out.csr"]);
        let a = parse_args(&raw).unwrap();
        assert_eq!(a.get("app"), Some("bfs"));
        assert_eq!(a.get_parsed("steps", 0usize).unwrap(), 9);
        assert!(a.has("async"));
        assert_eq!(a.positional, vec!["in.txt", "out.csr"]);
        assert_eq!(a.get_parsed("memory-kb", 7usize).unwrap(), 7, "default");
    }

    #[test]
    fn parser_rejects_dangling_flag_and_bad_values() {
        assert!(parse_args(&strs(&["--app"])).is_err());
        let raw = strs(&["--steps", "abc"]);
        let a = parse_args(&raw).unwrap();
        assert!(a.get_parsed("steps", 0usize).is_err());
    }

    #[test]
    fn gen_stats_convert_run_end_to_end() {
        let dir = std::env::temp_dir().join(format!("mlvc-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csr = dir.join("g.csr");
        let txt = dir.join("g.txt");
        let csr_s = csr.to_str().unwrap();
        let txt_s = txt.to_str().unwrap();

        run(&strs(&["gen", "--kind", "rmat-social", "--scale", "8", "--out", csr_s])).unwrap();
        run(&strs(&["stats", csr_s])).unwrap();
        run(&strs(&["convert", csr_s, txt_s])).unwrap();
        // Text and binary load to the same graph.
        let a = load_graph(csr_s).unwrap();
        let b = read_edge_list(
            File::open(&txt) .unwrap(),
            &EdgeListOptions {
                symmetrize: false,
                dedup: false,
                drop_self_loops: false,
                num_vertices: Some(a.num_vertices()),
            },
        )
        .unwrap();
        assert_eq!(a, b);

        for engine in ["mlvc", "graphchi", "grafboost", "reference"] {
            run(&strs(&[
                "run", "--app", "wcc", "--graph", csr_s, "--engine", engine, "--steps", "50",
            ]))
            .unwrap();
        }
        run(&strs(&[
            "run", "--app", "bfs", "--graph", csr_s, "--engine", "mlvc", "--async", "--steps",
            "50",
        ]))
        .unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn metrics_flag_writes_trace_and_prometheus() {
        let dir = std::env::temp_dir().join(format!("mlvc-cli-obs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let csr = dir.join("g.csr");
        let csr_s = csr.to_str().unwrap();
        let metrics = dir.join("metrics.jsonl");
        let metrics_s = metrics.to_str().unwrap();

        run(&strs(&["gen", "--kind", "rmat-social", "--scale", "8", "--out", csr_s])).unwrap();
        run(&strs(&[
            "run", "--app", "pagerank", "--graph", csr_s, "--steps", "5",
            "--metrics", metrics_s,
        ]))
        .unwrap();

        // The trace is valid JSONL with the paper's I/O accounting fields.
        let text = std::fs::read_to_string(&metrics).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2, "seed phase + at least one superstep");
        for line in &lines {
            let v = multilogvc::obs::json::parse(line).unwrap();
            for field in multilogvc::obs::TRACE_FIELDS {
                assert!(v.get(field).is_some(), "missing {field}");
            }
            assert!(v.get("read_amplification").is_some());
        }
        // Some superstep read pages and appended log bytes.
        let total = |f: &str| -> f64 {
            lines.iter().map(|l| {
                multilogvc::obs::json::parse(l).unwrap().get(f).and_then(|x| x.as_num()).unwrap()
            }).sum()
        };
        assert!(total("pages_read") > 0.0);
        assert!(total("log_bytes_appended") > 0.0);

        // The Prometheus snapshot exists and exposes the device counters.
        let prom = std::fs::read_to_string(format!("{metrics_s}.prom")).unwrap();
        assert!(prom.contains("# TYPE mlvc_ssd_pages_read_total counter"));
        assert!(prom.contains("mlvc_log_bytes_appended_total"));

        // What only the mlvc engine reads is refused on the others, by name.
        for engine in ["graphchi", "grafboost", "reference"] {
            for flag in [
                &["--metrics", metrics_s][..],
                &["--cache-kb", "64"],
                &["--async"],
                &["--checkpoint-every", "2"],
            ] {
                let mut args =
                    vec!["run", "--app", "pagerank", "--graph", csr_s, "--engine", engine];
                args.extend_from_slice(flag);
                let err = run(&strs(&args)).unwrap_err();
                assert_eq!(err, format!("{} supports only --engine mlvc", flag[0]));
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn crash_then_resume_round_trip() {
        let dir = std::env::temp_dir().join(format!("mlvc-cli-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let csr = dir.join("g.csr");
        let csr_s = csr.to_str().unwrap();
        let dev = dir.join("dev");
        let dev_s = dev.to_str().unwrap();

        run(&strs(&["gen", "--kind", "rmat-social", "--scale", "7", "--out", csr_s])).unwrap();
        // Checkpointed run that crashes partway through.
        run(&strs(&[
            "run", "--app", "pagerank", "--graph", csr_s, "--ssd-dir", dev_s,
            "--checkpoint-every", "2", "--crash-after", "400", "--steps", "10",
        ]))
        .unwrap();
        // Resume from the last durable checkpoint on the same device.
        run(&strs(&[
            "resume", "--app", "pagerank", "--graph", csr_s, "--ssd-dir", dev_s,
            "--steps", "10",
        ]))
        .unwrap();
        // resume demands mlvc + --ssd-dir.
        assert!(run(&strs(&[
            "resume", "--app", "pagerank", "--graph", csr_s, "--ssd-dir", dev_s,
            "--engine", "graphchi",
        ]))
        .is_err());
        assert!(run(&strs(&["resume", "--app", "pagerank", "--graph", csr_s])).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn serve_subcommand_runs_a_request_file_session() {
        let dir = std::env::temp_dir().join(format!("mlvc-cli-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let csr = dir.join("g.csr");
        let csr_s = csr.to_str().unwrap();
        run(&strs(&["gen", "--kind", "rmat-social", "--scale", "7", "--out", csr_s])).unwrap();

        let reqs = dir.join("session.jsonl");
        let reqs_s = reqs.to_str().unwrap();
        std::fs::write(
            &reqs,
            "{\"op\":\"run\",\"id\":\"s1\",\"app\":\"bfs\",\"dataset\":\"g\",\"memory_kb\":1024,\"steps\":8}\n\
             {\"op\":\"run\",\"id\":\"s2\",\"app\":\"wcc\",\"dataset\":\"g\",\"memory_kb\":1024,\"steps\":8}\n\
             {\"op\":\"run\",\"id\":\"s3\",\"app\":\"bfs\",\"dataset\":\"missing\"}\n\
             {\"op\":\"shutdown\"}\n",
        )
        .unwrap();
        let metrics = dir.join("serve.prom");
        let metrics_s = metrics.to_str().unwrap();

        let threads = multilogvc::par::max_threads();
        run(&strs(&[
            "serve", "--graphs", &format!("g={csr_s}"), "--memory-kb", "16384",
            "--workers", "2", "--requests", reqs_s, "--metrics", metrics_s,
        ]))
        .unwrap();
        // Two workers share the threads, unless MLVC_THREADS fixed each
        // job's count.
        let share = match std::env::var_os("MLVC_THREADS") {
            None => serve_engine_threads(threads, 2),
            Some(_) => threads,
        };
        assert_eq!(multilogvc::par::max_threads(), share);
        multilogvc::par::set_thread_override(None);

        let prom = std::fs::read_to_string(&metrics).unwrap();
        assert!(prom.contains("mlvc_serve_device_pages_read_total"));
        assert!(prom.contains("job=\"s1\""));
        assert!(prom.contains("job=\"s2\""));
        assert!(!prom.contains("job=\"s3\""), "rejected jobs never ran");

        // Bad --graphs spec and missing --graphs both error cleanly.
        assert!(run(&strs(&["serve", "--graphs", "nonsense"])).is_err());
        assert!(run(&strs(&["serve", "--requests", reqs_s])).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn served_jobs_share_the_threads_and_never_get_none() {
        for threads in [1usize, 2, 8] {
            for workers in [0usize, 1, 2, 8] {
                let share = serve_engine_threads(threads, workers);
                assert!((1..=threads).contains(&share), "{threads} threads, {workers} workers");
                assert!(share * workers.max(1) <= threads.max(workers), "oversubscribed");
            }
        }
        assert_eq!(serve_engine_threads(8, 2), 4);
        assert_eq!(serve_engine_threads(2, 4), 1);
    }

    #[test]
    fn ingest_applies_a_batch_and_reconverges() {
        let dir = std::env::temp_dir().join(format!("mlvc-cli-ingest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let csr = dir.join("g.csr");
        let csr_s = csr.to_str().unwrap();
        let out = dir.join("mutated.csr");
        let out_s = out.to_str().unwrap();
        let batch = dir.join("batch.txt");
        let batch_s = batch.to_str().unwrap();

        run(&strs(&["gen", "--kind", "rmat-social", "--scale", "7", "--out", csr_s])).unwrap();
        let before = load_graph(csr_s).unwrap();
        std::fs::write(
            &batch,
            "# connect 1 -> 2 both ways, drop an existing edge\n\
             add 1 2\nadd 2 1\nadd 1 2\n\nremove 0 1\n",
        )
        .unwrap();

        // Direct merge (no app) writes the mutated snapshot.
        run(&strs(&[
            "ingest", "--graph", csr_s, "--batch", batch_s, "--out", out_s,
        ]))
        .unwrap();
        let got = load_graph(out_s).unwrap();
        let (expect, delta) = multilogvc::mutate::apply_to_csr(
            &before,
            &[
                EdgeMutation::add(1, 2),
                EdgeMutation::add(2, 1),
                EdgeMutation::remove(0, 1),
            ],
        )
        .unwrap();
        assert_eq!(got, expect, "on-device merge matches the in-memory golden path");
        assert!(!delta.is_empty() || before == expect);

        // Incremental re-convergence path.
        run(&strs(&[
            "ingest", "--graph", csr_s, "--batch", batch_s, "--app", "wcc", "--steps", "50",
        ]))
        .unwrap();

        // Malformed batches error with the offending line.
        std::fs::write(&batch, "add 1\n").unwrap();
        assert!(run(&strs(&["ingest", "--graph", csr_s, "--batch", batch_s])).is_err());
        std::fs::write(&batch, "frob 1 2\n").unwrap();
        assert!(run(&strs(&["ingest", "--graph", csr_s, "--batch", batch_s])).is_err());
        std::fs::write(&batch, "add 1 999999\n").unwrap();
        assert!(run(&strs(&["ingest", "--graph", csr_s, "--batch", batch_s])).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn unknown_commands_and_apps_error_cleanly() {
        assert!(run(&strs(&["frobnicate"])).is_err());
        assert!(run(&strs(&[])).is_err());
        let g = mlvc_gen::path(4);
        assert!(make_app("nope", &g, 0).is_err());
        assert!(make_app("sssp", &g, 0).is_err(), "unweighted graph rejected");
    }
}
