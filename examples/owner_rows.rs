//! Where a job's host time goes, on the job shape the benchmark's `pr-cf`
//! and `rw-cf` workloads run (`benchmark/README.md`): `cf_mini(17, 42)`
//! snapshot → `read_csr_binary` → `VertexIntervals::for_graph` →
//! `StoredGraph::store_with` → `MultiLogEngine::run` with a 4 MiB budget —
//! PageRank, or `RandomWalk::new(4, 1, 20)`. Prints the median and minimum
//! over the jobs of the job's wall, its four steps, the seven owner-thread
//! rows of `RunReport::owner_totals_ns`, and what the job cost in threads:
//! the threads it spawned (`mlvc_par::spawn_count`) and its fused batches by
//! who decoded them (`RunReport::batch_totals`). Exits 1 if the owner rows of
//! any job stop summing to within 10 % of its supersteps' wall (an
//! owner-thread stage without a timer), if a job on one thread spawns a
//! thread, or if a superstep with a fused batch has the owner decode none
//! (the first is always the owner's: nobody could have been given it).
//!
//! ```sh
//! cargo run --release --example owner_rows -- <pr|rw> [jobs] [threads]
//! ```
//!
//! Host-clock issues quote these rows; compare two commits by alternating
//! this tool's runs on each.

use std::fs::File;
use std::sync::Arc;
use std::time::Instant;

use multilogvc::graph::{VertexIntervals, UPDATE_BYTES};
use multilogvc::io::{read_csr_binary, write_csr_binary};
use multilogvc::prelude::*;

const ROWS: [&str; 16] = [
    "job",
    "read",
    "intervals",
    "store",
    "run",
    "fetch wait",
    "assemble",
    "adjacency",
    "process",
    "scatter",
    "apply",
    "close-out",
    "supersteps",
    "spawns",
    "batches inline",
    "batches handed off",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let prog: Box<dyn VertexProgram> = match args.first().map(String::as_str) {
        Some("pr") => Box::new(PageRank::default()),
        Some("rw") => Box::new(RandomWalk::new(4, 1, 20)),
        _ => {
            eprintln!("usage: owner_rows <pr|rw> [jobs] [threads]");
            std::process::exit(2);
        }
    };
    let number = |k: usize, default: usize| -> usize {
        args.get(k).map_or(default, |s| s.parse().expect("a count"))
    };
    let (jobs, threads) = (number(1, 9), number(2, 1));
    multilogvc::par::set_thread_override(Some(threads));

    let path = std::env::temp_dir().join(format!("owner_rows-{}.csr", std::process::id()));
    let graph = mlvc_gen::cf_mini(17, 42).graph;
    write_csr_binary(File::create(&path).expect("create the snapshot"), &graph)
        .expect("write the snapshot");
    let cfg = EngineConfig::default().with_memory(4 << 20).with_seed(42).with_tag("cli");

    // One discarded warm-up job, as the benchmark does.
    let mut samples: Vec<[f64; 16]> = Vec::new();
    for job in 0..=jobs {
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
        let spawned = multilogvc::par::spawn_count();
        let t_job = Instant::now();
        let g = read_csr_binary(File::open(&path).expect("open the snapshot"))
            .expect("read the snapshot");
        let read = ms(t_job);
        let t = Instant::now();
        let iv = VertexIntervals::for_graph(&g, UPDATE_BYTES, cfg.sort_budget());
        let intervals = ms(t);
        let t = Instant::now();
        let ssd = Arc::new(Ssd::new(SsdConfig::default()));
        let stored = StoredGraph::store_with(&ssd, &g, "cli", iv).expect("store the graph");
        let store = ms(t);
        let t = Instant::now();
        let mut engine = MultiLogEngine::new(ssd, stored, cfg.clone());
        let report = engine.run(prog.as_ref(), 30);
        let (run, wall) = (ms(t), ms(t_job));
        let spawned = multilogvc::par::spawn_count() - spawned;
        assert!(report.converged && report.interrupted.is_none(), "the run must complete");

        let owner = report.owner_totals_ns().map(|ns| ns as f64 / 1e6);
        let supersteps = report.supersteps.iter().map(|s| s.wall_ns).sum::<u64>() as f64 / 1e6;
        let named: f64 = owner.iter().sum();
        if (named - supersteps).abs() > 0.1 * supersteps {
            eprintln!("job {job}: owner rows sum to {named:.2} ms, supersteps to {supersteps:.2} ms");
            std::process::exit(1);
        }
        if multilogvc::par::max_threads() == 1 && spawned > 0 {
            eprintln!("job {job}: {spawned} thread(s) spawned by a job on one thread");
            std::process::exit(1);
        }
        if let Some(s) =
            report.supersteps.iter().find(|s| s.batches_handed_off > 0 && s.batches_inline == 0)
        {
            eprintln!("job {job}: superstep {} handed off every fused batch", s.superstep);
            std::process::exit(1);
        }
        if job > 0 {
            let mut row = [0.0; 16];
            row[..5].copy_from_slice(&[wall, read, intervals, store, run]);
            row[5..12].copy_from_slice(&owner);
            row[12] = supersteps;
            let [inline, handed_off] = report.batch_totals();
            row[13..].copy_from_slice(&[spawned, inline, handed_off].map(|n| n as f64));
            samples.push(row);
        }
    }
    std::fs::remove_file(&path).expect("remove the snapshot");

    println!(
        "{} x {jobs} jobs, {threads} engine thread(s), ms (last three rows: counts)",
        prog.name()
    );
    println!("{:18} | {:>9} | {:>9}", "row", "median", "min");
    for (k, name) in ROWS.iter().enumerate() {
        let mut col: Vec<f64> = samples.iter().map(|s| s[k]).collect();
        col.sort_by(f64::total_cmp);
        println!("{name:18} | {:9.2} | {:9.2}", col[col.len() / 2], col[0]);
    }
}
