//! The repo's benchmark: five named workloads measured end to end with
//! tracing off, and a separate traced pass that gives every layer a number
//! of its own. See `benchmark/README.md`.
//!
//! ```text
//! mlvc-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] [--out DIR]
//! mlvc-benchmark --smoke [--seed N] [--out DIR]
//! mlvc-benchmark --compare a.json b.json
//! ```

mod batch;
mod calibrate;
mod compare;
mod drills;
mod harness;
mod inputs;
mod metrics;
mod mutate;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use harness::{Ctx, Ledger, Outcome, Reps};
use inputs::Sizes;
use metrics::WORKLOADS;
use report::Env;
use trace::Tracer;

const USAGE: &str = "\
usage:
  mlvc-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] [--out DIR]
      run one workload (default: all five) for N seconds each (default 10)
      with tracing off and print the end-to-end metrics; --trace runs the
      separate traced pass instead and prints the per-layer metrics
  mlvc-benchmark --smoke [--seed N] [--out DIR]
      both passes over every workload and drill at scale 10, 2 jobs a loop
  mlvc-benchmark --compare a.json b.json
      hold result document b against a; exit 1 past a bound
workloads: pr-cf rw-cf pr-cf-tiered serve-mix wcc-mutate";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out_dir: PathBuf,
    compare: Option<(String, String)>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        traced: false,
        smoke: false,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        compare: None,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => out.workload = Some(value(&mut i)?.clone()).filter(|w| w != "all"),
            "--seed" => out.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--out" => out.out_dir = PathBuf::from(value(&mut i)?),
            "--smoke" => out.smoke = true,
            // `--trace` alone or `--trace 1` is the traced pass.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => (out.traced, i) = (false, i + 1),
                Some("1") => (out.traced, i) = (true, i + 1),
                _ => out.traced = true,
            },
            "--compare" => out.compare = Some((value(&mut i)?.clone(), value(&mut i)?.clone())),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if let Some(w) = &out.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    if !(out.seconds > 0.0 && out.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(out)
}

fn run_workload(ctx: &mut Ctx, name: &str) -> Outcome {
    let t = Instant::now();
    let before = ctx.probe.run();
    let mut out = match name {
        "serve-mix" => serve::run(ctx),
        "wcc-mutate" => mutate::run(ctx),
        batch => batch::run(ctx, batch),
    };
    if ctx.traced {
        // Per-layer times are as clocked; this says how fast the machine
        // was while they were.
        let speed = calibrate::correction(before, ctx.probe.run());
        out.metrics
            .insert("bench.machine_speed", stats::Summary::single(speed, 2));
    }
    out.took_s = t.elapsed().as_secs_f64();
    out
}

/// One pass over the chosen workloads: prints the tables, leaves the
/// result document (and the trace) in the output directory and returns the
/// outcomes.
fn pass(args: &Args, traced: bool, sizes: Sizes, reps: Reps) -> Vec<Outcome> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let env = Env::detect(nproc, args.seed, reps, sizes, traced);
    env.print();
    let mut ctx = Ctx {
        seed: args.seed,
        sizes,
        reps,
        nproc,
        out_dir: args.out_dir.clone(),
        traced,
        tracer: Tracer::new(traced),
        next_job: 0,
        probe: calibrate::Probe::new(),
    };
    // The drills belong to no workload; every traced table carries them.
    let mut drilled = Ledger::default();
    if traced {
        let t = Instant::now();
        drills::run(&ctx, &mut drilled);
        println!("# drills took {:.1} s", t.elapsed().as_secs_f64());
    }
    let drilled = drilled.per_layer();
    let mut outcomes = Vec::new();
    for (name, _) in WORKLOADS {
        if args.workload.as_deref().is_some_and(|w| w != name) {
            continue;
        }
        let mut o = run_workload(&mut ctx, name);
        o.metrics.extend(
            drilled
                .iter()
                .filter(|(_, s)| s.n > 0)
                .map(|(k, v)| (*k, *v)),
        );
        report::print_outcome(&o, traced);
        outcomes.push(o);
    }
    multilogvc::par::set_thread_override(None);

    let write = |file: &str, text: String| {
        let path = args.out_dir.join(file);
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        println!("# wrote {}", path.display());
    };
    println!();
    let threads = outcomes.iter().map(|o| (o.workload, o.threads)).collect();
    if traced {
        println!("# spans by name: count, total ms, self ms");
        for (name, (count, total, own)) in ctx.tracer.by_name() {
            println!(
                "# {name:<20} {count:>7} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        write("trace.json", ctx.tracer.to_json(&env.to_json(&threads)));
        write("result-traced.json", report::result_json(&env, &outcomes));
    } else {
        write("result.json", report::result_json(&env, &outcomes));
    }
    outcomes
}

/// The last line of standard output: one workload's result as the
/// acceptance driver reads it, or every workload's under its name.
fn last_line(outcomes: &[Outcome], traced: bool) -> String {
    if let [only] = outcomes {
        return report::outcome_json(only, traced, false);
    }
    let items: Vec<String> = outcomes
        .iter()
        .map(|o| {
            format!(
                "\"{}\":{}",
                o.workload,
                report::outcome_json(o, traced, false)
            )
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare::compare(a, b) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    std::fs::create_dir_all(&args.out_dir)
        .unwrap_or_else(|e| panic!("{}: {e}", args.out_dir.display()));

    let (outcomes, traced) = if args.smoke {
        let untraced = pass(&args, false, Sizes::smoke(), Reps::Jobs(2));
        println!();
        let mut all = pass(&args, true, Sizes::smoke(), Reps::Jobs(2));
        // The traced tables are printed last; an untraced mismatch still
        // fails the command.
        for (t, u) in all.iter_mut().zip(untraced) {
            t.attempted += u.attempted;
            t.failed += u.failed;
            t.problems.extend(u.problems);
        }
        (all, true)
    } else {
        (
            pass(
                &args,
                args.traced,
                Sizes::full(),
                Reps::Seconds(args.seconds),
            ),
            args.traced,
        )
    };
    let correct = outcomes.iter().all(Outcome::correct);
    println!("{}", last_line(&outcomes, traced));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args(&[
            "--workload",
            "rw-cf",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "0",
        ])
        .expect("parses");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.traced),
            (Some("rw-cf"), 7, 3.0, false)
        );
        let a = args(&["--trace", "1", "--workload", "serve-mix"]).expect("parses");
        assert!(a.traced && a.workload.as_deref() == Some("serve-mix"));
        let a = args(&["--seed", "9", "--trace"]).expect("parses");
        assert!(a.traced && a.workload.is_none() && a.seed == 9);
        assert!(args(&["--workload", "all"])
            .expect("parses")
            .workload
            .is_none());
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        assert!(args(&["--compare", "a.json"]).is_err());
    }

    /// `--smoke` end to end: every workload, both passes, every drill, at
    /// scale 10 — and every metric of both tables comes out.
    #[test]
    fn smoke_runs_every_workload_and_reports_every_metric() {
        let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out/test-smoke"));
        std::fs::create_dir_all(&out_dir).expect("output directory");
        let a = Args {
            smoke: true,
            out_dir: out_dir.clone(),
            ..args(&[]).expect("defaults")
        };
        for traced in [false, true] {
            let outcomes = pass(&a, traced, Sizes::smoke(), Reps::Jobs(2));
            assert_eq!(outcomes.len(), WORKLOADS.len());
            for o in &outcomes {
                assert!(o.correct(), "{}: {:?}", o.workload, o.problems);
                assert!(o.attempted >= 2, "{} attempted {}", o.workload, o.attempted);
            }
            let line = last_line(&outcomes, traced);
            let doc = multilogvc::obs::json::parse(&line).expect("the last line parses");
            let table = doc
                .get("pr-cf")
                .and_then(|w| w.get("metrics"))
                .expect("metrics");
            let want = if traced {
                metrics::PER_LAYER.len()
            } else {
                metrics::END_TO_END.len()
            };
            assert_eq!(table.as_obj().map(<[_]>::len), Some(want));
        }
        // The files the passes leave parse back through the repo's own
        // JSON reader.
        for file in ["result.json", "result-traced.json", "trace.json"] {
            let text = std::fs::read_to_string(out_dir.join(file)).expect(file);
            multilogvc::obs::json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        }
        std::fs::remove_dir_all(&out_dir).ok();
    }
}
