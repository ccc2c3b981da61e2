//! `cargo run -p xtask -- lint [--report-waivers | FILE...]` and
//! `cargo run -p xtask -- sim-pins` — see the library docs.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") if args.get(1).map(String::as_str) == Some("--report-waivers") => {
            report_waivers()
        }
        Some("lint") => lint(&args[1..]),
        Some("sim-pins") => sim_pins(),
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint [--report-waivers | FILE...]");
            eprintln!("       cargo run -p xtask -- sim-pins");
            ExitCode::from(2)
        }
    }
}

/// Hold the benchmark's simulated-clock metrics to `BENCH_sim.json`.
fn sim_pins() -> ExitCode {
    match xtask::sim_pins::check(&xtask::workspace_root()) {
        Ok(mismatches) if mismatches.is_empty() => {
            eprintln!("sim-pins: every pinned metric repeats");
            ExitCode::SUCCESS
        }
        Ok(mismatches) => {
            for m in &mismatches {
                println!("{m}");
            }
            eprintln!("sim-pins: {} metric(s) moved", mismatches.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// List every waiver directive in the workspace with what it suppresses;
/// exit non-zero if any waiver is stale (suppresses nothing) so CI can
/// force dead directives to be pruned.
fn report_waivers() -> ExitCode {
    let root = xtask::workspace_root();
    match xtask::report_waivers(&root) {
        Ok(reports) => {
            let mut stale = 0;
            for r in &reports {
                let flag = if r.is_stale() {
                    stale += 1;
                    "  [STALE: suppresses nothing — delete this directive]"
                } else {
                    ""
                };
                println!(
                    "{}:{}: allow({}) -- {} [suppresses {}]{}",
                    r.file,
                    r.waiver.line,
                    r.waiver.rules.join(", "),
                    if r.waiver.reason.is_empty() { "<no reason>" } else { &r.waiver.reason },
                    r.waiver.suppressed,
                    flag,
                );
            }
            eprintln!("mlvc-lint: {} waiver(s), {stale} stale", reports.len());
            if stale == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn lint(files: &[String]) -> ExitCode {
    let root = xtask::workspace_root();
    let result = if files.is_empty() {
        xtask::lint_workspace(&root)
    } else {
        // Explicit files: lint each against its path relative to the
        // workspace root. Fixture files live under a `fixtures/` directory
        // whose subtree mirrors real workspace paths (rule scoping is
        // path-based), so everything through `fixtures/` is stripped first.
        let mut out = Vec::new();
        for f in files {
            let p = Path::new(f);
            let rel = p
                .strip_prefix(&root)
                .unwrap_or(p)
                .to_string_lossy()
                .replace('\\', "/");
            let rel = match rel.find("fixtures/") {
                Some(i) => rel[i + "fixtures/".len()..].to_string(),
                None => rel,
            };
            match xtask::lint_file(p, &rel) {
                Ok(d) => out.extend(d),
                Err(e) => {
                    eprintln!("error: {f}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        Ok(out)
    };
    match result {
        Ok(diags) => {
            for d in &diags {
                println!("{d}");
            }
            if diags.is_empty() {
                eprintln!("mlvc-lint: clean");
                ExitCode::SUCCESS
            } else {
                eprintln!("mlvc-lint: {} violation(s)", diags.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
