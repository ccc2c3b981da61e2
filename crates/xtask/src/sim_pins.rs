//! `cargo run -p xtask -- sim-pins` — the simulated clock as a hard gate.
//!
//! `BENCH_sim.json` at the repo root holds, for the benchmark workloads
//! whose simulated-clock metrics repeat exactly for a seed, what they were
//! when it was last written. This runs the benchmark binary once per pinned
//! workload at the pinned seed and fails on any inequality: a host-side
//! change must leave every one of them where it is, and a change that means
//! to move one re-pins it in the same commit, in the open.

use std::path::Path;
use std::process::Command;

use mlvc_obs::json::{self, Json};

/// Run every workload pinned in `<root>/BENCH_sim.json` and compare.
/// `Ok` carries one line per mismatch (empty: all pins hold); `Err` means
/// the pins could not be checked at all.
pub fn check(root: &Path) -> Result<Vec<String>, String> {
    let path = root.join("BENCH_sim.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let pins = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let seed = pins.get("seed").and_then(Json::as_num).ok_or("BENCH_sim.json: no `seed`")?;
    let workloads = pins
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("BENCH_sim.json: no `workloads` object")?;
    let mut mismatches = Vec::new();
    for (workload, want) in workloads {
        let got = run_workload(root, workload, seed)?;
        for (metric, want) in want.as_obj().ok_or("BENCH_sim.json: a workload is not an object")? {
            let want = want.as_num().ok_or("BENCH_sim.json: a pin is not a number")?;
            let got = got
                .get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_num)
                .ok_or_else(|| format!("{workload}: the benchmark reports no `{metric}`"))?;
            if got != want {
                mismatches.push(format!("{workload}.{metric}: pinned {want}, measured {got}"));
            }
        }
    }
    Ok(mismatches)
}

/// One short run of one workload, tracing off; its last stdout line is the
/// result object the acceptance driver reads.
fn run_workload(root: &Path, workload: &str, seed: f64) -> Result<Json, String> {
    let out = Command::new(env!("CARGO"))
        .args(["run", "--release", "--quiet", "--manifest-path", "benchmark/Cargo.toml", "--"])
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "0"])
        .current_dir(root)
        .output()
        .map_err(|e| format!("{workload}: cannot run the benchmark: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload}: the benchmark exited with {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or_else(|| format!("{workload}: no output"))?;
    let result = json::parse(last).map_err(|e| format!("{workload}: last line: {e}"))?;
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload}: the run reports wrong output or failed jobs: {last}"));
    }
    Ok(result)
}
