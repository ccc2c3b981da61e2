//! `cargo run -p xtask -- sim-pins` — the simulated clock as a hard gate.
//!
//! `BENCH_sim.json` at the repo root holds, for the benchmark workloads
//! whose simulated-clock metrics repeat exactly for a seed, what they were
//! when it was last written. This runs the benchmark binary once per pinned
//! workload at the pinned seed and fails on any inequality: a host-side
//! change must leave every one of them where it is, and a change that means
//! to move one re-pins it in the same commit, in the open.
//!
//! Building the benchmark rewrites `benchmark/Cargo.lock`'s stale edges
//! (ROADMAP 6(ix)); the check snapshots the lock before its first build and
//! puts it back when it ends, failure included, so it leaves the lock
//! byte-identical.

use std::path::{Path, PathBuf};
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
    let _lock = LockSnapshot::take(&root.join("benchmark").join("Cargo.lock"));
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
                mismatches.push(format!(
                    "{workload}.{metric}: pinned {want}, measured {got} ({})",
                    relative_change(want, got)
                ));
            }
        }
    }
    Ok(mismatches)
}

/// A file's bytes as they were when taken, written back when dropped — or
/// the file removed, if there was none.
struct LockSnapshot {
    path: PathBuf,
    bytes: Option<Vec<u8>>,
}

impl LockSnapshot {
    fn take(path: &Path) -> Self {
        LockSnapshot { path: path.to_path_buf(), bytes: std::fs::read(path).ok() }
    }
}

impl Drop for LockSnapshot {
    fn drop(&mut self) {
        let restored = match &self.bytes {
            Some(bytes) => std::fs::write(&self.path, bytes),
            None => std::fs::remove_file(&self.path).or(Ok(())),
        };
        if let Err(e) = restored {
            eprintln!("sim-pins: cannot restore {}: {e}", self.path.display());
        }
    }
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

/// `got` against `want` as a signed percentage with one decimal, the sign a
/// true minus: the delta a re-pinning change states.
fn relative_change(want: f64, got: f64) -> String {
    if want == 0.0 {
        return "was 0".to_string();
    }
    let pct = (got - want) / want.abs() * 100.0;
    let text = format!("{:.1} %", pct.abs());
    if pct < 0.0 {
        format!("\u{2212}{text}")
    } else {
        format!("+{text}")
    }
}

#[cfg(test)]
mod tests {
    use super::relative_change;

    /// What the snapshot took is what the file holds once it is dropped,
    /// and a file that was not there is not left behind.
    #[test]
    fn a_lock_snapshot_puts_the_file_back() {
        let dir = std::env::temp_dir().join(format!("sim-pins-lock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let lock = dir.join("Cargo.lock");
        std::fs::write(&lock, b"as committed").unwrap();
        {
            let _snapshot = super::LockSnapshot::take(&lock);
            std::fs::write(&lock, b"rewritten by a build").unwrap();
        }
        assert_eq!(std::fs::read(&lock).unwrap(), b"as committed");
        std::fs::remove_file(&lock).unwrap();
        {
            let _snapshot = super::LockSnapshot::take(&lock);
            std::fs::write(&lock, b"made by a build").unwrap();
        }
        assert!(!lock.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_mismatch_states_its_relative_change() {
        assert_eq!(relative_change(556.587238, 402.880598), "\u{2212}27.6 %");
        assert_eq!(relative_change(200.0, 203.0), "+1.5 %");
        assert_eq!(relative_change(0.0, 3.0), "was 0");
    }
}
