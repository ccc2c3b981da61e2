//! What the benchmark prints and writes: the environment header, the
//! metric tables with a sample count beside every value, the result
//! document `--compare` reads, and the one-line result the driver reads.

use std::collections::BTreeMap;
use std::process::Command;

use multilogvc::obs::json_escape;

use crate::harness::{Outcome, Reps};
use crate::inputs::Sizes;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{Summary, TAIL_SAMPLES};

/// First line of `cmd args`' output, or "unknown" (the acceptance driver's
/// checkout is not a git repository).
fn tool_line(cmd: &str, args: &[&str]) -> String {
    let out = Command::new(cmd).args(args).output();
    let line = out.ok().filter(|o| o.status.success()).and_then(|o| {
        String::from_utf8_lossy(&o.stdout)
            .lines()
            .next()
            .map(str::to_string)
    });
    line.filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how a pass ran; printed first and embedded in every file.
pub struct Env {
    pub nproc: usize,
    pub seed: u64,
    pub reps: Reps,
    pub sizes: Sizes,
    pub traced: bool,
    pub git_rev: String,
    pub rustc: String,
}

impl Env {
    pub fn detect(nproc: usize, seed: u64, reps: Reps, sizes: Sizes, traced: bool) -> Env {
        Env {
            nproc,
            seed,
            reps,
            sizes,
            traced,
            git_rev: tool_line("git", &["rev-parse", "HEAD"]),
            rustc: tool_line("rustc", &["--version"]),
        }
    }

    fn reps_text(&self) -> String {
        match self.reps {
            Reps::Seconds(s) => format!("{s} s per workload"),
            Reps::Jobs(n) => format!("{n} jobs per loop"),
        }
    }

    pub fn print(&self) {
        let s = &self.sizes;
        println!(
            "# mlvc-benchmark: {} pass",
            if self.traced {
                "traced"
            } else {
                "end-to-end (tracing off)"
            }
        );
        println!(
            "# nproc {}  seed {}  reps {}",
            self.nproc,
            self.seed,
            self.reps_text()
        );
        println!(
            "# scales: batch cf_mini({}) / {} KiB, serve {} / {} KiB per job, mutate cf_mini({}) / \
             {} KiB, drills cf_mini({})",
            s.batch_scale,
            s.batch_budget >> 10,
            s.serve_scale,
            s.serve_job_kb,
            s.mutate_scale,
            s.mutate_budget >> 10,
            s.drill_scale
        );
        println!("# git {}  {}", self.git_rev, self.rustc);
    }

    /// The header as a JSON object; `threads` is the pinned engine thread
    /// count per workload run.
    pub fn to_json(&self, threads: &BTreeMap<&str, usize>) -> String {
        let s = &self.sizes;
        let pinned: Vec<String> = threads
            .iter()
            .map(|(w, n)| format!("{}:{n}", json_escape(w)))
            .collect();
        format!(
            "{{\"nproc\":{},\"seed\":{},\"reps\":{},\"traced\":{},\"git_rev\":{},\"rustc\":{},\
             \"threads\":{{{}}},\"scales\":{{\"batch\":{},\"serve\":{},\"mutate\":{},\"drill\":{}}},\
             \"budgets_kib\":{{\"batch\":{},\"tier_cache\":{},\"tier_pin\":{},\"serve_job\":{},\
             \"mutate\":{}}}}}",
            self.nproc,
            self.seed,
            json_escape(&self.reps_text()),
            self.traced,
            json_escape(&self.git_rev),
            json_escape(&self.rustc),
            pinned.join(","),
            s.batch_scale,
            s.serve_scale,
            s.mutate_scale,
            s.drill_scale,
            s.batch_budget >> 10,
            s.tier_cache >> 10,
            s.tier_pin >> 10,
            s.serve_job_kb,
            s.mutate_budget >> 10,
        )
    }
}

/// Rows of the end-to-end table that are for the reader and not gated.
const UNGATED: [(&str, &str); 2] = [("job_wall_raw_s", "s"), ("machine_speed", "ratio")];

/// Name and unit of the metrics a pass reports, in table order.
fn table(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// Print one workload's metrics by name, each with its unit, quartiles
/// and sample count.
pub fn print_outcome(o: &Outcome, traced: bool) {
    println!();
    println!(
        "## {}  (engine threads pinned: {}; took {:.1} s)",
        o.workload, o.threads, o.took_s
    );
    println!("# {}", o.inputs);
    println!(
        "{:<38} {:>16} {:<14} {:>14} {:>14} {:>6}",
        "metric", "value", "unit", "q1", "q3", "n"
    );
    let ungated = UNGATED
        .into_iter()
        .filter(|(name, _)| o.metrics.contains_key(name));
    for (name, unit) in table(traced).into_iter().chain(ungated) {
        let s = o
            .metrics
            .get(name)
            .copied()
            .unwrap_or(Summary::single(0.0, 0));
        let note = match name {
            "job_wall_p90_s" if s.n / 10 < TAIL_SAMPLES => {
                "  (no 10 samples beyond p90: the median)"
            }
            "job_wall_raw_s" => "  (as clocked; not gated)",
            "machine_speed" => "  (nominal kernel time / measured; not gated)",
            _ => "",
        };
        println!(
            "{name:<38} {:>16.6} {unit:<14} {:>14.6} {:>14.6} {:>6}{note}",
            s.value, s.q1, s.q3, s.n
        );
    }
    let fail_frac = o.failed as f64 / o.attempted.max(1) as f64;
    println!(
        "{:<38} {fail_frac:>16.6} {:<14} {:>14} {:>14} {:>6}",
        "fail_frac", "ratio", "", "", o.attempted
    );
    for p in &o.problems {
        println!("! {p}");
    }
}

fn metrics_json(o: &Outcome, traced: bool, full: bool) -> String {
    // The result document also carries the ungated rows; the driver's
    // line carries exactly the metrics `BENCHMARK.json` names.
    let ungated = UNGATED
        .into_iter()
        .filter(|(name, _)| full && o.metrics.contains_key(name));
    let items: Vec<String> = table(traced)
        .into_iter()
        .chain(ungated)
        .map(|(name, unit)| {
            let s = o
                .metrics
                .get(name)
                .copied()
                .unwrap_or(Summary::single(0.0, 0));
            let stats = if full {
                format!(",\"q1\":{},\"q3\":{},\"n\":{}", s.q1, s.q3, s.n)
            } else {
                String::new()
            };
            format!(
                "{}:{{\"value\":{},\"unit\":{}{stats}}}",
                json_escape(name),
                s.value,
                json_escape(unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

/// `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — exactly the
/// keys the acceptance driver reads; `full` adds quartiles and sample
/// counts to each metric for the result document.
pub fn outcome_json(o: &Outcome, traced: bool, full: bool) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed,
        metrics_json(o, traced, full)
    )
}

/// The result document of a pass: header plus every workload's outcome.
pub fn result_json(env: &Env, outcomes: &[Outcome]) -> String {
    let threads = outcomes.iter().map(|o| (o.workload, o.threads)).collect();
    let items: Vec<String> = outcomes
        .iter()
        .map(|o| {
            format!(
                "{}:{}",
                json_escape(o.workload),
                outcome_json(o, env.traced, true)
            )
        })
        .collect();
    format!(
        "{{\"env\":{},\n\"workloads\":{{\n{}\n}}}}\n",
        env.to_json(&threads),
        items.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use multilogvc::obs::json::{self, Json};

    fn outcome(traced: bool) -> Outcome {
        let metrics = table(traced)
            .into_iter()
            .enumerate()
            .map(|(k, (name, _))| {
                (
                    name,
                    Summary {
                        value: k as f64 + 0.5,
                        q1: 0.25,
                        q3: 9.0,
                        n: 12,
                    },
                )
            })
            .collect();
        Outcome {
            attempted: 12,
            metrics,
            ..Outcome::new("pr-cf", "test".to_string())
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        for traced in [false, true] {
            let o = outcome(traced);
            let doc = json::parse(&outcome_json(&o, traced, false)).expect("parses");
            let keys: Vec<&str> = doc
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(doc.get("attempted").and_then(Json::as_num), Some(12.0));
            let metrics = doc.get("metrics").and_then(Json::as_obj).expect("metrics");
            assert_eq!(metrics.len(), table(traced).len());
            for ((name, value), (want, unit)) in metrics.iter().zip(table(traced)) {
                assert_eq!(name, want);
                let fields: Vec<&str> = value
                    .as_obj()
                    .expect("object")
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(fields, ["value", "unit"]);
                assert_eq!(value.get("unit").and_then(Json::as_str), Some(unit));
            }
        }
    }

    #[test]
    fn a_failed_job_makes_the_outcome_incorrect() {
        let mut o = outcome(false);
        o.failed = 1;
        assert!(!o.correct());
        let mut o = outcome(false);
        o.problems.push("states differ".to_string());
        let doc = json::parse(&outcome_json(&o, false, false)).expect("parses");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn result_document_parses_back_with_header_and_sample_counts() {
        let env = Env {
            nproc: 2,
            seed: 7,
            reps: Reps::Seconds(10.0),
            sizes: Sizes::full(),
            traced: false,
            git_rev: "abc\"def".to_string(),
            rustc: "rustc 1.0".to_string(),
        };
        let doc = json::parse(&result_json(&env, &[outcome(false)])).expect("parses");
        let header = doc.get("env").expect("env");
        assert_eq!(header.get("seed").and_then(Json::as_num), Some(7.0));
        assert_eq!(
            header.get("git_rev").and_then(Json::as_str),
            Some("abc\"def")
        );
        assert_eq!(
            header
                .get("threads")
                .and_then(|t| t.get("pr-cf"))
                .and_then(Json::as_num),
            Some(2.0)
        );
        let wall = doc
            .get("workloads")
            .and_then(|w| w.get("pr-cf"))
            .and_then(|w| w.get("metrics"))
            .and_then(|m| m.get("job_wall_s"))
            .expect("job_wall_s");
        assert_eq!(wall.get("n").and_then(Json::as_num), Some(12.0));
        assert_eq!(wall.get("q3").and_then(Json::as_num), Some(9.0));
    }
}
