//! `--compare a.json b.json`: hold result document `b` against `a`.
//!
//! End-to-end metrics are held to the bound the benchmark fixes; on the
//! single-job workloads the metrics that repeat exactly for a seed are
//! held to equality when both documents ran the same seed. Per-layer
//! metrics are listed with their change and have no bound.

use multilogvc::obs::json::{self, Json};

use crate::metrics::{END_TO_END, EXACT_WORKLOADS, PER_LAYER, WORKLOADS};

struct Value {
    value: f64,
    q1: f64,
    q3: f64,
    n: f64,
}

fn metric(doc: &Json, workload: &str, name: &str) -> Option<Value> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(name)?;
    let num = |key: &str| m.get(key).and_then(Json::as_num);
    Some(Value {
        value: num("value")?,
        q1: num("q1")?,
        q3: num("q3")?,
        n: num("n")?,
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// How much worse `b` is than `a`, as a share of `a`; negative is better.
fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let delta = (b - a) / a.abs();
    if higher_is_better {
        -delta
    } else {
        delta
    }
}

/// One compared row and whether it is past its bound.
fn row(
    workload: &str,
    name: &str,
    a: &Value,
    b: &Value,
    worse: f64,
    rule: &str,
    past: bool,
) -> String {
    format!(
        "{:<13} {name:<36} {:>15.6} [{:.6} {:.6}] n={:<5} {:>15.6} [{:.6} {:.6}] n={:<5} {:>+9.2}% {rule}{}",
        workload,
        a.value,
        a.q1,
        a.q3,
        a.n,
        b.value,
        b.q1,
        b.q3,
        b.n,
        worse * 100.0,
        if past { "  PAST BOUND" } else { "" }
    )
}

/// Compare the result documents at two paths; `Ok(rows past a bound)`.
pub fn compare(path_a: &str, path_b: &str) -> Result<usize, String> {
    println!("# a = {path_a}\n# b = {path_b}");
    compare_docs(&load(path_a)?, &load(path_b)?)
}

fn compare_docs(a: &Json, b: &Json) -> Result<usize, String> {
    let seed = |d: &Json| {
        d.get("env")
            .and_then(|e| e.get("seed"))
            .and_then(Json::as_num)
    };
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    println!("# same seed: {same_seed}");
    println!("# workload, metric, a [q1 q3] n, b [q1 q3] n, how much worse b is, rule");
    let mut past = 0;
    let mut compared = 0;
    // Gated end-to-end metrics first, then the per-layer ones, which have
    // no bound.
    let gated = END_TO_END
        .iter()
        .map(|m| (m.name, m.higher_is_better, Some(m)));
    let ungated = PER_LAYER.iter().map(|m| (m.name, m.higher_is_better, None));
    let metrics: Vec<_> = gated.chain(ungated).collect();
    for (workload, _) in WORKLOADS {
        for &(name, higher_is_better, gate) in &metrics {
            let (Some(va), Some(vb)) = (metric(a, workload, name), metric(b, workload, name))
            else {
                continue;
            };
            compared += 1;
            let worse = worsening(va.value, vb.value, higher_is_better);
            let (rule, over) = match gate {
                Some(m) if m.exact && same_seed && EXACT_WORKLOADS.contains(&workload) => {
                    ("exact".to_string(), va.value != vb.value)
                }
                Some(m) => (format!("bound {:.0}%", m.bound * 100.0), worse > m.bound),
                None => ("no bound".to_string(), false),
            };
            past += usize::from(over);
            println!("{}", row(workload, name, &va, &vb, worse, &rule, over));
        }
    }
    if compared == 0 {
        return Err("the two documents share no (workload, metric) pair".to_string());
    }
    println!("# {compared} pairs compared, {past} past their bound");
    Ok(past)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(seed: u64, wall: f64, pages: f64) -> String {
        let m = |v: f64| format!("{{\"value\":{v},\"unit\":\"x\",\"q1\":{v},\"q3\":{v},\"n\":11}}");
        format!(
            "{{\"env\":{{\"seed\":{seed}}},\"workloads\":{{\"pr-cf\":{{\"metrics\":{{\
             \"job_wall_s\":{},\"jobs_per_s\":{},\"pages_read\":{}}}}},\
             \"serve-mix\":{{\"metrics\":{{\"pages_read\":{}}}}}}}}}",
            m(wall),
            m(1.0 / wall),
            m(pages),
            m(pages)
        )
    }

    fn compare_text(a: &str, b: &str) -> Result<usize, String> {
        let parse = |t: &str| json::parse(t).map_err(|e| e.to_string());
        compare_docs(&parse(a)?, &parse(b)?)
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(2.0, 2.2, false) - 0.1).abs() < 1e-12);
        assert!((worsening(2.0, 2.2, true) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, false), 0.0);
        assert_eq!(worsening(0.0, 1.0, false), f64::INFINITY);
    }

    #[test]
    fn wall_within_bound_passes_and_past_bound_fails() {
        assert_eq!(
            compare_text(&doc(1, 1.0, 100.0), &doc(1, 1.2, 100.0)),
            Ok(0)
        );
        // 40 % slower: job_wall_s and jobs_per_s both past 25 %.
        assert_eq!(
            compare_text(&doc(1, 1.0, 100.0), &doc(1, 1.4, 100.0)),
            Ok(2)
        );
        // Faster is never a regression.
        assert_eq!(
            compare_text(&doc(1, 1.0, 100.0), &doc(1, 0.5, 100.0)),
            Ok(0)
        );
    }

    #[test]
    fn exact_metrics_must_be_equal_on_single_job_workloads_with_one_seed() {
        // One page more: past on pr-cf (exact), within 5 % on serve-mix.
        assert_eq!(
            compare_text(&doc(1, 1.0, 100.0), &doc(1, 1.0, 101.0)),
            Ok(1)
        );
        // Different seeds: held to the bound everywhere.
        assert_eq!(
            compare_text(&doc(1, 1.0, 100.0), &doc(2, 1.0, 101.0)),
            Ok(0)
        );
        assert_eq!(
            compare_text(&doc(1, 1.0, 100.0), &doc(2, 1.0, 110.0)),
            Ok(2)
        );
    }

    #[test]
    fn unrelated_documents_are_an_error() {
        assert!(compare_text("{}", "{}").is_err());
        assert!(compare("no/such/a.json", "no/such/b.json").is_err());
    }
}
