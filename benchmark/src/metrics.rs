//! The metric tables: every name the benchmark prints, with its unit and
//! direction, and for end-to-end metrics the regression bound.
//! `BENCHMARK.json` at the repo root repeats these tables for the driver; a
//! unit test holds the two together.

pub const WORKLOADS: [(&str, &str); 5] = [
    ("pr-cf", "PageRank on CF: message-heavy steady state, so log, par and the core scatter/sort stages do most of the work"),
    ("rw-cf", "random walk on CF: sparse random frontier, so the graph loader, edge log and per-superstep fixed costs work and the logs idle"),
    ("pr-cf-tiered", "pr-cf with cache, pinned tier and log-tail retention in front of the device: the A/B that isolates the ssd cache path"),
    ("serve-mix", "closed-loop bfs/wcc/pagerank requests plus mutate lines through Daemon::serve: the only workload with serve on the path"),
    ("wcc-mutate", "rounds of mutation ingest then merge and incremental WCC: the only workload on the mutate and CSR-rewrite path"),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Repeats exactly for a seed on the single-job workloads, so
    /// `--compare` holds it to equality there when the seeds match.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
        exact,
    }
}

pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", false, 0.25, false),
    e2e("job_wall_s", "s", false, 0.25, false),
    e2e("job_wall_p90_s", "s", false, 0.25, false),
    e2e("jobs_per_s", "1/s", true, 0.25, false),
    e2e("sim_ms", "ms", false, 0.05, true),
    e2e("pages_read", "pages", false, 0.05, true),
    e2e("pages_written", "pages", false, 0.20, true),
    e2e("read_amp", "ratio", false, 0.05, true),
];

/// Workloads on which the `exact` metrics repeat exactly for a seed.
/// `serve-mix` interleaves concurrent jobs in a shared cache and
/// `pr-cf-tiered` interleaves prefetch workers in its cache, so both are
/// held to the bound instead.
pub const EXACT_WORKLOADS: [&str; 3] = ["pr-cf", "rw-cf", "wcc-mutate"];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Layer = crate name. Spans and counters first, drills after.
pub const PER_LAYER: [PerLayer; 72] = [
    lo("io.read_snapshot_ms", "ms"),
    lo("graph.intervals_ms", "ms"),
    lo("graph.store_ms", "ms"),
    lo("graph.store_pages", "pages"),
    lo("core.run_ms", "ms"),
    lo("core.cold_run_ms", "ms"),
    lo("core.load_ms", "ms"),
    lo("core.sort_ms", "ms"),
    lo("core.process_ms", "ms"),
    lo("core.scatter_ms", "ms"),
    lo("core.other_ms", "ms"),
    lo("core.supersteps", "count"),
    lo("core.msgs", "count"),
    lo("core.ns_per_msg", "ns/msg"),
    lo("core.io_wait_ms", "ms"),
    hi("core.thread_speedup", "ratio"),
    lo("core.thread_drift_pages", "pages"),
    lo("apps.process_ns_per_msg", "ns/msg"),
    lo("log.scatter_ns_per_msg", "ns/msg"),
    lo("log.read_sort_ns_per_msg", "ns/msg"),
    hi("log.msgs_per_page", "msgs/page"),
    lo("log.pages_flushed", "pages"),
    lo("log.evictions", "count"),
    hi("log.edgelog_hits", "count"),
    hi("log.edgelog_accuracy", "ratio"),
    lo("graph.colidx_inefficient_frac", "ratio"),
    hi("graph.edges_per_page_read", "edges/page"),
    lo("ssd.read_batches", "count"),
    lo("ssd.write_batches", "count"),
    hi("ssd.pages_per_read_batch", "pages"),
    lo("ssd.sim_read_ms", "ms"),
    lo("ssd.sim_write_ms", "ms"),
    lo("ssd.storage_frac", "ratio"),
    hi("ssd.cache_hits", "count"),
    lo("ssd.cache_misses", "count"),
    hi("ssd.cache_hit_frac", "ratio"),
    lo("ssd.cache_evictions", "count"),
    hi("ssd.pinned_pages", "pages"),
    hi("ssd.pinned_hits", "count"),
    lo("serve.add_dataset_ms", "ms"),
    lo("serve.run_job_overhead_ms", "ms"),
    lo("serve.queued_frac", "ratio"),
    lo("serve.rejected", "count"),
    hi("serve.cross_tenant_hits", "count"),
    lo("serve.mutate_ms", "ms"),
    hi("mutate.ingest_edges_per_s", "edges/s"),
    lo("mutate.merge_pages_written", "pages"),
    lo("mutate.intervals_merged", "count"),
    lo("mutate.reconverge_ms", "ms"),
    lo("mutate.reconverge_supersteps", "count"),
    hi("mutate.cold_over_incremental", "ratio"),
    lo("obs.overhead_frac", "ratio"),
    hi("gen.rmat_edges_per_s", "edges/s"),
    lo("bench.trace_overhead_frac", "ratio"),
    hi("bench.machine_speed", "ratio"),
    // Drills: one public function each, on CF-shaped input.
    hi("ssd.mem.read_pages_per_s", "pages/s"),
    hi("ssd.mem.append_pages_per_s", "pages/s"),
    hi("ssd.dir.read_pages_per_s", "pages/s"),
    hi("ssd.dir.append_pages_per_s", "pages/s"),
    lo("ssd.dir.wall_over_sim", "ratio"),
    lo("ssd.queue_ns_per_req", "ns/req"),
    lo("ssd.cache_hit_ns_per_page", "ns/page"),
    lo("graph.load_dense_ns_per_edge", "ns/edge"),
    lo("graph.load_sparse_ns_per_vertex", "ns/vertex"),
    lo("graph.load_sparse_pages_per_kvertex", "pages/kvertex"),
    lo("par.fork_join_us", "us"),
    lo("par.sort_ns_per_elem", "ns/elem"),
    lo("log.send_batch_ns_per_msg", "ns/msg"),
    lo("recover.ckpt_write_ms", "ms"),
    lo("recover.ckpt_pages", "pages"),
    lo("serve.parse_ns_per_line", "ns/line"),
    hi("io.read_snapshot_mb_per_s", "MB/s"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use multilogvc::obs::json::{self, Json};

    fn better(higher_is_better: bool) -> &'static str {
        if higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }

    fn field<'a>(obj: &'a Json, key: &str) -> &'a str {
        obj.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("string field {key}"))
    }

    /// `BENCHMARK.json` is written by hand; this is what keeps it equal to
    /// the tables the program prints from.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");

        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        let names: Vec<&str> = workloads.iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, WORKLOADS.map(|(name, _)| name));
        for (w, (_, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(w, "why"), why);
            assert!(why.len() <= 200 && !why.contains('\n'));
        }

        let e2e = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), better(m.higher_is_better));
            assert_eq!(
                j.get("bound").and_then(Json::as_num),
                Some(m.bound),
                "{}",
                m.name
            );
            assert!(m.bound <= 0.25);
        }
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.higher_is_better),
            ("setup_s", "s", false)
        );
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );

        let layers = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128);
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), better(m.higher_is_better));
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(
                n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(u.len() <= 16, "{u}");
            assert!(
                u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{u}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
    }
}
