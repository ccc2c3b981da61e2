#!/usr/bin/env bash
# Repo gate: static analysis first (cheap, catches format/determinism/panic
# regressions before any compile of the heavy test suite), then the tier-1
# build-and-test pass from ROADMAP.md.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== mlvc-lint =="
cargo run -q -p xtask -- lint

echo "== mlvc-lint: waiver audit =="
cargo run -q -p xtask -- lint --report-waivers

echo "== clippy (-D warnings) =="
# The two cast lints stay advisory (workspace [lints] sets them to warn;
# mlvc-lint's no-truncating-cast owns the on-disk-format crates where the
# risk is real); everything else is an error.
cargo clippy --workspace --all-targets -q -- -D warnings \
  -A clippy::cast-possible-truncation -A clippy::cast-sign-loss

echo "== rustdoc (-D warnings) =="
# Doc links name fields, functions and modules; a deletion that leaves one
# pointing at nothing (or at a private item) fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== tier-1: build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== full workspace tests =="
cargo test -q --workspace

echo "== serving smoke (DESIGN.md §15) =="
# Multi-tenant daemon contract: 8 concurrent jobs over 2 datasets on one
# shared device must produce bit-identical results to standalone runs,
# with exact per-tenant cache accounting and a pinned read reduction.
cargo test -q --test serve_smoke

echo "== mutation smoke (DESIGN.md §17) =="
# Streaming-mutation contract: the equivalence battery pins incremental
# re-convergence bit-identical to a cold recompute.
cargo test -q --test mutation_equivalence

echo "== reproduction pin (results_run_all.md) =="
# The paper's tables and figures are simulated-clock numbers, so `figures`
# at default settings must print the committed report byte for byte at any
# thread count, and a named section must be its slice of that report. A PR
# that moves a number regenerates the file in the same commit
# (`cargo run --release -p mlvc-bench --bin figures > results_run_all.md`)
# and says why (the `sim-pins` convention); EXPERIMENTS.md quotes it.
for t in 1 2; do
  MLVC_THREADS=$t cargo run -q --release -p mlvc-bench --bin figures | diff - results_run_all.md
done
cargo run -q --release -p mlvc-bench --bin figures -- fig6 \
  | diff - <(awk '/^## Fig. 6 /{on=1} /^## Fig. 7 /{on=0} on' results_run_all.md)

echo "== dynamic-graph example (DESIGN.md §7, §17) =="
# The only end-to-end run in which a program mutates the graph: the stored
# CSR must grow by exactly the edges the merges report, and the gossip
# result must not depend on whether adjacency came from the edge log.
cargo run -q --release --example dynamic_graph

echo "== stage-table smoke (mlvc run) =="
# `mlvc run` ends with a host-wall stage table whose owner-thread rows
# (fetch wait … close-out) follow one another on one thread. At 1 and 2
# worker threads the same graph must print the same result lines and
# superstep table, and those rows must sum to within 10 % of the
# `supersteps` row: owner time that no row names fails here. PageRank
# holds the dense, message-heavy path; the random walk holds the sparse
# adjacency path (a few active vertices an interval, the edge log on);
# `wcc --async` holds the asynchronous model, end to end through the CLI.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
cargo run -q --release --bin mlvc -- \
  gen --kind rmat-social --scale 12 --seed 42 --out "$smoke_dir/g.csr" >/dev/null
for app in "pagerank" "randomwalk" "wcc --async"; do
  for t in 1 2; do
    # shellcheck disable=SC2086 # $app carries the app's flags, split on purpose
    MLVC_THREADS=$t cargo run -q --release --bin mlvc -- \
      run --app $app --graph "$smoke_dir/g.csr" >"$smoke_dir/run.$t"
    # Everything but the stage table, which is wall-clock.
    awk '/^stage /{skip=1} /^converged/{skip=0} !skip' "$smoke_dir/run.$t" >"$smoke_dir/det.$t"
    awk -F'|' -v t="$t" -v app="$app" '
      /^stage /           { on = 1; next }
      on && /^supersteps/ { total = $2; on = 0 }
      on && NF == 2       { owner += $2 }
      END {
        # The rows print to 0.01 ms: seven of them and their total, each
        # rounded, can differ by 0.04 ms in sum before any time is missing —
        # a fifth of a sparse walk that no longer waits on a thread per
        # superstep.
        slack = 0.1 * total + 0.04
        if (total <= 0 || owner < total - slack || owner > total + slack) {
          printf "%s, MLVC_THREADS=%s: owner-thread rows sum to %.2f ms, supersteps row is %.2f ms\n", app, t, owner, total
          exit 1
        }
      }' "$smoke_dir/run.$t"
  done
  diff "$smoke_dir/det.1" "$smoke_dir/det.2"
done

echo "== owner rows on the benchmark's job shape (examples/owner_rows) =="
# The job shape every host-clock issue quotes — cf_mini(17, 42), 4 MiB,
# PageRank and RandomWalk::new(4, 1, 20), through the steps of `mlvc run` —
# which `mlvc gen` / `mlvc run` cannot produce. Same rule as the smoke
# above, applied by the tool itself: it exits 1 if a job's owner rows stop
# summing to within 10 % of its supersteps. It also holds threads to where
# something can overlap (DESIGN.md §12): a job on one thread that spawns a
# thread exits 1, and so does a superstep whose first fused batch — which
# nobody could have been handed — was not decoded by the owner.
for job in "rw 1 1" "pr 1 1" "rw 1 2" "pr 1 2"; do
  # shellcheck disable=SC2086 # app, jobs and threads, split on purpose
  cargo run -q --release --example owner_rows -- $job
done

echo "== benchmark package (read-only use of benchmark/) =="
# The perf ledger is a package of its own that reaches the workspace only
# through the `multilogvc` facade, so the workspace build above never
# compiles it: build and smoke it here, so a public-API break against its
# allow-list (benchmark/README.md) fails before merge instead of in the
# acceptance run. `--smoke` runs both passes, every workload and drill at
# scale 10 and checks every golden.
cargo test -q --manifest-path benchmark/Cargo.toml
cargo run -q --release --manifest-path benchmark/Cargo.toml -- --smoke

echo "== simulated-clock pins (BENCH_sim.json) =="
# The deterministic columns are hard gates: three workloads at seed 42
# must report exactly the sim_ms / pages_read / pages_written / read_amp
# committed in BENCH_sim.json. A change that means to move one re-pins it.
cargo run -q -p xtask -- sim-pins
