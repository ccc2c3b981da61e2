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
# The root Cargo.toml's `default-members` is every workspace member, so
# this is the whole workspace's tests: the set `--workspace` would run.
# Among them are two contracts: `serve_smoke` (DESIGN.md §15: 8
# concurrent jobs over 2 datasets on one shared device produce
# bit-identical results to standalone runs, with exact per-tenant cache
# accounting and a device-read reduction) and `mutation_equivalence`
# (DESIGN.md §17: incremental re-convergence is bit-identical to a cold
# recompute).
cargo test -q

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
# `wcc --async` holds the asynchronous model, end to end through the CLI;
# `pagerank --ssd-dir` holds the file-backed device, the one backend no
# benchmark workload runs, on a fresh directory per run; `pagerank
# --metrics` holds the run's artifacts: the trace JSONL and the Prometheus
# snapshot must be the same bytes at both thread counts; `pagerank
# --memory-kb 1024 --metrics` holds the multi-log's evictions, written
# behind on the superstep's I/O queue, and its carry of the buffered tail
# across a superstep boundary in host memory: its trace must show a
# superstep that evicted and one that carried pages. The two tiered legs
# (`--pin-budget-kb 768`, the one tier budget: hot-interval topology pages
# the engine holds itself and the multi-log's log-tail retention, with no
# page cache attached, which the in-process tests and `sim-pins` otherwise
# reach at one size only) run
# under the same memory budget, so the log evicts and retention holds log
# pages in host memory instead of writing them: with `--metrics`, whose
# trace must also show a superstep that held pages, one that held the
# whole 768 KiB budget, 48 pages of 16 KiB (drive entry arms retention
# with all of it, DESIGN.md §18), and one with a hit on a topology pin (a
# boundary marks the hot intervals' extents and the engine keeps the pages
# the load stage's reads return, so a mark that never filled would turn
# pinning off unseen),
# and with `--ssd-dir`, whose result lines and superstep table must be the
# in-memory leg's (the backend decides where pages live, never which are
# read or written). A third
# tiered leg, `--async --metrics`, is the one run in which the
# asynchronous drain (`MultiLog::plan_current`) plans write-side logs that
# mix held, written and buffered pages: its trace must show evictions,
# carried and held pages too, and its bytes must match across thread
# counts. Both tiered `--metrics` legs must show that no cache is attached:
# no superstep evicts a cache frame, and the `.prom` has no
# `mlvc_cache_capacity_pages` series. `bfs --memory-kb 256
# --metrics` is the one leg that writes edge-log pages (a 256 KiB budget
# leaves the edge log less than a page of buffer): its trace must show a
# superstep that wrote one and one that served a vertex from the edge log.
# Every `--memory-kb` leg runs on a scale-14 graph, because at scale 12 a
# superstep's log fits under the eviction floor at any budget.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
for scale in 12 14; do
  cargo run -q --release --bin mlvc -- \
    gen --kind rmat-social --scale $scale --seed 42 --out "$smoke_dir/g$scale.csr" >/dev/null
done
tiered="pagerank --memory-kb 1024 --pin-budget-kb 768"
for app in "pagerank" "randomwalk" "wcc --async" "pagerank --ssd-dir" "pagerank --metrics" \
  "pagerank --memory-kb 1024 --metrics" "$tiered --metrics" "$tiered --ssd-dir" \
  "$tiered --async --metrics" "bfs --memory-kb 256 --metrics"; do
  graph="$smoke_dir/g12.csr"
  if [[ $app == *--memory-kb* ]]; then
    graph="$smoke_dir/g14.csr"
  fi
  for t in 1 2; do
    # The owner-row sum is host wall-clock, so one host stall can miss it:
    # a leg that misses runs again at this thread count, up to three runs
    # in all, and fails only if every run misses.
    for attempt in 1 2 3; do
      flags="$app"
      if [[ $app == *--ssd-dir ]]; then
        flags="$app $(mktemp -d -p "$smoke_dir")"
      elif [[ $app == *--metrics ]]; then
        # One path for both runs, since the run prints it; kept per thread
        # count below.
        flags="$app $smoke_dir/metrics.jsonl"
      fi
      # shellcheck disable=SC2086 # $flags carries the app and its flags, split on purpose
      MLVC_THREADS=$t cargo run -q --release --bin mlvc -- \
        run --app $flags --graph "$graph" >"$smoke_dir/run.$t"
      if [[ $app == *--metrics ]]; then
        mv "$smoke_dir/metrics.jsonl" "$smoke_dir/metrics.$t.jsonl"
        mv "$smoke_dir/metrics.jsonl.prom" "$smoke_dir/metrics.$t.prom"
      fi
      # Everything but the stage table, which is wall-clock.
      awk '/^stage /{skip=1} /^converged/{skip=0} !skip' "$smoke_dir/run.$t" >"$smoke_dir/det.$t"
      if awk -F'|' -v t="$t" -v app="$app" -v attempt="$attempt" '
        /^stage /           { on = 1; next }
        on && /^supersteps/ { total = $2; on = 0 }
        on && NF == 2       { owner += $2 }
        END {
          # The rows print to 0.01 ms: seven of them and their total, each
          # rounded, can differ by 0.04 ms in sum before any time is missing —
          # a fifth of a sparse walk that no longer waits on a thread per
          # superstep.
          slack = 0.1 * total + 0.04
          missed = total <= 0 || owner < total - slack || owner > total + slack
          if (missed || attempt > 1) {
            printf "%s, MLVC_THREADS=%s, run %d of 3: owner-thread rows sum to %.2f ms, ", app, t, attempt, owner
            printf "supersteps row is %.2f ms%s\n", total, missed ? "" : " (within bound)"
          }
          exit missed
        }' "$smoke_dir/run.$t"; then
        break
      elif [ "$attempt" -eq 3 ]; then
        exit 1
      fi
    done
  done
  diff "$smoke_dir/det.1" "$smoke_dir/det.2"
  if [[ $app == "$tiered --metrics" ]]; then
    cp "$smoke_dir/det.1" "$smoke_dir/tiered.det"
  elif [[ $app == "$tiered --ssd-dir" ]]; then
    diff "$smoke_dir/tiered.det" "$smoke_dir/det.1"
  fi
  if [[ $app == *--metrics ]]; then
    cmp "$smoke_dir/metrics.1.jsonl" "$smoke_dir/metrics.2.jsonl"
    cmp "$smoke_dir/metrics.1.prom" "$smoke_dir/metrics.2.prom"
  fi
  need=""
  if [[ $app == pagerank*--memory-kb*--metrics ]]; then
    need="log_evictions log_pages_carried"
  elif [[ $app == bfs*--metrics ]]; then
    need="edge_log_pages edge_log_hits"
  fi
  if [[ $app == *--pin-budget-kb*--metrics ]]; then
    need="$need log_pages_retained"
  fi
  if [[ $app == "$tiered --metrics" ]]; then
    need="$need pinned_hits"
  fi
  for field in $need; do
    if ! grep -q "\"$field\":[1-9]" "$smoke_dir/metrics.1.jsonl"; then
      echo "$app: no superstep with $field > 0"
      exit 1
    fi
  done
  if [[ $app == *--pin-budget-kb*--metrics ]]; then
    if grep -q '"cache_evictions":[1-9]' "$smoke_dir/metrics.1.jsonl"; then
      echo "$app: a superstep evicted a cache frame (the tier has none)"
      exit 1
    fi
    if grep -q '^mlvc_cache_capacity_pages' "$smoke_dir/metrics.1.prom"; then
      echo "$app: a page cache is attached (the engine holds its pins itself)"
      exit 1
    fi
  fi
  if [[ $app == "$tiered --metrics" ]] &&
    ! grep -q '"log_pages_retained":48,' "$smoke_dir/metrics.1.jsonl"; then
    echo "$app: no superstep held the whole pin budget (48 pages)"
    exit 1
  fi
done

echo "== tiered crash and resume (mlvc run --crash-after, mlvc resume) =="
# The tiered leg with a checkpoint every 2 supersteps on a file-backed
# device writes 214 pages: 75 in superstep 1, superstep 2's checkpoint
# ends at write 165, so a crash at write 190 lands in superstep 4's
# checkpoint. The resume starts from superstep 2's, holding nothing
# (topology pins and held log pages died with the process), and must end
# in the uninterrupted tiered run's states; a resume of another program on
# the same device is the `foreign-checkpoint` refusal, exit 1.
crash_dev="$(mktemp -d -p "$smoke_dir")"
tier_flags=(--memory-kb 1024 --pin-budget-kb 768 --checkpoint-every 2 --ssd-dir "$crash_dev")
cargo run -q --release --bin mlvc -- run --app pagerank "${tier_flags[@]}" \
  --crash-after 190 --graph "$smoke_dir/g14.csr" >"$smoke_dir/crashed"
grep -q '^run interrupted: device crashed' "$smoke_dir/crashed"
cargo run -q --release --bin mlvc -- resume --app pagerank "${tier_flags[@]}" \
  --graph "$smoke_dir/g14.csr" >"$smoke_dir/resumed"
grep -qx 'resumed from the checkpoint at superstep 2' "$smoke_dir/resumed"
diff <(sed -n 2p "$smoke_dir/tiered.det") <(sed -n 2p "$smoke_dir/resumed")
grep -q '^converged: true;' "$smoke_dir/resumed"
set +e
cargo run -q --release --bin mlvc -- resume --app bfs "${tier_flags[@]}" \
  --graph "$smoke_dir/g14.csr" >/dev/null 2>"$smoke_dir/foreign.err"
status=$?
set -e
if [ "$status" -ne 1 ] || ! grep -q 'taken of another program' "$smoke_dir/foreign.err"; then
  echo "resume --app bfs on PageRank's checkpoint was not refused (exit $status)"
  exit 1
fi

echo "== gen refuses a bad parameter (mlvc gen) =="
# A generator's precondition is a public check the CLI calls before the
# generator asserts through it: a bad parameter exits 1 with a message,
# never a panic.
set +e
cargo run -q --release --bin mlvc -- \
  gen --kind rmat-social --scale 0 --out "$smoke_dir/bad.csr" >/dev/null 2>"$smoke_dir/bad.err"
status=$?
set -e
if [ "$status" -ne 1 ] || grep -q panicked "$smoke_dir/bad.err" || [ -e "$smoke_dir/bad.csr" ]; then
  echo "mlvc gen --scale 0: exit $status (want 1, no panic, no graph)" >&2
  cat "$smoke_dir/bad.err" >&2
  exit 1
fi

echo "== ingest smoke (mlvc ingest) =="
# The CLI's mutation path end to end (DESIGN.md §17): apply an edge batch
# from a file to a saved graph and save the mutated graph, once merged
# alone and once merged by WCC's incremental re-convergence on the mutated
# store. Both merges read the buffered batch in place, so the two saved
# graphs must be the same bytes, and not the input's.
cargo run -q --release --bin mlvc -- \
  gen --kind rmat-social --scale 10 --out "$smoke_dir/mut.csr" >/dev/null
printf 'add 0 512\nadd 512 0\nremove 0 1\n' >"$smoke_dir/batch.txt"
for app in "" "--app wcc"; do
  # shellcheck disable=SC2086 # $app is empty or a flag and its value
  cargo run -q --release --bin mlvc -- ingest --graph "$smoke_dir/mut.csr" \
    --batch "$smoke_dir/batch.txt" $app --out "$smoke_dir/mut-after${app:+.wcc}.csr" >/dev/null
done
cmp "$smoke_dir/mut-after.csr" "$smoke_dir/mut-after.wcc.csr"
if cmp -s "$smoke_dir/mut.csr" "$smoke_dir/mut-after.csr"; then
  echo "mlvc ingest: the saved graph is the input graph" >&2
  exit 1
fi

echo "== weighted smoke (mlvc run --app sssp) =="
# The one CLI leg that reads `val` pages, which the loader requests on a
# list of their own (DESIGN.md §20): a `src dst weight` edge list made
# here, 3 000 vertices and six weighted out-edges each, through SSSP at 1
# and 2 threads must print the same result lines and superstep table.
awk 'BEGIN { for (v = 0; v < 3000; v++) for (d = 1; d <= 6; d++)
  printf "%d %d %.1f\n", v, (v * 7 + d * 131) % 3000, 0.5 + (v + d) % 9 }' >"$smoke_dir/w.txt"
for t in 1 2; do
  MLVC_THREADS=$t cargo run -q --release --bin mlvc -- \
    run --app sssp --graph "$smoke_dir/w.txt" --steps 30 >"$smoke_dir/sssp.$t"
  awk '/^stage /{skip=1} /^converged/{skip=0} !skip' "$smoke_dir/sssp.$t" >"$smoke_dir/sssp-det.$t"
done
diff "$smoke_dir/sssp-det.1" "$smoke_dir/sssp-det.2"
grep -q '^converged: true' "$smoke_dir/sssp.1"

echo "== serve smoke (mlvc serve) =="
# The daemon through the CLI (DESIGN.md §15) on the graph above, with its
# one cache tier, the shared 2Q pool: a run, a mutate, a second run, a run
# naming an unknown dataset, shutdown. Replies interleave across threads,
# so they are compared sorted; the Prometheus rollup must be the same
# bytes at 1 and 2 threads, and must count a cross-tenant hit: the second
# job reads pages the first one's reads filled, so a shared cache that
# stopped sharing would show here.
cat >"$smoke_dir/requests.jsonl" <<'EOF'
{"op":"run","id":"before","app":"bfs","dataset":"g","memory_kb":1024,"steps":8}
{"op":"mutate","id":"m1","dataset":"g","add":[[0,512],[512,0]],"remove":[[0,1]]}
{"op":"run","id":"after","app":"pagerank","dataset":"g","memory_kb":1024,"steps":5}
{"op":"run","id":"lost","app":"bfs","dataset":"nope"}
{"op":"shutdown"}
EOF
for t in 1 2; do
  MLVC_THREADS=$t cargo run -q --release --bin mlvc -- serve --graphs "g=$smoke_dir/mut.csr" \
    --workers 1 --cache-kb 256 --metrics "$smoke_dir/serve.$t.prom" \
    --requests "$smoke_dir/requests.jsonl" | sort >"$smoke_dir/serve.$t"
done
diff "$smoke_dir/serve.1" "$smoke_dir/serve.2"
cmp "$smoke_dir/serve.1.prom" "$smoke_dir/serve.2.prom"
grep -c '"event":"done"' "$smoke_dir/serve.1" | grep -qx 2
grep -q '"event":"mutated","id":"m1"' "$smoke_dir/serve.1"
grep -q '"id":"lost","code":"unknown-dataset"' "$smoke_dir/serve.1"
if ! grep -q '^mlvc_serve_cache_cross_tenant_hits_total [1-9]' "$smoke_dir/serve.1.prom"; then
  echo "mlvc serve --cache-kb 256: no cross-tenant hit in the rollup"
  exit 1
fi

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
# scale 10 and checks every golden. Building it rewrites
# `benchmark/Cargo.lock`'s stale edges (ROADMAP 6(ix)), so the lock is
# snapshot here and put back on exit, failure included: a check leaves it
# byte-identical (`sim-pins` below restores it itself as well).
cp benchmark/Cargo.lock "$smoke_dir/benchmark.Cargo.lock"
trap 'cp "$smoke_dir/benchmark.Cargo.lock" benchmark/Cargo.lock; rm -rf "$smoke_dir"' EXIT
cargo test -q --manifest-path benchmark/Cargo.toml
cargo run -q --release --manifest-path benchmark/Cargo.toml -- --smoke

echo "== simulated-clock pins (BENCH_sim.json) =="
# The deterministic columns are hard gates: four workloads at seed 42
# must report exactly the sim_ms / pages_read / pages_written / read_amp
# committed in BENCH_sim.json. A change that means to move one re-pins it.
cargo run -q -p xtask -- sim-pins
