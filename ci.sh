#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release, workspace) =="
cargo build --release --workspace

echo "== layering (the simulator stays free of the language runtime) =="
# sw-sim models the machine, and the device-fault model its PM controller
# consults lives in sw-pmem beside the device. Neither the crash-image
# injector (sw-faults) nor the language runtime (sw-lang) may be a normal
# dependency of the simulator.
sim_deps=$(cargo tree --offline -p sw-sim -e normal --prefix none)
if grep -E '^sw-(faults|lang) ' <<<"$sim_deps"; then
  echo "ci: sw-sim depends on sw-faults or sw-lang (cargo tree -p sw-sim -e normal)" >&2
  exit 1
fi
echo "layering ok"

echo "== build (examples) =="
cargo build --workspace --examples

echo "== test (workspace) =="
cargo test --workspace -q

echo "== rustdoc (no-deps, deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt (check) =="
cargo fmt --all -- --check

echo "== swctl (design x lang) compatibility matrix =="
# One tiny region per legal pair; illegal pairs (the log-free native
# model off eADR-class designs) must be rejected with exit code 2.
SWCTL=target/release/swctl
usage=$({ "$SWCTL" 2>&1 || true; })
designs=$(sed -n 's/^designs: //p' <<<"$usage")
langs=$(sed -n 's/^langs: //p' <<<"$usage")
test -n "$designs" && test -n "$langs"
for design in $designs; do
  for lang in $langs; do
    status=0
    "$SWCTL" run queue --lang "$lang" --design "$design" \
      --threads 1 --regions 1 --ops 1 >/dev/null 2>&1 || status=$?
    if [ "$lang" = native ] && [ "$design" != eadr ]; then
      if [ "$status" != 2 ]; then
        echo "ci: $lang on $design exited $status, expected rejection with 2" >&2
        exit 1
      fi
    elif [ "$status" != 0 ]; then
      echo "ci: $lang on $design exited $status, expected 0" >&2
      exit 1
    fi
  done
done
echo "compatibility matrix ok"

echo "== figures bit-identical to committed outputs =="
# The allocator migration must not move a single byte of the paper
# artifacts at the pinned CI scale; expected/ holds the committed
# outputs (regenerate with the same env + redirect if a change is ever
# intended, and say so in the PR).
figs_env=(SW_BENCH_THREADS=2 SW_BENCH_REGIONS=24 SW_BENCH_OPS_PER_REGION=2)
for target in fig7 fig8 fig9 fig10 table2 summary; do
  diff expected/$target.txt <(env "${figs_env[@]}" "$SWCTL" "$target") \
    || { echo "ci: $target drifted from expected/$target.txt" >&2; exit 1; }
done
echo "figures bit-identical"

echo "== campaign goldens byte-identical to committed outputs =="
# The fixed-seed --json reports of the campaign subcommands. One campaign
# engine serves crash, faults, chaos and serve, so a refactor of it must
# not move a byte; expected/ holds the committed outputs (regenerate with
# the same command + redirect if a change is ever intended, and say so in
# the PR). tests/campaign_goldens.rs rebuilds every one through the
# library.
golden() {
  local name=$1; shift
  diff "expected/$name.json" <("$SWCTL" "$@") \
    || { echo "ci: $name drifted from expected/$name.json" >&2; exit 1; }
}
scale=(--threads 2 --ops 2)
golden faults faults queue --lang txn --design strandweaver "${scale[@]}" \
  --regions 16 --rounds 9 --seed 42 --json
golden faults_heap faults queue --lang txn --design strandweaver "${scale[@]}" \
  --regions 16 --rounds 9 --seed 42 --json --heap
golden heap_verify heap hashmap --verify --lang native --design eadr "${scale[@]}" \
  --regions 40 --rounds 40 --seed 7 --json
golden chaos chaos queue --lang txn --design strandweaver "${scale[@]}" \
  --regions 24 --rounds 3 --seed 1 --json
golden serve serve queue --lang txn --design strandweaver "${scale[@]}" \
  --regions 24 --seed 1234 --json
golden chaos_sweep chaos queue --sweep "${scale[@]}" --regions 24 --rounds 2 --seed 1 --json
golden serve_sweep serve nstore-bal --sweep "${scale[@]}" --regions 24 --seed 1234 --json
# All control rounds (the log-free model writes no log to inject into).
golden faults_native faults queue --lang native --design eadr "${scale[@]}" \
  --regions 16 --rounds 6 --seed 5 --json
# Redo logging: guards the log strategy carried into the driven run.
golden faults_redo faults hashmap --lang sfr --design intel-x86 "${scale[@]}" \
  --regions 16 --rounds 12 --seed 9 --redo --json
echo "campaign goldens bit-identical"
# CLI goldens: what the flag table routes that no figure or campaign golden
# covers — the run report as text and JSON, heap occupancy, and two --json
# figure targets at the figure scale.
cli_golden() {
  local file=$1; shift
  diff "expected/$file" <(env "${figs_env[@]}" "$SWCTL" "$@") \
    || { echo "ci: $file drifted from expected/$file" >&2; exit 1; }
}
cli_golden run_stats.txt run queue "${scale[@]}" --regions 24 --stats
# The crash campaign's verdict: non-atomic hardware tears a region in the
# first sampled crash state. It pins the campaign's seeded crash sampling
# (exit status 1 is the expected verdict).
cli_golden crash_non_atomic.txt crash queue --lang txn --design non-atomic "${scale[@]}" \
  --regions 40 --rounds 150 --seed 77
cli_golden run.json run queue "${scale[@]}" --regions 24 --stats --json
# The only golden that pins redo logging's timing lowering.
cli_golden run_redo.json run hashmap --lang sfr --design strandweaver --redo "${scale[@]}" \
  --regions 24 --json
# Small queues, so the fence, sq_full, pq_full and lock stall counters
# and the pq/sb gauges and histograms are all populated.
cli_golden run_stalls.json run queue --design strandweaver --sq 2 --pq 1 "${scale[@]}" \
  --regions 24 --json
cli_golden heap_churn.json heap hashmap --churn --json "${scale[@]}" --regions 24
cli_golden table2.json table2 --json
cli_golden fig7_strandweaver.json fig7 --design strandweaver --json
cli_golden fig9.json fig9 --json
cli_golden fig10.json fig10 --json
cli_golden summary.json summary --json
# Every golden above runs two threads; these two pin the eight-core lock
# hand-offs and coherence steals the figures sweep spends its ticks on,
# run_8core.json with every core's stall counts.
cli_golden run_8core.json run queue --lang txn --design strandweaver --threads 8 \
  --regions 24 --ops 2 --json
diff expected/summary_8core.json <(SW_BENCH_THREADS=8 SW_BENCH_REGIONS=48 \
  SW_BENCH_OPS_PER_REGION=2 "$SWCTL" summary --json) \
  || { echo "ci: summary_8core.json drifted from expected/summary_8core.json" >&2; exit 1; }
echo "CLI goldens bit-identical"
# Trace goldens: the Perfetto export of one small traced run per design
# class. Together they emit every event kind of a fault-free timing run;
# crates/trace/tests/export_golden.rs pins every variant of both exporters.
trace_out=$(mktemp)
for design in strandweaver eadr; do
  "$SWCTL" trace queue --design "$design" --threads 2 --regions 4 --ops 1 \
    --out "$trace_out" >/dev/null
  cmp "expected/trace_$design.json" "$trace_out" \
    || { echo "ci: trace_$design drifted from expected/trace_$design.json" >&2; exit 1; }
done
rm -f "$trace_out"
echo "trace goldens bit-identical"

echo "== swctl faults (fixed-seed injection smoke) =="
# Deterministic campaign: every injected fault (including the bitflip
# class — checksum corruption) must be detected at its exact location,
# and any Strict rejection of an uninjected control image would fail the
# whole campaign (zero false positives). This stage and the four below
# probe the goldens the campaign diffs above pinned to the live output.
faults_out=$(<expected/faults.json)
if ! grep -q '"fully_detected":true' <<<"$faults_out"; then
  echo "ci: fault campaign missed an injection: $faults_out" >&2
  exit 1
fi
if ! grep -q '"class":"bitflip","injected":3,"detected":3' <<<"$faults_out"; then
  echo "ci: bitflip (checksum corruption) tally unexpected: $faults_out" >&2
  exit 1
fi
echo "fault smoke ok"

echo "== swctl faults --heap (allocator-metadata injection smoke) =="
# Same classes aimed at the allocator's journal slots: tears must stay
# benign, corruption/poison must Strict-reject with exact (pool, slot)
# location and Salvage-quarantine exactly the damaged pool.
heap_faults_out=$(<expected/faults_heap.json)
for probe in '"fully_detected":true' '"class":"bitflip","injected":3,"detected":3' \
             '"alloc_faults.detected":9'; do
  if ! grep -q "$probe" <<<"$heap_faults_out"; then
    echo "ci: heap fault campaign: expected $probe in: $heap_faults_out" >&2
    exit 1
  fi
done
echo "heap fault smoke ok"

echo "== swctl heap --verify (allocator crash/reclaim smoke) =="
# Fixed-seed churn -> crash -> recover -> reclaim loop on the log-free
# native model (eADR), where only the root sweep stands between a crash
# and a leak: every rooted block must survive live (use-after-free
# check), every unrooted dynamic block must be reclaimed, and a Strict
# recovery of each un-injected crash image doubles as the false-positive
# control. The seed is pinned so the leak count is a known quantity.
heap_smoke_out=$(<expected/heap_verify.json)
for probe in '"zero_leaks":true' '"reclaimed_blocks":20' '"rounds":40'; do
  if ! grep -q "$probe" <<<"$heap_smoke_out"; then
    echo "ci: allocator smoke: expected $probe in: $heap_smoke_out" >&2
    exit 1
  fi
done
echo "allocator smoke ok (20 leaked blocks reclaimed, zero remain)"
# Under a batching model the heap quiesces only after a coordinated
# commit; at this scale churn fills a pool's journal first unless its
# high-water mark forces the coordination.
for lang in sfr atlas; do
  "$SWCTL" heap hashmap --churn --lang "$lang" --threads 8 --regions 400 --ops 4 >/dev/null \
    || { echo "ci: heap hashmap --churn --lang $lang at 8x400x4 exited $?" >&2; exit 1; }
done
echo "batched churn ok (journals checkpoint before they fill)"

echo "== swctl chaos (fixed-seed online-fault smoke) =="
# Deterministic online-fault campaign: every device-fault class must fire
# (transient write failures, permanent media errors, read poison), at
# least one retry must heal and one line must be remapped, both machine
# checks must be delivered, and the persisted state must show zero silent
# corruptions with every recovery leg reconverging.
chaos_out=$(<expected/chaos.json)
chaos_field() { sed -n "s/.*\"$1\":\([0-9][0-9]*\).*/\1/p" <<<"$chaos_out"; }
for k in faults.online.transient_failures faults.online.retries_succeeded \
         faults.online.permanent_errors faults.online.lines_remapped \
         faults.online.reads_poisoned faults.online.spares_exhausted mce_traps; do
  v=$(chaos_field "$k")
  if [ -z "$v" ] || [ "$v" -lt 1 ]; then
    echo "ci: chaos smoke: $k did not fire (got '${v:-missing}'): $chaos_out" >&2
    exit 1
  fi
done
for probe in '"silent_corruptions":0' '"reconverged_strict":3' \
             '"reconverged_salvage":3' '"mce_strict_aborted":true'; do
  if ! grep -q "$probe" <<<"$chaos_out"; then
    echo "ci: chaos smoke: expected $probe in: $chaos_out" >&2
    exit 1
  fi
done
echo "chaos smoke ok"

echo "== swctl serve (fixed-seed degraded-mode smoke) =="
# Open-loop serving under the engineered chaos-under-load schedules: at
# least one breaker must trip, spare-pool exhaustion must fail a shard
# over, and every quarantine's crash/recover leg must reconverge with zero
# silent corruptions. The golden diff above pins the JSON's bytes.
serve_out=$(<expected/serve.json)
serve_field() { sed -n "s/.*\"$1\":\([0-9][0-9]*\).*/\1/p" <<<"$serve_out"; }
for k in breaker_trips failovers recovery_legs reconverged_salvage; do
  v=$(serve_field "$k")
  if [ -z "$v" ] || [ "$v" -lt 1 ]; then
    echo "ci: serve smoke: $k did not fire (got '${v:-missing}'): $serve_out" >&2
    exit 1
  fi
done
if ! grep -q '"silent_corruptions":0' <<<"$serve_out"; then
  echo "ci: serve smoke: silent corruption reported: $serve_out" >&2
  exit 1
fi
echo "serve smoke ok"

echo "== perfbench (the repository benchmark builds and self-tests) =="
# perfbench links the crates' public API from its own workspace; an API
# break must fail here rather than in a benchmark run. Its build rewrites
# stale path-dependency edges in perfbench/Cargo.lock, which changes only
# with the benchmark itself, so the committed lock is put back when this
# script exits, whether the stage passes or fails.
perfbench_lock=$(mktemp)
cp perfbench/Cargo.lock "$perfbench_lock"
trap 'cp "$perfbench_lock" perfbench/Cargo.lock && rm -f "$perfbench_lock"' EXIT
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --offline -q --manifest-path perfbench/Cargo.toml
echo "perfbench ok"

echo "== swctl bench (perf trajectory + regression gate) =="
# Fixed small scale so one pass finishes quickly on a 1-CPU container; the
# committed BENCH_baseline.json records the same scale and benchcmp refuses
# to compare mismatched scales. SW_PERF_GATE=off skips only the comparison:
# the run's report is emitted either way. It goes under target/: the
# committed BENCH_ci.json is the recorded run the fig7 floor below was set
# from, and a CI run must not rewrite it.
bench_env=(SW_BENCH_THREADS=2 SW_BENCH_REGIONS=24 SW_BENCH_OPS_PER_REGION=2)
bench_out=target/BENCH_ci.json
# Profiling must not change simulated results: stdout byte-identical to
# the committed goldens with the ambient profiler on (phase table goes to
# stderr). bench_env is the figure scale the goldens were recorded at;
# summary_8core.json is the eight-core sweep, where most cores sleep and
# the profiler's per-core laps run only for the awake ones.
diff expected/table2.txt <(env "${bench_env[@]}" SW_PERF=1 "$SWCTL" table2 2>/dev/null)
diff expected/fig7_strandweaver.json \
     <(env "${bench_env[@]}" SW_PERF=1 "$SWCTL" fig7 --design strandweaver --json 2>/dev/null)
diff expected/summary_8core.json <(SW_BENCH_THREADS=8 SW_BENCH_REGIONS=48 \
  SW_BENCH_OPS_PER_REGION=2 SW_PERF=1 "$SWCTL" summary --json 2>/dev/null)
echo "profiled outputs bit-identical"
env "${bench_env[@]}" "$SWCTL" bench --label ci --warmup 1 --repeat 3 --out "$bench_out"
if [ "${SW_PERF_GATE:-on}" = off ]; then
  echo "perf gate skipped (SW_PERF_GATE=off); $bench_out still emitted"
elif [ ! -f BENCH_baseline.json ]; then
  echo "perf gate skipped (no BENCH_baseline.json); $bench_out still emitted"
else
  # Tolerance tightened to 15% after the monomorphized hot-path rebuild.
  # The floor is one third of fig7's rate in the committed BENCH_ci.json
  # (15,142,863 events/s): a uniform 3x slowdown fails it, while the 2x
  # host swings seen on unchanged code still pass. The tolerance alone
  # cannot: that run is 2.6-4.4x faster than the baseline.
  "$SWCTL" benchcmp "$bench_out" BENCH_baseline.json --tolerance 15 --floor fig7:5047622
  # Self-test: at the gate's own tolerance, this run compared with itself
  # slowed 1.3x must fail, however fast the host ran it.
  if "$SWCTL" benchcmp "$bench_out" "$bench_out" --tolerance 15 --scale-wall 1.3 2>/dev/null; then
    echo "ci: perf gate failed to detect a 1.3x slowdown" >&2
    exit 1
  fi
  echo "perf gate self-test ok (1.3x slowdown detected)"
fi

echo "== microbench (every criterion benchmark runs once) =="
# The micro-benchmarks assert nothing, so host speed cannot fail this
# stage; one sample each checks that they still run, not only build
# (about 20 s). It runs last because `cargo bench` relinks
# target/release/swctl under the bench profile, and the stages above time
# that binary.
CRITERION_SAMPLES=1 cargo bench -p sw-bench --bench microbench

echo "ci: all gates passed"
