#!/usr/bin/env bash
# Repo gate: formatting, lints, and the full test suite.
# Usage: scripts/check.sh  (run from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

# The gate must leave the tree as it found it (see the final step).
status_before="$(git status --porcelain)"
# The bench step rewrites results/BENCH_*.json; keep the reports as found
# (committed, or a deliberate uncommitted refresh) to restore them from.
figtmp="$(mktemp -d)"
trap 'rm -rf "$figtmp"' EXIT
mkdir -p "$figtmp/bench" "$figtmp/bench_found"
cp results/BENCH_*.json "$figtmp/bench_found/"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== scripts/bench_pair.sh: syntax and dry run =="
# The pair script runs only by hand (it takes many minutes of benchmark
# time), so check here that it parses and resolves both sides.
bash -n scripts/bench_pair.sh
scripts/bench_pair.sh --parent HEAD --seeds 1 --dry-run

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo clippy tfet-obs -D warnings =="
cargo clippy -p tfet-obs --all-targets --offline -- -D warnings

echo "== cargo clippy tfet-bench -D warnings =="
cargo clippy -p tfet-bench --all-targets --offline -- -D warnings

echo "== cargo doc -D warnings =="
# Start from an empty doc tree, so the page gate below sees only the pages
# this build renders.
rm -rf target/doc
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== no documented engine options =="
# The dense solver and the latency-off baseline are oracles behind hidden
# process hooks, not public options: rustdoc must render no page for them.
# Held solver scratch has one owner, `CompiledCircuit`: the workspace type
# stays crate-private as well.
engine_pages="$(find target/doc -name '*SolverStrategy*' -o -name '*DeviceLatency*' \
  -o -name '*NewtonOpts*' -o -name '*NewtonWorkspace*')"
if [ -n "$engine_pages" ]; then
  echo "rustdoc rendered pages for engine oracles or solver scratch:"
  echo "$engine_pages"
  exit 1
fi
echo "no page for SolverStrategy, DeviceLatency, NewtonOpts or NewtonWorkspace"

echo "== perfbench build (the benchmark's imports of the public API) =="
# perfbench is its own Cargo workspace, so the workspace steps above never
# compile it: removing a public item it imports must fail here, not first
# in a benchmark run.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== perfbench exact checks (every workload at seed 1 and at the held-out 424242; 1 s, untraced) =="
# The benchmark's exact references — the nominal WL_crit and DRNM bits, the
# canaries, the replays and the array digests — gate every local check, not
# only benchmark runs: each workload's last line must report a correct run
# with no failed item. The array also runs the held-out seed, whose digest
# perfbench records too: array-engine changes claim bit-identity, and one
# seed's digest is a thin witness for that. So does the cell write: its
# bisection probes resume from a checkpoint trail, a claim of write-path
# bit-identity that the held-out seed's replays witness too. The cell read
# runs it as well, so no workload's exact references are checked at one
# seed alone.
for run in "cell_mc_write 1" "cell_mc_write 424242" "cell_yield_read 1" "cell_yield_read 424242" "array_write_read_64 1" "array_write_read_64 424242"; do
  read -r w seed <<<"$run"
  last="$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$w" --seed "$seed" --seconds 1 --trace 0 2>/dev/null | tail -n 1)" || true
  if ! python3 -c '
import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)
' "$last"; then
    echo "perfbench $w (seed $seed) failed its exact checks: $last"
    exit 1
  fi
  echo "perfbench $w (seed $seed): correct, 0 failed"
done

echo "== cargo test =="
# `cargo test` must leave nothing behind in the tree (diagnostic bundles,
# reports): compare the full status, ignored files included, before and
# after; only the build directories may change.
tree_state() {
  git status --porcelain --ignored | grep -vE '^!! (perfbench/)?target/$' | sort || true
}
tree_before="$(tree_state)"
cargo test -q --workspace --offline
tree_new="$(comm -13 <(echo "$tree_before") <(tree_state))"
if [ -n "$tree_new" ]; then
  echo "cargo test left files in the source tree:"
  echo "$tree_new"
  exit 1
fi
echo "cargo test left the source tree untouched"

echo "== allocation accounting, 20 runs per binary =="
# The counting allocators are process-global; a test that forgets the
# binary's lock leaks its sibling's allocations into the counting window
# only sometimes, so one passing run proves little.
for _ in $(seq 20); do
  cargo test -q -p tfet-circuit --offline --test alloc
  cargo test -q -p tfet-sram --offline --test array_alloc
done
echo "alloc binaries passed 20 of 20 runs"

echo "== fault-injection suite (rescue ladder, checked searches, MC quarantine, latency guards) =="
cargo test -q -p tfet-circuit --offline rescue
cargo test -q -p tfet-numerics --offline checked_
cargo test -q -p tfet-sram --offline quarantine
cargo test -q -p tfet-integration --offline --test observability quarantine
cargo test -q -p tfet-circuit --offline --test latency

# Moves the bench reports the quick benches wrote into the temp dir and
# restores the ones found at the start; the trap runs it if a bench fails
# midway.
bench_reports_pending=0
restore_bench_reports() {
  for f in results/BENCH_*.json; do
    if [ -e "$f" ]; then mv -f "$f" "$figtmp/bench/"; fi
  done
  cp "$figtmp/bench_found/"BENCH_*.json results/
  bench_reports_pending=0
}
cleanup() {
  if [ "$bench_reports_pending" = 1 ]; then restore_bench_reports; fi
  rm -rf "$figtmp"
}
trap cleanup EXIT

echo "== bench acceptance asserts (quick mode: closures run once, floors executed) =="
# TFET_BENCH_QUICK=1 makes the criterion stub run each bench body exactly
# once (no calibration or sampling loops), so the cost-ratio floors and
# rare-event acceptance assertions inside the bench functions actually
# execute; these are the workspace's only benches. These runs also
# rewrite results/BENCH_*.json from the current code; those fresh reports
# move to the temp dir, where the history gate below diffs them against
# the committed baselines, and the committed reports are restored.
bench_reports_pending=1
for b in solver_throughput mc_throughput wl_crit_throughput array_throughput yield_throughput; do
  TFET_BENCH_QUICK=1 cargo bench -q -p tfet-bench --bench "$b" --offline
done
restore_bench_reports

echo "== sparse-vs-dense and golden figure-CSV bit-identity (--quick, 1 and 8 threads) =="
# Solver tiers agree to ~1e-5 relative; every figure formatter caps its
# display resolution above that scale (see `fixed1_sig4` in tfet-bench),
# so the CSVs must be byte-identical — no tolerance fallback.
for threads in 1 8; do
  RAYON_NUM_THREADS=$threads cargo run -q --release --offline -p tfet-bench \
    --bin figures -- --quick --out "$figtmp/sparse_t$threads" >/dev/null
  RAYON_NUM_THREADS=$threads cargo run -q --release --offline -p tfet-bench \
    --bin figures -- --quick --dense --out "$figtmp/dense_t$threads" >/dev/null
  diff -r "$figtmp/sparse_t$threads" "$figtmp/dense_t$threads"
  echo "threads=$threads: sparse and dense figure CSVs are bit-identical"
  # Tiers that agree with each other can still move together (a reordered
  # Monte-Carlo draw moves both): the default run must also match the
  # committed goldens. A change meant to move a figure regenerates them with
  # `figures --quick --out results/quick` and says why.
  diff -r results/quick "$figtmp/sparse_t$threads"
  echo "threads=$threads: figure CSVs match the committed results/quick goldens"
done

echo "== latency-tier figure-CSV bit-identity (--quick, 1 and 8 threads) =="
# The quiescent-partition tier and the per-device bypass beneath it must be
# invisible in the physics: a latency-off run diffs byte for byte against
# the default run — every figure, both thread counts.
for threads in 1 8; do
  RAYON_NUM_THREADS=$threads cargo run -q --release --offline -p tfet-bench \
    --bin figures -- --quick --latency-off --out "$figtmp/lat_off_t$threads" >/dev/null
  diff -r "$figtmp/sparse_t$threads" "$figtmp/lat_off_t$threads"
  echo "threads=$threads: figure CSVs bit-identical latency-on vs latency-off"
done

echo "== SPICE deck round-trip (golden corpus, committed cell decks, proptests) =="
# Export -> import -> export must be byte-identical: the golden corpus pins
# the serializer's canonical form, deck_topology pins that the committed
# examples/decks/*.sp files import bit-identically to the built-in
# topologies, and the proptests fuzz the invariant over random decks.
cargo test -q -p tfet-circuit --offline --test golden
cargo test -q -p tfet-circuit --offline --test proptests
cargo test -q -p tfet-sram --offline --test golden_decks
cargo test -q -p tfet-sram --offline --test deck_topology

echo "== run_deck smoke (deck-driven 6T reproduces the 430.8 ps WL_crit) =="
run_deck_out="$(cargo run -q --release --offline -p tfet-sram --example run_deck)"
if ! grep -q "430.8 ps" <<<"$run_deck_out"; then
  echo "run_deck lost the headline 430.8 ps WL_crit:"
  echo "$run_deck_out"
  exit 1
fi
echo "run_deck: WL_crit 430.8 ps reproduced from examples/decks/cell_6t.sp"

echo "== run_report smoke (traced scorecard + MC, JSON validates) =="
cargo run -q --release --offline --example run_report -- --report \
  --out results/run_report.json >/dev/null
python3 - <<'EOF'
import json
r = json.load(open("results/run_report.json"))
assert r["schema"] == "tfet-obs.run-report", r["schema"]
assert r["version"] == 4, r["version"]
assert r["histograms"]["newton.iters_per_solve"]["count"] > 0
assert r["counters"]["lte.accepted_steps"] > 0
assert any(p.startswith("scorecard/") for p in r["spans"])
# v2: the quarantined section is always present; a healthy run's is empty,
# and every record that does appear is fully structured.
assert r["quarantined"] == [] or all(
    rec["study"] and rec["index"] >= 0 and rec["params"] and rec["error"]
    for rec in r["quarantined"]
), r["quarantined"]
# v3: the partitions section is always present; single-cell studies record
# no per-cell telemetry, but any record that appears is fully structured.
assert isinstance(r["partitions"], list), r["partitions"]
for rec in r["partitions"]:
    assert rec["study"] and rec["row"] >= 0 and rec["col"] >= 0 and rec["metrics"]
# v4: the yield section records every rare-event study; the example runs
# one, so it must be populated and fully structured.
assert r["yield"], "v4 yield section must be populated"
for rec in r["yield"]:
    assert rec["study"] and rec["metric"] and rec["samples"] > 0
    assert rec["survivors"] + rec["quarantined"] <= rec["samples"]
    assert rec["p_fail"] is None or 0.0 <= rec["p_fail"] <= 1.0
    assert rec["ess"] >= 0.0
print(f"run_report.json ok: {len(r['spans'])} span paths, "
      f"{len(r['counters'])} counters, "
      f"{len(r['quarantined'])} quarantined, "
      f"{len(r['partitions'])} partition cells, "
      f"{len(r['yield'])} yield studies")
EOF

echo "== timeline trace gate (traced 8x8 array write, 1 and 8 threads) =="
# The traced write must export valid Chrome trace_events JSON (balanced
# B/E span pairs, thread ids, the transient/Newton/assembly/array span
# names), and the per-cell partition heatmap — unlike the timing-dependent
# trace itself — must be byte-identical at 1 and 8 threads.
for threads in 1 8; do
  RAYON_NUM_THREADS=$threads cargo run -q --release --offline \
    --example trace_array -- --quick --out-dir "$figtmp/trace_t$threads" >/dev/null
  python3 - "$figtmp/trace_t$threads/trace_array8x8.json" <<'EOF'
import json, sys
t = json.load(open(sys.argv[1]))
assert t["displayTimeUnit"] == "ns", t.get("displayTimeUnit")
ev = t["traceEvents"]
assert ev, "empty trace"
for e in ev:
    assert "name" in e and "ph" in e and "pid" in e and "tid" in e, e
spans = [e for e in ev if e["ph"] in ("B", "E")]
opens = sum(1 for e in spans if e["ph"] == "B")
closes = len(spans) - opens
assert opens > 0 and opens == closes, f"unbalanced spans: {opens} B, {closes} E"
for e in spans:
    assert isinstance(e["ts"], (int, float)) and e["ts"] >= 0, e
names = {e["name"] for e in spans}
for req in ("array_netlist_op", "transient", "newton", "decide", "stamp"):
    assert req in names, f"span `{req}` missing from {sorted(names)}"
print(f"trace ok: {len(ev)} events, {opens} span pairs, {len(names)} span names")
EOF
done
diff "$figtmp/trace_t1/trace_array8x8_partitions.csv" \
     "$figtmp/trace_t8/trace_array8x8_partitions.csv"
grep -q '^array_write,4,4,' "$figtmp/trace_t1/trace_array8x8_partitions.csv"
echo "trace: partition heatmap byte-identical at 1 and 8 threads"

echo "== bench history (machine-independent cost counters vs committed baseline) =="
# Positive: the reports this run's quick benches wrote must match the
# committed results/history baselines within tolerance.
cargo run -q --release --offline -p tfet-bench --bin tfet-bench -- \
  history check --bench-dir "$figtmp/bench"
# Negative: a tampered cost counter must fail the gate with exit code 1.
histneg="$figtmp/history_neg"
mkdir -p "$histneg"
cp results/BENCH_array.json "$histneg/"
python3 - "$histneg/BENCH_array.json" <<'EOF'
import json, sys
path = sys.argv[1]
r = json.load(open(path))
r["counters"]["newton.jac_refactored"] = \
    2 * r["counters"].get("newton.jac_refactored", 0) + 100
json.dump(r, open(path, "w"))
EOF
if cargo run -q --release --offline -p tfet-bench --bin tfet-bench -- \
    history check --bench-dir "$histneg" --history-dir results/history >/dev/null; then
  echo "history check failed to flag a tampered cost counter"
  exit 1
fi
echo "history: baselines pass; tampered newton.jac_refactored correctly fails"

echo "== the gate left the tree as it found it =="
status_after="$(git status --porcelain)"
if [ "$status_after" != "$status_before" ]; then
  echo "scripts/check.sh changed the working tree:"
  diff <(echo "$status_before") <(echo "$status_after") || true
  exit 1
fi
echo "git status unchanged"

echo "All checks passed."
