#!/usr/bin/env bash
# Alternating perfbench pairs: a parent commit against a change.
#
# Builds perfbench for both sides from clean `git archive` copies, with the
# same RUSTFLAGS on both (the caller's, plus
# `-C llvm-args=-align-all-functions=6`, which pins every function to a
# 64-byte boundary so an unchanged hot function cannot move its alignment
# between the two builds). Then runs untraced perfbench pairs, alternating
# which side goes first, for every workload and seed, and prints per pair
# the change/parent ratio of `items_per_s` (normalized) and of the
# wall-clock items/s, marking each pair whose two ratios point in opposite
# directions, then per workload each side's median and quartiles of
# `items_per_s`, `setup_s` and `peak_rss_mb`, and for each of the
# normalized and the wall-clock items/s (higher is better), `setup_s` and
# `peak_rss_mb` (lower is better) the median pair ratio and how many pairs
# the change won. perfbench itself is run unedited.
#
# Usage:
#   scripts/bench_pair.sh --parent REV [--change REV|worktree]
#       [--workloads "W ..."] [--seeds "N ..."] [--pairs N] [--seconds S]
#       [--work DIR] [--dry-run]
#
#   --change    the change to measure (default `worktree`: HEAD plus the
#               tracked and staged edits of the working tree, via
#               `git stash create`; stage new files first)
#   --workloads default: all three perfbench workloads
#   --seeds     default: "1 2 3 4 5 6 7 8 9 10"
#   --pairs     pairs per workload and seed (default 1)
#   --seconds   perfbench --seconds per run (default 30)
#   --work      build and log directory (default: a new temporary one;
#               kept, so a rerun with the same DIR reuses the builds)
#   --dry-run   resolve both sides and print the plan; build and run nothing
set -euo pipefail
cd "$(dirname "$0")/.."

parent=""
change="worktree"
workloads="cell_mc_write cell_yield_read array_write_read_64"
seeds="1 2 3 4 5 6 7 8 9 10"
pairs=1
seconds=30
work=""
dry_run=0
usage() { sed -n '/^# Usage:/,/^set -euo/p' "$0" | sed -n 's/^# \{0,1\}//p'; exit 2; }
while [ $# -gt 0 ]; do
  case "$1" in
    --parent) parent="$2"; shift 2 ;;
    --change) change="$2"; shift 2 ;;
    --workloads) workloads="$2"; shift 2 ;;
    --seeds) seeds="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --work) work="$2"; shift 2 ;;
    --dry-run) dry_run=1; shift ;;
    *) usage ;;
  esac
done
[ -n "$parent" ] || usage
case "$pairs" in '' | *[!0-9]* | 0) echo "--pairs must be a positive integer" >&2; exit 2 ;; esac

parent_rev="$(git rev-parse --verify "$parent^{commit}")"
if [ "$change" = worktree ]; then
  # A commit object of the working tree's tracked state; empty when clean.
  change_rev="$(git stash create)"
  change_rev="${change_rev:-$(git rev-parse HEAD)}"
else
  change_rev="$(git rev-parse --verify "$change^{commit}")"
fi
export RUSTFLAGS="${RUSTFLAGS:-}${RUSTFLAGS:+ }-C llvm-args=-align-all-functions=6"

echo "parent $parent_rev"
echo "change $change_rev ($change)"
echo "RUSTFLAGS $RUSTFLAGS"
echo "workloads: $workloads; seeds: $seeds; $pairs pair(s) each; --seconds $seconds"
# One line per pair: workload, seed, pair number, first side, second side.
schedule() {
  local k=0 w s p
  for w in $workloads; do
    for s in $seeds; do
      for p in $(seq "$pairs"); do
        if [ $((k % 2)) = 0 ]; then echo "$w $s $p parent change"; else echo "$w $s $p change parent"; fi
        k=$((k + 1))
      done
    done
  done
}
if [ "$dry_run" = 1 ]; then
  schedule | sed 's/^/pair: /'
  echo "dry run: nothing built or run"
  exit 0
fi

work="${work:-$(mktemp -d)}"
mkdir -p "$work"
echo "work dir $work"
build() { # side rev
  local dir="$work/$1"
  mkdir -p "$dir"
  git archive "$2" | tar -x -C "$dir"
  echo "== building $1 ($2) =="
  cargo build -q --release --offline --manifest-path "$dir/perfbench/Cargo.toml"
}
build parent "$parent_rev"
build change "$change_rev"

results="$work/pairs.tsv"
: >"$results"
run() { # side workload seed pair
  local log="$work/logs/$2.$3.$4.$1"
  mkdir -p "$work/logs"
  "$work/$1/perfbench/target/release/tfet-perfbench" --workload "$2" --seed "$3" \
    --seconds "$seconds" --trace 0 </dev/null >"$log.out" 2>"$log.err" || true
  python3 - "$log.out" "$log.err" "$1" "$2" "$3" "$4" >>"$results" <<'EOF'
import json, re, statistics, sys
out, err, side, w, seed, pair = sys.argv[1:]
last = open(out).read().strip().splitlines()[-1]
r = json.loads(last)
if r["correct"] is not True or r["failed"] != 0:
    sys.exit(f"{side} {w} seed {seed}: not a clean run: {last}")
m = r["metrics"]
wall = re.search(r"wall-clock items/s \[([^\]]*)\]", open(err).read())
wall = statistics.median(float(v) for v in wall.group(1).split(","))
vals = [m["items_per_s"]["value"], m["setup_s"]["value"], m["peak_rss_mb"]["value"], wall]
print("\t".join([w, seed, pair, side] + [repr(v) for v in vals]))
EOF
}

schedule | while read -r w s p first second; do
  run "$first" "$w" "$s" "$p"
  run "$second" "$w" "$s" "$p"
done

python3 - "$results" <<'EOF'
import statistics, sys
from collections import defaultdict
rows = defaultdict(dict)
for line in open(sys.argv[1]):
    w, seed, pair, side, items, setup, rss, wall = line.split("\t")
    rows[(w, seed, pair)][side] = tuple(map(float, (items, setup, rss, wall)))

def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return f"median {q2:.6g} (q1 {q1:.6g}, q3 {q3:.6g}, IQR {q3 - q1:.3g})"

for w in dict.fromkeys(k[0] for k in rows):
    keys = [k for k in rows if k[0] == w]
    print(f"\n== {w} ==")
    print("seed pair  items_per_s ratio  wall-clock ratio")
    split = 0
    for k in keys:
        par, chg = rows[k]["parent"], rows[k]["change"]
        norm, wall = chg[0] / par[0], chg[3] / par[3]
        # Probe normalization can over-correct when the host is contended,
        # and a change that loads a second core contends with the probe:
        # flag every pair whose two ratios point in opposite directions.
        disagree = (norm - 1) * (wall - 1) < 0
        split += disagree
        mark = "  <- normalized and wall-clock disagree" if disagree else ""
        print(f"{k[1]:>4} {k[2]:>4}  {norm:>17.4f}  {wall:>16.4f}{mark}")
    for i, name in enumerate(["items_per_s", "setup_s", "peak_rss_mb"]):
        for side in ("parent", "change"):
            print(f"{name:<12} {side:<6} {quartiles([rows[k][side][i] for k in keys])}")
    for name, i, better in (
        ("items_per_s", 0, "higher"),
        ("wall-clock items/s", 3, "higher"),
        ("setup_s", 1, "lower"),
        ("peak_rss_mb", 2, "lower"),
    ):
        ratios = [rows[k]["change"][i] / rows[k]["parent"][i] for k in keys]
        wins = sum(r < 1 if better == "lower" else r > 1 for r in ratios)
        print(f"{name} ({better} is better): change won {wins}/{len(keys)} pairs; "
              f"median pair ratio {statistics.median(ratios):.4f}")
    print(f"pairs whose normalized and wall-clock ratios disagree: {split}/{len(keys)}")
EOF
