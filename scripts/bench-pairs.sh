#!/usr/bin/env bash
# The before/after table of a performance claim (ROADMAP "Numbers to steer
# by": parent and change in alternation, or not at all).
#
#   scripts/bench-pairs.sh <parent-ref> <workload> [pairs=10] [harness flags…]
#
# Exports <parent-ref> under target/bench-pairs/, builds the frozen harness
# there and here (the working tree is the change), runs <workload> on both
# `pairs` times — odd pairs parent first, even pairs change first — into two
# set directories, prints each pair's end-to-end figures as parent|change
# and, per metric, in how many pairs the change was lower, then hands both
# sets to the harness's own `compare` (medians, quartiles, bounds, verdicts,
# exact counts). Anything after `pairs` goes to every run unchanged:
# `--seed 44`, `--trace 1`, `--seconds 5`.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
  sed -n '2,15s/^# \{0,1\}//p' "$0" >&2
  exit 2
fi
ref=$1 workload=$2 pairs=${3:-10}
shift $(($# < 3 ? $# : 3))

change=$PWD
work=$change/target/bench-pairs
parent=$work/parent-$(git rev-parse --short "$ref^{commit}")
sets=$work/$workload
# BENCHMARK.json's command: each side builds what it runs from its own tree.
bench=(cargo run --release --quiet --config examples/vdx_bench/sandbox/config.toml
  --manifest-path examples/vdx_bench/Cargo.toml --)

if [ ! -d "$parent" ]; then
  mkdir -p "$parent"
  git archive "$ref" | tar -x -C "$parent"
fi
# Both builds first, so no run is taken on a box still warm from a compile.
for tree in "$parent" "$change"; do
  (cd "$tree" && cargo build --release --quiet --config examples/vdx_bench/sandbox/config.toml \
    --manifest-path examples/vdx_bench/Cargo.toml)
done
rm -rf "$sets" && mkdir -p "$sets/parent" "$sets/change"

# One run of one side: files its result under the pair's name and prints
# the run's summary line (the last of stdout).
run_side() { # <tree> <set dir> <pair> [harness flags…]
  local tree=$1 set=$2 pair=$3
  shift 3
  (cd "$tree" && "${bench[@]}" --workload "$workload" --out "$set/run" "$@") | tail -n 1
  for f in "$set"/run/*.json; do
    mv "$f" "$set/pair$pair-$(basename "$f")"
  done
  rm -rf "$set/run"
}
figure() { # <summary line> <metric>
  sed -n "s/.*\"$2\":{\"value\":\([-0-9.eE+]*\).*/\1/p" <<<"$1"
}

metrics=(op_ms_p10 setup_s peak_rss_mb)
declare -A lower=() both=()
for m in "${metrics[@]}"; do lower[$m]=0 both[$m]=0; done

for i in $(seq -w 1 "$pairs"); do
  if [ $((10#$i % 2)) -eq 1 ]; then
    a=$(run_side "$parent" "$sets/parent" "$i" "$@")
    b=$(run_side "$change" "$sets/change" "$i" "$@")
  else
    b=$(run_side "$change" "$sets/change" "$i" "$@")
    a=$(run_side "$parent" "$sets/parent" "$i" "$@")
  fi
  line="pair $i"
  for m in "${metrics[@]}"; do
    pa=$(figure "$a" "$m") ch=$(figure "$b" "$m")
    line+="  $m $pa|$ch"
    [ -n "$pa" ] && [ -n "$ch" ] || continue
    both[$m]=$((both[$m] + 1))
    if awk -v p="$pa" -v c="$ch" 'BEGIN { exit !(c + 0 < p + 0) }'; then
      lower[$m]=$((lower[$m] + 1))
    fi
  done
  echo "$line"
done
# The ROADMAP's "≥ 9 of 10" rule, read per metric over the pairs that
# report it (a tie is not a win; a traced run's summary line has none).
for m in "${metrics[@]}"; do
  if [ "${both[$m]}" -gt 0 ]; then
    echo "$m: change lower in ${lower[$m]} of ${both[$m]}"
  fi
done

echo
"${bench[@]}" compare "$sets/parent" "$sets/change"
