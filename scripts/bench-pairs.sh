#!/usr/bin/env bash
# The before/after table of a performance claim (ROADMAP "Numbers to steer
# by": parent and change in alternation, or not at all).
#
#   scripts/bench-pairs.sh <parent-ref> <workload>[,<workload>…] [pairs=10] [harness flags…]
#
# Exports <parent-ref> under target/bench-pairs/, builds the frozen harness
# there and here (the working tree is the change), runs each workload on
# both `pairs` times — odd pairs parent first, even pairs change first, the
# two sides of one workload back to back — into two set directories per
# workload, prints each pair's end-to-end figures as parent|change and, per
# metric, in how many pairs the change was lower, both sides' medians, the
# parent's inter-quartile distance and whether a claim that the change is
# lower holds by the ROADMAP's rule (at least 10 pairs, the change lower in
# at least 9 of 10, medians apart by more than the parent's IQR) — or, the
# same rule mirrored, whether the change is worse by it (higher in at least
# 9 of 10, its median above the parent's by more than the IQR), then hands
# each workload's two sets to the harness's own `compare` (medians,
# quartiles, bounds, verdicts, exact counts). With several workloads every line names
# its workload. Anything after `pairs` goes to every run unchanged:
# `--seed 44`, `--trace 1`, `--seconds 5`.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
  sed -n '2,20s/^# \{0,1\}//p' "$0" >&2
  exit 2
fi
ref=$1 pairs=${3:-10}
IFS=, read -r -a workloads <<<"$2"
shift $(($# < 3 ? $# : 3))

change=$PWD
work=$change/target/bench-pairs
parent=$work/parent-$(git rev-parse --short "$ref^{commit}")
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
for w in "${workloads[@]}"; do
  rm -rf "${work:?}/$w" && mkdir -p "$work/$w/parent" "$work/$w/change"
done

# One run of one side: files its result under the pair's name and prints
# the run's summary line (the last of stdout).
run_side() { # <tree> <workload> <parent|change> <pair> [harness flags…]
  local tree=$1 workload=$2 set=$work/$2/$3 pair=$4
  shift 4
  (cd "$tree" && "${bench[@]}" --workload "$workload" --out "$set/run" "$@") | tail -n 1
  for f in "$set"/run/*.json; do
    mv "$f" "$set/pair$pair-$(basename "$f")"
  done
  rm -rf "$set/run"
}
figure() { # <summary line> <metric>
  sed -n "s/.*\"$2\":{\"value\":\([-0-9.eE+]*\).*/\1/p" <<<"$1"
}
# A workload's name on its lines, when there is more than one.
label() { # <workload>
  if [ ${#workloads[@]} -gt 1 ]; then printf '%s ' "$1"; fi
}

# First quartile, median and third quartile of the arguments, by the
# exclusive method (Python's `statistics.quantiles(n=4)`, the harness's
# `stats::quartiles`).
quartiles() { # <value…>
  printf '%s\n' "$@" | sort -g | awk '{ v[NR] = $1 } END {
    n = NR
    for (i = 1; i <= 3; i++) {
      pos = i * (n + 1); j = int(pos / 4)
      if (j > n - 1) j = n - 1
      if (j < 1) j = 1
      d = pos - j * 4
      q[i] = n < 2 ? v[1] : (v[j] * (4 - d) + v[j + 1] * d) / 4
    }
    printf "%g %g %g\n", q[1], q[2], q[3]
  }'
}

metrics=(op_ms_p10 setup_s peak_rss_mb)
declare -A lower=() higher=() both=() parent_values=() change_values=()
for w in "${workloads[@]}"; do
  for m in "${metrics[@]}"; do lower[$w.$m]=0 higher[$w.$m]=0 both[$w.$m]=0; done
done

for i in $(seq -w 1 "$pairs"); do
  for w in "${workloads[@]}"; do
    if [ $((10#$i % 2)) -eq 1 ]; then
      a=$(run_side "$parent" "$w" parent "$i" "$@")
      b=$(run_side "$change" "$w" change "$i" "$@")
    else
      b=$(run_side "$change" "$w" change "$i" "$@")
      a=$(run_side "$parent" "$w" parent "$i" "$@")
    fi
    line="pair $i"
    if [ ${#workloads[@]} -gt 1 ]; then line+=" $w"; fi
    for m in "${metrics[@]}"; do
      pa=$(figure "$a" "$m") ch=$(figure "$b" "$m")
      line+="  $m $pa|$ch"
      [ -n "$pa" ] && [ -n "$ch" ] || continue
      both[$w.$m]=$((both[$w.$m] + 1))
      parent_values[$w.$m]+=" $pa" change_values[$w.$m]+=" $ch"
      if awk -v p="$pa" -v c="$ch" 'BEGIN { exit !(c + 0 < p + 0) }'; then
        lower[$w.$m]=$((lower[$w.$m] + 1))
      elif awk -v p="$pa" -v c="$ch" 'BEGIN { exit !(c + 0 > p + 0) }'; then
        higher[$w.$m]=$((higher[$w.$m] + 1))
      fi
    done
    echo "$line"
  done
done
# The ROADMAP's claim rule, read per metric over the pairs that report it
# (a tie is neither a win nor a loss; a traced run's summary line has
# none): at least 10 pairs, the change lower in at least 9 of 10, and the
# change's median below the parent's by more than the parent's
# inter-quartile distance. Mirrored — higher in 9 of 10, the median above
# by more than the IQR — the change is worse by that rule: a rise the
# pipeline would reject, claimed or not.
for w in "${workloads[@]}"; do
  for m in "${metrics[@]}"; do
    n=${both[$w.$m]} won=${lower[$w.$m]} lost=${higher[$w.$m]}
    if [ "$n" -gt 0 ]; then
      echo "$(label "$w")$m: change lower in $won of $n"
      read -r p1 pm p3 <<<"$(quartiles ${parent_values[$w.$m]})"
      read -r _ cm _ <<<"$(quartiles ${change_values[$w.$m]})"
      verdict=$(awk -v n="$n" -v won="$won" -v lost="$lost" -v pm="$pm" -v cm="$cm" \
        -v p1="$p1" -v p3="$p3" 'BEGIN {
          if (n >= 10 && won * 10 >= n * 9 && pm - cm > p3 - p1) print "claim holds"
          else if (n >= 10 && lost * 10 >= n * 9 && cm - pm > p3 - p1) print "worse by the claim rule"
          else print "claim not met"
        }')
      echo "$(label "$w")$m: median parent $pm, change $cm; parent IQR $(awk -v a="$p1" -v b="$p3" 'BEGIN { printf "%g", b - a }'): $verdict"
    fi
  done
done

for w in "${workloads[@]}"; do
  echo
  if [ ${#workloads[@]} -gt 1 ]; then echo "== $w"; fi
  "${bench[@]}" compare "$work/$w/parent" "$work/$w/change"
done
