#!/usr/bin/env bash
# Byte-identity of the working tree against a parent commit:
#
#   scripts/journal-parity.sh <parent-ref>
#
# Exports <parent-ref> under target/journal-parity/ (as bench-pairs.sh
# does), builds `repro` there and here, runs the full-scale `table3`,
# `table3 --rounds 4`, `faults` and `gap` on both with `--journal`, and
# diffs each run's stdout and its journal after scripts/journal-scrub.sed.
# Prints one line per run and ends in `journal-parity: OK`; the first
# difference is printed and fails the script.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  sed -n '2,12s/^# \{0,1\}//p' "$0" >&2
  exit 2
fi
ref=$1

change=$PWD
work=$change/target/journal-parity
parent=$work/parent-$(git rev-parse --short "$ref^{commit}")
scrub=$change/scripts/journal-scrub.sed

if [ ! -d "$parent" ]; then
  mkdir -p "$parent"
  git archive "$ref" | tar -x -C "$parent"
fi
for tree in "$parent" "$change"; do
  (cd "$tree" && cargo build --release --quiet -p vdx-sim --bin repro)
done
rm -rf "$work/runs" && mkdir -p "$work/runs"

runs=("table3" "table3 --rounds 4" "faults" "gap")
for i in "${!runs[@]}"; do
  read -r -a args <<<"${runs[$i]}"
  for side in parent change; do
    tree=$parent
    [ "$side" = change ] && tree=$change
    out=$work/runs/$side-$i
    (cd "$tree" && target/release/repro "${args[@]}" --journal "$out.jsonl" >"$out.txt" 2>/dev/null)
    sed -f "$scrub" "$out.jsonl" >"$out.scrubbed"
  done
  diff "$work/runs/parent-$i.txt" "$work/runs/change-$i.txt"
  diff "$work/runs/parent-$i.scrubbed" "$work/runs/change-$i.scrubbed"
  echo "repro ${runs[$i]}: stdout ($(wc -l <"$work/runs/change-$i.txt") lines) and" \
    "scrubbed journal ($(wc -l <"$work/runs/change-$i.scrubbed") lines) identical"
done
echo "journal-parity: OK"
