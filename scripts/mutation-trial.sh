#!/usr/bin/env bash
# A mutation trial (PRs 21, 22, 24): which check catches which seeded
# defect — and so which checks, catching nothing alone, can go.
#
#   scripts/mutation-trial.sh <patch-dir> -- <command…>
#
# For each `*.patch` in <patch-dir>, in name order: exports HEAD into
# target/mutation-trial/tree (git archive | tar — no worktrees), applies
# that one patch (`patch -p1`: a `git diff` of the repo root), runs
# <command…> there under a per-row timeout, and prints
#
#   row | compiled | failing test names
#
# where a failing test is any output line `test <name> ... FAILED` — what
# `cargo test` prints without -q; a command that checks something else
# says so in the same words (`… || echo "test repro-all-diff ... FAILED"`).
# Rows share one CARGO_TARGET_DIR, so each pays an incremental build. The
# full output of a row stays in target/mutation-trial/<row>.log. Patches
# are not committed (PR 21's rule); the printed table goes into CHANGES.md
# with one line per row saying what was changed. Not part of verify.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 3 ] || [ "$2" != "--" ]; then
  sed -n '2,19s/^# \{0,1\}//p' "$0" >&2
  exit 2
fi
patches=$(cd "$1" && pwd)
shift 2
row_timeout=1800 # seconds; a mutant that hangs is a caught mutant

work=$PWD/target/mutation-trial
tree=$work/tree
export CARGO_TARGET_DIR=$work/target
mkdir -p "$work"

touched=()
echo "row | compiled | failing test names"
for patch in "$patches"/*.patch; do
  row=$(basename "$patch" .patch)
  rm -rf "$tree" && mkdir -p "$tree"
  git archive HEAD | tar -x -C "$tree"
  # The export restores the last row's files with the commit's mtime:
  # older than the build that saw them mutated, so cargo would keep it.
  for f in ${touched[@]+"${touched[@]}"}; do
    [ -e "$tree/$f" ] && touch "$tree/$f"
  done
  mapfile -t touched < <(sed -n 's|^+++ b/||p' "$patch")
  if ! patch -p1 -s --no-backup-if-mismatch -d "$tree" < "$patch" > /dev/null; then
    echo "$row | patch does not apply |"
    touched=()
    continue
  fi
  log=$work/$row.log
  status=0
  (cd "$tree" && timeout -k 10 "$row_timeout" "$@") > "$log" 2>&1 || status=$?
  compiled=yes
  grep -q '^error: could not compile\|^error\[E' "$log" && compiled=no
  failing=$(sed -n 's/^test \(.*\) \.\.\. FAILED$/\1/p' "$log" | sort -u | paste -sd ' ')
  case "$status" in
    0) [ -n "$failing" ] || failing="(none: survived)" ;;
    124 | 137) failing="${failing:+$failing }(timeout after ${row_timeout}s)" ;;
    *) [ -n "$failing" ] || failing="(exit $status, no test named: see $log)" ;;
  esac
  echo "$row | $compiled | $failing"
done
