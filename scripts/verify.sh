#!/usr/bin/env bash
# Verify path: style gates plus the tier-1 build-and-test of ROADMAP.md.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --all-targets -- -D warnings (wall-clock reads; iter_over_hash_type; unwrap_used/expect_used/panic/todo/unimplemented denied on every target, indexing_slicing where hostile bytes are decoded; every exemption an #[expect])"
cargo clippy --all-targets -- -D warnings

echo "==> no lock anywhere (one owner per piece of state, channels and atomics between threads; DESIGN.md §13)"
# The daemon's round thread owns every connection (its cross-thread state
# is the inbound channel, the per-connection ticket queues and the
# shutdown flag); vdx-obs's sinks are a channel sender and a journal
# written one line per write through `&File`, with no timing state. A lock
# type anywhere in the tree, tests included, is that design eroding.
# The benchmark harness is its own package and not this gate's subject.
if grep -rnwE 'Mutex|Condvar|RwLock' crates src tests examples --exclude-dir=vdx_bench; then
  echo "verify: the tree names a lock type (above)" >&2
  exit 1
fi

echo "==> one Announce step (only BidEngine applies the design's Announce rule)"
# The pure round and every agent announce through `BidEngine`; a second
# caller of the rule outside test code is a second Announce path, kept
# equal to the first only by tests. Each file counts up to its first
# `#[cfg(test)]`; design.rs holds the rule's definitions.
announce=$(find crates/*/src -name '*.rs' ! -path crates/core/src/exchange.rs \
  ! -path crates/core/src/design.rs -exec awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile }
    /\.(announced_price|believed_capacity)\(/ { print FILENAME ":" FNR ": " $0 }' {} +)
if [ -n "$announce" ]; then
  echo "$announce"
  echo "verify: the Announce rule is applied outside BidEngine (above)" >&2
  exit 1
fi

echo "==> one cache writer (only Round::run and the daemon's WAL recovery store stale bids)"
# A CDN's cached bids must be its own earlier Announce: the spine stores
# the fresh batches of a round it decides, and a restart restores what the
# WAL logged. Any other `.store(` outside test code (atomics aside) fills
# the cache from somewhere else. A call is attributed to the last `fn`
# opened above it in its file.
writers=$(find crates/*/src -name '*.rs' -exec awk '
    FNR == 1 { fn = "" }
    /^[[:space:]]*#\[cfg\(test\)\]/ { nextfile }
    match($0, /(^|[^[:alnum:]_])fn [[:alnum:]_]+/) {
      fn = substr($0, RSTART, RLENGTH); sub(/.*fn /, "", fn)
    }
    /\.store\(/ && !/Ordering::/ {
      if ((FILENAME == "crates/core/src/exchange.rs" && fn == "run") ||
          (FILENAME == "crates/exchanged/src/server.rs" && fn == "recover")) next
      print FILENAME ":" FNR ": in fn " fn ": " $0
    }' {} +)
if [ -n "$writers" ]; then
  echo "$writers"
  echo "verify: the stale-bid cache is written outside Round::run and WAL recovery (above)" >&2
  exit 1
fi

echo "==> one round tail (the pure round and the spine open and close a round through the same code)"
# Both round forms journal a round's open (`round_started`,
# `share_published`) and its close (`accept_issued`, `cluster_congested`,
# `round_completed`) through `journal_open` and `journal_close` in
# core/src/decision.rs. Outside test code each of these events is built
# for an `.emit(` at exactly one place; a second place is a second round
# tail, kept equal to the first only by tests. Readers that match on the
# events (audit, obs-report) emit none and do not count.
tail_sites=$(find crates/*/src -name '*.rs' -exec awk '
    FNR == 1 { pending = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { nextfile }
    {
      text = pending ? ".emit(" $0 : $0
      kinds = "(RoundStarted|SharePublished|AcceptIssued|ClusterCongested|RoundCompleted)"
      if (match(text, "\\.emit\\([[:space:]]*([[:alnum:]_]+::)*" kinds "[[:space:]]*[{]")) {
        kind = substr(text, RSTART, RLENGTH)
        sub(/[[:space:]]*[{]$/, "", kind); sub(/.*[(:][[:space:]]*/, "", kind)
        print kind " " FILENAME ":" FNR
      }
      pending = ($0 ~ /\.emit\([[:space:]]*$/)
    }' {} +)
tails=""
for kind in RoundStarted SharePublished AcceptIssued ClusterCongested RoundCompleted; do
  sites=$(printf '%s\n' "$tail_sites" | grep "^$kind " || true)
  count=$(printf '%s' "$sites" | grep -c . || true)
  if [ "$count" -ne 1 ]; then
    tails+="$kind is emitted at $count places:"$'\n'"$sites"$'\n'
  fi
done
if [ -n "$tails" ]; then
  printf '%s' "$tails"
  echo "verify: a round's open or close is journaled outside the one round tail (above)" >&2
  exit 1
fi

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "==> cargo build --release"
cargo build --release

echo "==> symbol census (no unlisted module links zero symbols into the three binaries)"
scripts/symbol-census.sh

echo "==> cargo test -q"
cargo test -q

echo "==> the paper's scale in release (traffic vs the frame and WAL bounds; a restart of that log; daemon round == Table 3)"
# The same file ran above in the debug build; this is the build the
# daemon ships as. Its restart reads records larger than a scan buffer
# and reads every CDN's batch back out of a full-scale checkpoint.
cargo test --release -q -p vdx-exchanged --test full_scale

echo "==> benchmark harness selftest (out-of-workspace consumer of the round-spine APIs)"
# examples/vdx_bench is its own package, so the build and tests above do
# not compile it: API drift under what it imports shows up only here.
cargo run --release --manifest-path examples/vdx_bench/Cargo.toml -- selftest

echo "==> benchmark harness output checks (all four workloads: real agents over loopback, a real 256-round log, Table 3 at full scale)"
# The harness's checks as a gate, not its timings: each run exits
# non-zero on any `CHECK FAILED`. daemon, daemon-wal — every round Fresh,
# soak parity over 16 rounds, every restart recovering all 256 rounds,
# `read_records` + `replay` of the 45 MB log with zero trailing bytes:
# what drives the collect signal, one-buffer framing, the CRC and the WAL
# scan at full message sizes — its reader thread, records checked where
# they lie and across buffers, and a restart's fold of batch locations
# and its read-back of the committed batches. sim-cold, sim-warm — the Table-3 gate
# against the committed baseline at seed 2017, every group assigned in
# all eight designs, a separate round per design reproducing the rows,
# every pass equal to the first, every warm round bit-equal to a cold
# one: what guards, at the paper's scale, regret-once, same-city reuse,
# the scenario's candidate tables (`MatchTable`), the GAP build's
# repeated-list buckets (`build_gap`), the prefix solve (values formed
# from Fig 9's coefficients, each group's best options read first;
# `rebuilt GAP solves to …` compares it with the harness's own
# one-list-per-group GAP) and the engine's fold per round
# (`run_rounds`; its thread-count parity at full scale is a step below).
for workload in sim-cold sim-warm daemon daemon-wal; do
  cargo run --release --manifest-path examples/vdx_bench/Cargo.toml -- \
    --workload "$workload" --seconds 2
done

echo "==> full reproduction vs the committed output (every table and figure, byte for byte)"
# The seeded RNG stream is part of the artifact: results/repro_full.txt
# lines 1-328 date from the seed commit, built against published `rand`.
# Its last section is `repro gap`: the heuristic's objective and the dual
# bound on the optimum, all eight designs at full scale, to the digit.
cargo run -p vdx-sim --bin repro --release -- all | diff - results/repro_full.txt

echo "==> replay smoke (periodic rounds over the live sessions: one churn event per populated bin, any thread count)"
rm -rf target/verify-replay && mkdir -p target/verify-replay
for n in 1 4; do
  cargo run -p vdx-sim --bin repro --release -- replay --small --threads "$n" \
    --journal "target/verify-replay/t$n.jsonl" > "target/verify-replay/t$n.txt"
done
diff target/verify-replay/t1.txt target/verify-replay/t4.txt
# Table rows start with the bin's t0; a populated bin has sessions in
# column 2.
bins=$(awk '$1 ~ /^[0-9]+$/ && $2 > 0' target/verify-replay/t1.txt | wc -l)
test "$bins" -gt 0
test "$(grep -c '"ev":"session_moved"' target/verify-replay/t1.jsonl)" -eq "$bins"

echo "==> gap smoke (the heuristic under its dual bound: same table on any thread count)"
for n in 1 4; do
  cargo run -p vdx-sim --bin repro --release -- gap --small --threads "$n" \
    > "target/verify-replay/gap$n.txt"
done
diff target/verify-replay/gap1.txt target/verify-replay/gap4.txt
grep -q Omniscient target/verify-replay/gap1.txt

echo "==> audit regression gate (Table-3 fidelity vs committed baseline)"
cargo run -p vdx-sim --bin repro --release -- audit --baseline results/BENCH_experiments.json

echo "==> audit report smoke (journal -> typed rows -> queries)"
rm -rf target/verify-audit
cargo run -p vdx-sim --bin repro --release -- table3 --small \
  --journal target/verify-audit/t3.jsonl
cargo run -p vdx-sim --bin repro --release -- audit report \
  target/verify-audit/t3.jsonl | grep objective-delta
# The journal is the timer: every round carries its wall time, and
# obs-report's timing rows (span, count, mean, p50, p95, p99) come from it.
t3=target/verify-audit/t3.jsonl
test "$(grep -c '"ev":"round_completed"' "$t3")" -gt 0
test "$(grep '"ev":"round_completed"' "$t3" | grep -c '"wall_us":')" \
  -eq "$(grep -c '"ev":"round_completed"' "$t3")"
cargo run -p vdx-sim --bin repro --release -- obs-report "$t3" \
  > target/verify-audit/report.txt
grep -q '== Timings (µs) ==' target/verify-audit/report.txt
grep -Eq '^ *round_completed( +[0-9.]+){5}$' target/verify-audit/report.txt
grep -Eq '^ *solver_stats( +[0-9.]+){5}$' target/verify-audit/report.txt

echo "==> thread-count parity at full scale (table3 on 1 and 4 threads: output + journals)"
# Each worker folds its round into a Table-3 row before claiming the next,
# and journal buffers flush in spec order: the table and the scrubbed
# journal (the run header's thread count aside) must not see the schedule.
# The wall-clock fields are scrubbed first (scripts/journal-scrub.sed,
# which journal-parity.sh reads too).
scrub=scripts/journal-scrub.sed
rm -rf target/verify-threads && mkdir -p target/verify-threads
for n in 1 4; do
  cargo run -p vdx-sim --bin repro --release -- table3 --threads "$n" \
    --journal "target/verify-threads/t$n.jsonl" > "target/verify-threads/t$n.txt"
  sed -f "$scrub" -e 's/"threads":[0-9]*/"threads":0/' \
    "target/verify-threads/t$n.jsonl" > "target/verify-threads/t$n.scrubbed"
done
diff target/verify-threads/t1.txt target/verify-threads/t4.txt
diff target/verify-threads/t1.scrubbed target/verify-threads/t4.scrubbed
grep -q '"ev":"round_completed"' target/verify-threads/t1.jsonl

echo "==> thread-count parity at full scale (faults on 1 and 4 threads: output + journals)"
# The fault campaigns' faulted rounds run on the spine over simulated
# lossy links; campaigns fan out across threads and flush their buffered
# journals in cell order, so neither the table nor the scrubbed journal
# may see the schedule. At this scale loss really bites: the journal
# carries wire drops, stale reuse and Brokered fallbacks.
for n in 1 4; do
  cargo run -p vdx-sim --bin repro --release -- faults --threads "$n" \
    --journal "target/verify-threads/faults$n.jsonl" > "target/verify-threads/faults$n.txt"
  sed -f "$scrub" -e 's/"threads":[0-9]*/"threads":0/' \
    "target/verify-threads/faults$n.jsonl" > "target/verify-threads/faults$n.scrubbed"
done
diff target/verify-threads/faults1.txt target/verify-threads/faults4.txt
diff target/verify-threads/faults1.scrubbed target/verify-threads/faults4.scrubbed
grep -q '"ev":"stale_bids_reused"' target/verify-threads/faults1.jsonl
grep -q '"ev":"design_fallback"' target/verify-threads/faults1.jsonl

echo "==> daemon smoke (vdx-exchanged + 14 vdx-agent processes at the paper's scale over loopback: Marketplace, then DynamicPricing)"
# Time-bounded end-to-end runs of the second driver (ARCHITECTURE.md):
# real TCP on a loopback port, one vdx-agent per CDN of the full-scale
# scenario (≈ 1.5 s), clean shutdown, no round missing its deadline.
# `daemon_rounds DIR DESIGN ROUNDS` leaves the journal and the daemon's
# stderr (one `round N: <resolution> ...` line per round) in DIR.
daemon_rounds() {
  local dir=$1 design=$2 rounds=$3
  rm -rf "$dir" && mkdir -p "$dir"
  local port=$((20000 + RANDOM % 20000))
  timeout 120 target/release/vdx-exchanged --addr "127.0.0.1:${port}" \
    --design "$design" --rounds "$rounds" --min-agents 14 --wait-ms 60000 \
    --journal "$dir/exchanged.jsonl" 2> "$dir/exchanged.err" &
  local daemon=$!
  # Wait for the listener before starting the agents (the probe connection
  # this opens carries no Hello and is dropped at the handshake, harmlessly).
  for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/${port}") 2>/dev/null; then exec 3>&-; break; fi
    sleep 0.1
  done
  local agents=()
  for cdn in $(seq 0 13); do
    timeout 120 target/release/vdx-agent --cdn "$cdn" --design "$design" \
      --connect "127.0.0.1:${port}" &
    agents+=($!)
  done
  wait "$daemon"   # non-zero daemon exit fails the verify
  for agent in "${agents[@]}"; do wait "$agent"; done
  test "$(grep -c '"ev":"deadline_missed"' "$dir/exchanged.jsonl")" -eq 0
}
# Marketplace, 3 rounds: CDN 0 — the one highly distributed CDN, whose
# 34,288-bid Announce once overflowed a frame — must bid in every round.
# The journal must parse and show the daemon-only events. Each agent bids
# from a fresh engine every round, so rounds 1 and 2 repeat round 0's
# problem exactly: the broker's memo (DESIGN.md §12) solves round 0 and
# replays it twice.
daemon_rounds target/verify-daemon marketplace 3
grep -q '"ev":"conn_accepted"'   target/verify-daemon/exchanged.jsonl
grep -q '"ev":"round_completed"' target/verify-daemon/exchanged.jsonl
test "$(grep -c '"ev":"bid_received","round":[0-9]*,"cdn":0,"bids":34288}' \
  target/verify-daemon/exchanged.jsonl)" -eq 3
test "$(grep -o '"ev":"solver_stats","round":[0-9]*,"objective":[^,]*,"warm_hit":[a-z]*' \
  target/verify-daemon/exchanged.jsonl | sed 's/,"objective":[^,]*//')" = \
  "$(printf '"ev":"solver_stats","round":%s,"warm_hit":%s\n' 0 false 1 true 2 true)"
cargo run -p vdx-sim --bin repro --release -- obs-report \
  target/verify-daemon/exchanged.jsonl > target/verify-daemon/report.txt
grep -q "Daemon connections & health" target/verify-daemon/report.txt
# DynamicPricing, 1 round: the Announce rule's other branches over
# sockets — cost announced, capacity the per-CDN median, one bid per
# share (CDN 0's 2,718, as in `repro table3`'s journal for the design).
# The round is Fresh and its objective is Table 3's, digit for digit.
daemon_rounds target/verify-daemon-dp dynamic-pricing 1
grep -q '^round 0: Fresh ' target/verify-daemon-dp/exchanged.err
test "$(grep -c '"ev":"bid_received","round":0,"cdn":0,"bids":2718}' \
  target/verify-daemon-dp/exchanged.jsonl)" -eq 1
objective() { grep -o "\"ev\":\"round_completed\",\"round\":$2,\"objective\":[^,]*" "$1" | cut -d: -f4; }
table3_round=$(grep -o '"ev":"round_started","round":[0-9]*,"design":"DynamicPricing"' \
  target/verify-threads/t1.jsonl | cut -d: -f3 | cut -d, -f1)
dp_objective=$(objective target/verify-daemon-dp/exchanged.jsonl 0)
test -n "$dp_objective"
test "$dp_objective" = "$(objective target/verify-threads/t1.jsonl "$table3_round")"

echo "==> crash-recovery smoke (repro chaos: SIGKILL, restart, byte parity)"
# Three seeded kill-restart trials of the chaos harness (DESIGN.md §15):
# a real vdx-exchanged is SIGKILLed at rounds 6, 7 and 8 of the ladder
# campaign, restarted on its WAL, and each recovered decision sequence
# must be byte-identical to the uninterrupted reference. The trial index
# picks the tail fault (none, truncate, flip-byte); rounds 7 and 8 are
# all-silent, so their forced mid-round kill lands inside the 1.5 s
# deadline wait with the tail still staged, and both faults must apply:
# a `(skipped)` fault fails the step. Then the recovery events must be in
# the restarted daemon's journal, and the surviving WAL must
# independently re-verify against the reference. A trial takes ≈ 9 s
# (small scenario, release build), so the three take ≈ 28 s.
rm -rf target/verify-chaos
mkdir -p target/verify-chaos
timeout 900 cargo run -p vdx-sim --bin repro --release -- chaos \
  --seed 90217 --crash-at 6,7,8 --work-dir target/verify-chaos \
  | tee target/verify-chaos/trials.txt
test "$(grep -c ' OK$' target/verify-chaos/trials.txt)" -eq 3
if grep -q '(skipped)' target/verify-chaos/trials.txt; then
  echo "chaos: a tail fault was skipped; every fault must run" >&2
  exit 1
fi
# The killed daemon's journal holds every round it committed: the journal
# writes each line in one unbuffered write, so nothing waits on an exit
# that a SIGKILL never runs.
before=$(ls target/verify-chaos/trial-r6-*-before.jsonl)
committed=$(awk '$1 == 6 && $2 == "mid-round" { print $4 }' target/verify-chaos/trials.txt)
cargo run -q -p vdx-sim --bin repro --release -- obs-report "$before" > /dev/null
test "$(grep -c '"ev":"round_completed"' "$before")" -eq "$committed"
grep -q '"ev":"recovery_started"'  target/verify-chaos/trial-r6-*-after.jsonl
grep -q '"ev":"recovery_complete"' target/verify-chaos/trial-r6-*-after.jsonl
cargo run -p vdx-sim --bin repro --release -- chaos \
  --check target/verify-chaos/trial-r6-*.wal --seed 90217 --ladder

echo "==> examples (run, not merely compiled)"
cargo run --release --example quickstart
cargo run --release --example live_exchange

echo "verify: OK"
