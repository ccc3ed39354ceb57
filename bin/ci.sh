#!/bin/sh
# CI entry point: build everything and run the full test suite with the
# fixed property-test seed, so results are reproducible run to run.
#
# For soak testing, set SOAK_SEED (or export CCP_PROP_SEED directly) to
# rerun the randomized suites — property tests, fault-plan invariants —
# under a fresh seed after the deterministic pass:
#
#   SOAK_SEED=$(date +%s) sh bin/ci.sh
set -eu
cd "$(dirname "$0")/.."

echo "== build =="
dune build @all

echo "== test (fixed seed) =="
dune runtest --force

echo "== fuzz smoke (fixed seed) =="
dune exec bin/fuzz_smoke.exe -- 500

echo "== bench smoke =="
# Exercises the bechamel sections (compiled-vs-interpreted per-ACK,
# observability and tracing overhead) end to end; numbers land in
# BENCH.json ({name,value,unit} rows, schema-checked by the writer
# itself). Timings are not gated here — see docs/perf.md for the
# expected band — but the obs section Gc-asserts the obs-off per-ACK
# path at 0 minor words and the tracing section bounds the span
# lifecycle's float-boxing words.
QUICK=1 dune exec bench/main.exe -- micro perack obs tracing telemetry

echo "== obs smoke =="
# The flight recorder end to end: a short traced run whose JSONL the
# driver re-parses after writing (a malformed line exits non-zero), plus
# the same through the CSV sink. The metrics-off zero-allocation Gc
# assertion runs as part of the suite above (obs: "per-ACK path
# allocation-free with obs off").
obs_tmp="$(mktemp -d)"
dune exec bin/ccp_sim.exe -- run --rate 24 --duration 3 --flows ccp-reno \
  --trace "$obs_tmp/trace.jsonl" > /dev/null
dune exec bin/ccp_sim.exe -- run --rate 24 --duration 3 --flows ccp-reno,reno@1 \
  --trace "$obs_tmp/trace.csv" > /dev/null
test -s "$obs_tmp/trace.jsonl" && test -s "$obs_tmp/trace.csv"
rm -rf "$obs_tmp"

echo "== trace smoke =="
# The span tracer end to end: the Figure-2 reaction-latency scenario with
# a Chrome trace_event export (re-parsed and re-validated by the driver
# after writing) and reaction.* percentile rows merged into BENCH.json.
# The driver exits non-zero if a clean series' measured p99 falls outside
# the calibrated latency model's band.
trace_tmp="$(mktemp -d)"
dune exec bin/ccp_sim.exe -- latency --duration 4 \
  --trace "$trace_tmp/chrome.json" --bench-json BENCH.json > /dev/null
test -s "$trace_tmp/chrome.json"
grep -q '"reaction\.' BENCH.json
rm -rf "$trace_tmp"

echo "== robustness smoke =="
# The measurement-noise matrix end to end (docs/robustness.md): a tiny
# algorithms x perturbations run through the CLI, whose scorecard JSON
# the driver re-reads and schema-validates after writing (a malformed or
# out-of-range scorecard exits non-zero), with robustness.* rows merged
# into BENCH.json. The golden byte-frozen scorecard and the
# perturbed-ACK zero-allocation Gc assertion on the obs-off per-ACK fold
# path run in the suite above (robustness: "golden scorecard",
# "fold path stays allocation-free under perturbed ACKs").
rob_tmp="$(mktemp -d)"
dune exec bin/ccp_sim.exe -- robustness --algos ccp-vegas \
  --perturb baseline,combined --duration 2 --rate 24 \
  --scorecard "$rob_tmp/scorecard.json" --bench-json BENCH.json > /dev/null
test -s "$rob_tmp/scorecard.json"
grep -q '"robustness\.' BENCH.json
rm -rf "$rob_tmp"

echo "== chaos smoke =="
# Agent-side resilience end to end (docs/safety.md, docs/fault-injection
# .md): IPC faults x measurement noise x ~4x agent overload x agent
# crash, run cold and warm through the CLI. The driver re-reads and
# schema-validates the scorecard JSON after writing (a malformed or
# out-of-range scorecard exits non-zero) and merges chaos.* rows into
# BENCH.json. The byte-frozen seed-42 scorecard and the recovery/
# starvation/utilization envelopes run in the suite above (chaos.*).
chaos_tmp="$(mktemp -d)"
dune exec bin/ccp_sim.exe -- chaos --duration 6 \
  --scorecard "$chaos_tmp/scorecard.json" --bench-json BENCH.json > /dev/null
test -s "$chaos_tmp/scorecard.json"
grep -q '"chaos\.' BENCH.json
rm -rf "$chaos_tmp"

echo "== health smoke =="
# The control-loop SLO engine end to end (docs/observability.md): the
# seed-42 chaos composition with the telemetry bundle armed, exported as
# a ccp-timeline/v1 document the driver re-reads and schema-validates
# after writing (window accounting, monotone quantiles, space-saving
# error bounds, health shapes — a malformed timeline exits non-zero).
# The agent-crash window must raise the orphan_rate burn-rate alert and
# a later window must clear it; the byte-frozen golden timeline runs in
# the suite above (telemetry.*).
health_tmp="$(mktemp -d)"
dune exec bin/ccp_sim.exe -- chaos --duration 6 --seeds 42 \
  --timeline "$health_tmp/timeline.json" > /dev/null
test -s "$health_tmp/timeline.json"
grep -q '"schema":"ccp-timeline/v1"' "$health_tmp/timeline.json"
grep -q '"slo":"orphan_rate","window":[0-9]*,"t_s":[0-9.]*,"to":"firing"' \
  "$health_tmp/timeline.json"
grep -q '"slo":"orphan_rate","window":[0-9]*,"t_s":[0-9.]*,"to":"ok"' \
  "$health_tmp/timeline.json"
rm -rf "$health_tmp"

echo "== incast smoke =="
# The flow-multiplexed control plane end to end (docs/scale.md): a
# 64-flow synchronized/staggered fan-in over the slot-pooled agent with
# report batching on, run through the CLI. The driver re-reads and
# schema-validates the scorecard JSON after writing (a malformed or
# out-of-range scorecard exits non-zero) and merges incast.* rows into
# BENCH.json. The byte-frozen seed-42 scorecard, the pool-churn
# property, and the batch-frame round-trip/corruption tests run in the
# suite above (scale.*, incast.*, ipc.batch).
incast_tmp="$(mktemp -d)"
dune exec bin/ccp_sim.exe -- incast -n 64 --seeds 42 --duration 0.5 \
  --scorecard "$incast_tmp/scorecard.json" --bench-json BENCH.json > /dev/null
test -s "$incast_tmp/scorecard.json"
grep -q '"incast\.' BENCH.json
rm -rf "$incast_tmp"

echo "== cli argument smoke =="
# Matrix arguments are checked before any cell runs: a negative seed
# exits non-zero naming the flag and leaves no scorecard behind.
cli_tmp="$(mktemp -d)"
if dune exec bin/ccp_sim.exe -- incast --seeds=-1 --scorecard "$cli_tmp/x.json" \
  > /dev/null 2>&1; then
  echo "ccp_sim incast --seeds=-1 exited zero" >&2
  exit 1
fi
test ! -e "$cli_tmp/x.json"
rm -rf "$cli_tmp"

echo "== datapath self-protection smoke =="
# The adversarial-program suite end to end (docs/safety.md): every
# runtime-hostile program must be quarantined exactly once and then
# recover with its corrected install, and the one program admission can
# judge statically (wait-too-short) must be refused, never quarantined.
# Then an out-of-range guard flag must exit 1 naming the flag before any
# simulation runs (no utilization line). The byte-frozen seed-42 hostile
# and degraded scenarios and the ownership hand-overs run in the suite
# above (owner.*).
guard_tmp="$(mktemp -d)"
dune exec bin/ccp_sim.exe -- hostile > "$guard_tmp/hostile.out"
awk 'NR > 2 {
       rows++
       if ($1 == "wait-too-short") ok = ($4 == 1 && $6 == 0 && $7 == "true")
       else ok = ($6 == 1 && $7 == "true")
       if (!ok) { print "hostile: unexpected row: " $0 > "/dev/stderr"; bad = 1 }
     }
     END { if (rows != 7) { print "hostile: expected 7 programs, got " rows > "/dev/stderr"; bad = 1 }
           exit bad }' "$guard_tmp/hostile.out"
status=0
dune exec bin/ccp_sim.exe -- run --flows ccp-bbr --guard-max-rate=-5 \
  > "$guard_tmp/run.out" 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
  echo "ccp_sim run --guard-max-rate=-5 exited $status, expected 1" >&2
  exit 1
fi
grep -q -- '--guard-max-rate' "$guard_tmp/run.out"
if grep -q 'utilization' "$guard_tmp/run.out"; then
  echo "ccp_sim run --guard-max-rate=-5 ran a simulation" >&2
  exit 1
fi
rm -rf "$guard_tmp"

echo "== benchmark workloads match scenarios =="
# perfbench rebuilds the fig3 and incast workloads from the scenarios'
# public pieces; a Scenarios change that drifts from those configs must
# fail here rather than in the benchmark (~45 s).
dune exec perfbench/test/match_scenarios.exe -- 42

echo "== fig3 digest =="
# Figure 3 at 1 Gbit/s through the benchmark runner: it exits 1 if the
# seed-42 output digest or the report/install identities drift from the
# committed ones. One iteration takes about 1 s; a regression back to
# per-ACK scoreboard scans (fig3 at ~3.7 s/s) takes about 7 s.
python3 perfbench/run.py --workload fig3-cubic-1g --seed 42 --seconds 1 --trace 0

echo "== scale bench smoke =="
# The slot-pool churn and batched-report amortization benchmarks: the
# driver itself exits non-zero if registration churn allocates per-flow
# Gc garbage that grows with N, or if the batched agent-side cost per
# report fails to beat the unbatched path.
QUICK=1 dune exec bench/main.exe -- scale
grep -q '"scale\.' BENCH.json

if [ -n "${SOAK_SEED:-}" ]; then
  echo "== soak (CCP_PROP_SEED=$SOAK_SEED) =="
  CCP_PROP_SEED="$SOAK_SEED" dune exec test/main.exe -- test -e
  CCP_PROP_SEED="$SOAK_SEED" dune exec bin/fuzz_smoke.exe -- 500
fi
