#!/usr/bin/env python3
"""Self-tests of the benchmark. From the repository root:

    python3 perfbench/test/selftest.py

Takes about six minutes on a 2-core host. It checks that

1. the benchmark's workload configurations reproduce Scenarios.Fig3.run and
   Scenarios.Incast.run_cell (match_scenarios.exe);
2. in the traced run, wrapper call counts equal the program's counters
   exactly (on_report calls = agent.reports_received, handle.install calls
   = agent.installs_sent, native on_ack calls = ACKs);
3. the traced run leaves the digest unchanged, and both agree with the
   committed expectation, at seeds 42 and 7;
4. seeds 42 and 7 emit the same set of metric names, untraced and traced.

Exits 1 on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run as bench  # noqa: E402

SEEDS = [42, 7]


def fail(msg):
    print("FAIL " + msg, flush=True)
    sys.exit(1)


def ok(msg):
    print("ok   " + msg, flush=True)


def scenarios_match():
    subprocess.run(["dune", "build", "--root", bench.ROOT, "./perfbench/test/match_scenarios.exe"],
                   cwd=bench.ROOT, check=True)
    exe = os.path.join(bench.ROOT, "_build", "default", "perfbench", "test", "match_scenarios.exe")
    if subprocess.run([exe, "42"], cwd=bench.ROOT).returncode != 0:
        fail("workload configurations differ from the scenarios")


def traced_matches_untraced(workload, seed):
    timed = bench.once(workload, seed, "timed")
    traced = bench.once(workload, seed, "traced")
    for c in traced["checks"]:
        if c["wrapper"] != c["program"]:
            fail("%s seed %d: %s: wrapper %d, program %d" % (workload, seed, c["name"], c["wrapper"], c["program"]))
        ok("%s seed %d: %s (%d)" % (workload, seed, c["name"], c["wrapper"]))
    if traced["digest"] != timed["digest"]:
        fail("%s seed %d: traced digest %s, untraced %s" % (workload, seed, traced["digest"], timed["digest"]))
    want = bench.expected_digest(workload, seed)
    if want is None:
        fail("%s seed %d: no committed digest" % (workload, seed))
    if want != timed["digest"]:
        fail("%s seed %d: digest %s, committed %s" % (workload, seed, timed["digest"], want))
    ok("%s seed %d: traced = untraced = committed digest %s" % (workload, seed, want))


def metric_names(seed, trace):
    p = subprocess.run([sys.executable, os.path.join(bench.HERE, "run.py"), "--workload", "all",
                        "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                       cwd=bench.ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        fail("run.py --seed %d --trace %d exited %d: %s" % (seed, trace, p.returncode, p.stderr.strip()))
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        fail("run.py --seed %d --trace %d: not correct" % (seed, trace))
    return set(result["metrics"])


def main():
    bench.build()
    scenarios_match()
    for seed in SEEDS:
        for w in bench.WORKLOADS:
            traced_matches_untraced(w, seed)
    for trace in (0, 1):
        names = {seed: metric_names(seed, trace) for seed in SEEDS}
        if names[SEEDS[0]] != names[SEEDS[1]]:
            fail("trace %d: metric names differ between seeds: %s"
                 % (trace, sorted(names[SEEDS[0]] ^ names[SEEDS[1]])))
        ok("trace %d: seeds %s emit the same %d metric names" % (trace, SEEDS, len(names[SEEDS[0]])))


if __name__ == "__main__":
    main()
