#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/main.exe with dune, runs one
workload for about --seconds seconds, checks the simulated outputs, and
prints one JSON result as the last line of standard output.

    python3 perfbench/run.py --workload fig3-cubic-1g --seed 42 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics from untraced runs, one fresh
process per iteration. --trace 1 adds one traced iteration and reports the
per-layer metrics and the cost ledger. See perfbench/README.md.
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
EXPECTED = os.path.join(HERE, "expected_digests.json")
ROWS = os.path.join(ROOT, ".perfbench", "rows.json")

WORKLOADS = ["fig3-cubic-1g", "incast-reno-sync", "incast-aggregate"]
TELEMETRY_ON = {"incast-reno-sync"}  # the workload itself runs with telemetry armed

CHILD_TIMEOUT_S = 170
RUN_BUDGET_S = 150  # no new iteration starts after this

# Reported in the result line, in this order (BENCHMARK.json end_to_end).
END_TO_END = [
    ("wall_s_per_sim_s", "s/s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("host_us_per_report", "us"),
    ("goodput_frac", "ratio"),
    ("rtt_p99_over_base", "ratio"),
    ("jain_index", "ratio"),
    ("ctl_frames_per_report", "frames"),
    ("ctl_bytes_per_report", "B"),
    ("ctl_ok_frac", "ratio"),
]
# Printed and written as rows where the workload has them; not in the
# result line because not every workload has them, or (rtt_p99_ms) because
# a simulated time reads the same on every run of a seed.
EXTRA = [
    ("rtt_p99_ms", "ms"),
    ("fidelity_util_gap", "ratio"),
    ("fidelity_cwnd_rmse", "ratio"),
    ("reaction_p99_us", "us"),
    ("ctl_failed_frac", "ratio"),
]
LEDGER_LAYERS = ["eventsim", "datapath", "lang", "ipc", "agent", "algorithms", "obs", "core"]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        raise BenchError("no dune-project and lib/ next to perfbench/: run from a full checkout")
    dune = shutil.which("dune")
    if dune is None:
        raise BenchError("dune not found on PATH")
    p = subprocess.run([dune, "build", "--root", ROOT, "./perfbench/main.exe"],
                       cwd=ROOT, capture_output=True, text=True, timeout=880)
    if p.returncode != 0:
        raise BenchError("build failed:\n" + p.stdout + p.stderr)


def main_exe(*args, timeout=CHILD_TIMEOUT_S, stdin=None):
    p = subprocess.run([EXE, *args], cwd=ROOT, capture_output=True, text=True,
                       timeout=timeout, input=stdin)
    if p.returncode != 0:
        raise BenchError("main.exe %s failed (%d): %s" % (" ".join(args), p.returncode, p.stderr.strip()))
    return p.stdout.strip().splitlines()


def once(workload, seed, mode):
    """One iteration in a fresh process."""
    t0 = time.time()
    lines = main_exe("once", "--workload", workload, "--seed", str(seed), "--mode", mode)
    out = json.loads(lines[-1])
    out["elapsed_s"] = time.time() - t0
    return out


def load_expected():
    if not os.path.exists(EXPECTED):
        return []
    with open(EXPECTED) as f:
        return json.load(f)["digests"]


def expected_digest(workload, seed):
    for e in load_expected():
        if e["workload"] == workload and e["seed"] == seed:
            return e["digest"]
    return None


def record_digest(workload, seed, digest, reason):
    entries = [e for e in load_expected() if not (e["workload"] == workload and e["seed"] == seed)]
    entries.append({"workload": workload, "seed": seed, "digest": digest, "reason": reason,
                    "recorded": datetime.date.today().isoformat()})
    entries.sort(key=lambda e: (e["workload"], e["seed"]))
    with open(EXPECTED, "w") as f:
        json.dump({"schema": "perfbench-digests/v1", "digests": entries}, f, indent=1)
        f.write("\n")


def write_rows(rows):
    """Merge rows into the row file as soon as a workload finishes, so a
    killed run keeps the rows of the workloads it completed."""
    os.makedirs(os.path.dirname(ROWS), exist_ok=True)
    payload = json.dumps([{"name": n, "value": v, "unit": u} for n, v, u in rows])
    for line in main_exe("rows", "--path", ROWS, stdin=payload):
        log(line)


def calibration_row():
    ns = json.loads(main_exe("calibrate")[-1])["calibration_ns"]
    return ("host.calibration_ns", ns, "ns")


def checks_common(workload, seed, iterations, failures):
    digests = {it["digest"] for it in iterations}
    if len(digests) != 1:
        failures.append("digest: iterations disagree (%s)" % ", ".join(sorted(digests)))
    for it in iterations:
        if it["identities"] != "ok":
            failures.append("identity: " + it["identities"])
    want = expected_digest(workload, seed)
    got = iterations[0]["digest"]
    if want is not None and want != got:
        failures.append("digest: %s, expected %s for (%s, seed %d) in %s"
                        % (got, want, workload, seed, os.path.relpath(EXPECTED, ROOT)))
    return want


def iterate(workload, seed, modes, seconds, started):
    """Run the modes round-robin, one fresh process each, while one more
    round still fits in [seconds]; at least one round."""
    rounds = []
    t0 = time.time()
    while True:
        # alternate the order inside a round so neither mode always runs first
        order = modes if len(rounds) % 2 == 0 else list(reversed(modes))
        rounds.append({m: once(workload, seed, m) for m in order})
        elapsed = time.time() - t0
        per_round = elapsed / len(rounds)
        if elapsed + per_round > seconds or time.time() - started + per_round > RUN_BUDGET_S:
            return rounds


def untraced(workload, seed, seconds, started):
    setups = once(workload, seed, "setup")["setup_s"]
    its = [r["timed"] for r in iterate(workload, seed, ["timed"], seconds, started)]
    failures = []
    checks_common(workload, seed, its, failures)
    sims = [json.dumps(it["sim"], sort_keys=True) for it in its]
    if len(set(sims)) != 1:
        failures.append("sim metrics: iterations disagree")
    first = its[0]
    c = first["counters"]
    sim = dict(first["sim"])
    walls = [it["wall_s"] for it in its]
    metrics = {
        "wall_s_per_sim_s": statistics.median(w / it["sim_s"] for w, it in zip(walls, its)),
        "setup_s": statistics.median(setups),
        "peak_heap_mb": statistics.median(it["peak_heap_mb"] for it in its),
        "host_us_per_report": statistics.median(walls) / max(1, c["reports"]) * 1e6,
        "ctl_ok_frac": 1.0 - sim["ctl_failed_frac"],
    }
    metrics.update(sim)
    decisions = c["reports"] + c["installs_sent"]
    attempted = decisions * len(its)
    failed = round(sim["ctl_failed_frac"] * decisions) * len(its)
    log("%s seed %d: %d untraced iterations, wall %s s, digest %s"
        % (workload, seed, len(its), " ".join("%.3f" % w for w in walls), first["digest"]))
    units = dict(END_TO_END + EXTRA)
    for name, unit in END_TO_END + EXTRA:
        if name in metrics:
            log("  %-24s %14.6g %s" % (name, metrics[name], unit))
    rows = [("%s.%s" % (workload, n), metrics[n], units[n]) for n, _ in END_TO_END + EXTRA if n in metrics]
    result = {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END}
    return result, rows, attempted, failed, failures, first["digest"]


def print_ledger(workload, seed, traced_wall, entries):
    log("ledger %s seed %d: traced wall %.3f s" % (workload, seed, traced_wall))
    log("  %-12s %10s %12s %10s %8s  %s" % ("layer", "count", "unit_ns", "seconds", "share", "how"))
    for e in entries:
        unit = e["seconds"] / e["count"] * 1e9 if e["count"] else 0.0
        log("  %-12s %10d %12.1f %10.4f %7.1f%%  %s"
            % (e["layer"], e["count"], unit, e["seconds"], 100 * e["share"], e["how"]))


def traced(workload, seed, seconds, started):
    failures = []
    tr = once(workload, seed, "traced")
    rounds = iterate(workload, seed, ["timed", "toggled"], max(0.0, seconds - tr["elapsed_s"]), started)
    timed = [r["timed"] for r in rounds]
    toggled = [r["toggled"] for r in rounds]
    # Toggling telemetry toggles span tokens on the wire, so the toggled
    # runs have their own digest; the traced run must match the untraced one.
    want = checks_common(workload, seed, timed + [tr], failures)
    for c in tr["checks"]:
        if c["wrapper"] != c["program"]:
            failures.append("wrapper count: %s: %d vs %d" % (c["name"], c["wrapper"], c["program"]))
    wall_timed = statistics.median(it["wall_s"] for it in timed)
    wall_toggled = statistics.median(it["wall_s"] for it in toggled)
    wall_on, wall_off = (wall_timed, wall_toggled) if workload in TELEMETRY_ON else (wall_toggled, wall_timed)
    tw = tr["wall_s"]
    per_layer = {n: (m["value"], m["unit"]) for n, m in tr["per_layer"].items()}
    per_layer["obs.telemetry_share"] = (1.0 - wall_off / wall_on, "ratio")
    per_layer["bench.trace_overhead"] = (tw / wall_timed - 1.0, "ratio")
    entries = list(tr["ledger"])
    entries.append({"layer": "obs", "count": len(rounds),
                    "seconds": max(0.0, wall_on - wall_off) if workload in TELEMETRY_ON else 0.0,
                    "how": "telemetry wall(on) - wall(off), interleaved untraced pairs"})
    entries.append({"layer": "tracing", "count": 1, "seconds": max(0.0, tw - wall_timed),
                    "how": "traced wall - untraced wall (wrappers, armed rows)"})
    for e in entries:
        e["share"] = e["seconds"] / tw
    rest = 1.0 - sum(e["share"] for e in entries)
    entries.append({"layer": "unattributed", "count": 0, "seconds": rest * tw, "share": rest,
                    "how": "ledger incomplete" if rest > 0.20 else "remainder"})
    print_ledger(workload, seed, tw, entries)
    for e in entries:
        if e["layer"] in LEDGER_LAYERS or e["layer"] in ("tracing", "unattributed"):
            per_layer["ledger.%s_share" % e["layer"]] = (e["share"], "ratio")
    log("%s seed %d: traced digest %s (expected %s)" % (workload, seed, tr["digest"], want or "none recorded"))
    rows = [("%s.%s" % (workload, n), v, u) for n, (v, u) in sorted(per_layer.items())]
    result = {n: {"value": v, "unit": u} for n, (v, u) in per_layer.items()}
    count = lambda n: int(per_layer[n][0])
    attempted = count("agent.reports_received") + count("agent.installs_sent")
    failed = sum(count(n) for n in ("agent.reports_shed", "lang.installs_refused", "ipc.decode_failures",
                                    "agent.handler_errors", "obs.spans_orphaned"))
    return result, rows, attempted, failed, failures, tr["digest"]


def run_workload(workload, seed, seconds, trace, record_reason, started):
    fn = traced if trace else untraced
    result, rows, attempted, failed, failures, digest = fn(workload, seed, seconds, started)
    if record_reason is not None:
        failures = [f for f in failures if not f.startswith("digest: %s, expected" % digest)]
        if not failures:
            record_digest(workload, seed, digest, record_reason)
            log("recorded digest %s for (%s, seed %d): %s" % (digest, workload, seed, record_reason))
    write_rows(rows + [calibration_row()])
    return result, attempted, failed, failures


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-digest", metavar="REASON",
                    help="store this run's digest as the expectation for (workload, seed), with the reason")
    args = ap.parse_args()
    try:
        build()
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        metrics, attempted, failed, failures = {}, 0, 0, []
        for w in workloads:
            r, a, f, fl = run_workload(w, args.seed, args.seconds, args.trace, args.record_digest, time.time())
            prefix = "" if len(workloads) == 1 else w + "."
            metrics.update({prefix + k: v for k, v in r.items()})
            attempted, failed, failures = attempted + a, failed + f, failures + fl
    except (BenchError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(2)
    for f in failures:
        print("perfbench: check failed: %s" % f, file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
