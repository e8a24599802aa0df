#!/usr/bin/env python3
"""Self-check of the end-to-end benchmark; takes well under a minute.

Runs every workload named in BENCHMARK.json through perfbench/run.py at
tiny horizons (--smoke), timed and traced, with every output check on, and
verifies each result line against BENCHMARK.json: exactly the
keys correct/attempted/failed/metrics, no failed run, and exactly the
end-to-end (trace 0) or per-layer (trace 1) metrics of BENCHMARK.json
with their units. It also checks that a set MESH_* variable makes the
benchmark refuse to run. Prints the traced runs' "where the work goes"
rows.

Run from the repository root:  python3 perfbench/test_smoke.py
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(workload, trace, env=None):
    command = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=REPO, env=env, capture_output=True,
                          text=True, timeout=600)


def check_result(proc, expected, label, problems):
    if proc.returncode != 0:
        problems.append("%s: exit %d\n%s" % (label, proc.returncode, proc.stderr))
        return
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        problems.append("%s: last stdout line is not JSON" % label)
        return
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("%s: wrong keys %s" % (label, sorted(result)))
        return
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append("%s: correct=%s attempted=%s failed=%s" % (
            label, result["correct"], result["attempted"], result["failed"]))
    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        problems.append("%s: metric names differ from BENCHMARK.json: %s" % (
            label, sorted(set(metrics) ^ set(expected))))
        return
    for name, unit in expected.items():
        value = metrics[name]["value"]
        if metrics[name]["unit"] != unit:
            problems.append("%s: %s unit %s, want %s" % (label, name, metrics[name]["unit"], unit))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: %s is not a finite number" % (label, name))
    return lines


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        proc = run(workload, 0)
        lines = check_result(proc, end_to_end, workload + " timed", problems)
        if lines:
            metrics = json.loads(lines[-1])["metrics"]
            for name, value in metrics.items():
                if value["value"] <= 0:
                    problems.append("%s timed: %s is %s, must be > 0" % (workload, name, value["value"]))
        proc = run(workload, 1)
        lines = check_result(proc, per_layer, workload + " traced", problems)
        if lines and len(lines) >= 3:
            if not rows:
                rows.append(lines[-3])
            rows.append(lines[-2])
        print("%-13s done" % workload, file=sys.stderr)

    env = dict(os.environ, MESH_CHANNELS="3")
    proc = run(spec["workloads"][0]["name"], 0, env=env)
    if proc.returncode == 0 or "MESH_CHANNELS" not in proc.stderr or proc.stdout.strip():
        problems.append("a set MESH_CHANNELS did not make the benchmark refuse to run")

    print("\n".join(rows))
    for problem in problems:
        print("FAIL: " + problem, file=sys.stderr)
    print("perfbench smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
