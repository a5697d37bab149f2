#!/usr/bin/env python3
"""Self-test of the simulator benchmark.

    python3 simbench/selftest.py

Runs every workload at a tiny horizon through run.py, spans off and on,
and checks that:
  * the last stdout line is the result object, with exactly the keys
    correct, attempted, failed and metrics;
  * every metric BENCHMARK.json names is printed with the unit it states
    (end-to-end with spans off, per-layer with spans on), and no other;
  * no run failed (pass_frac is 1), and every run of a seed printed the
    same fingerprint, spans on or off;
  * the traced run's self times sum to trace.wall_s;
and that run.py, copied into a directory that holds only BENCHMARK.json
and this directory, exits non-zero without printing a result. Exit status
0 iff every check passed. Takes about a minute.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own tables)

SCALE = "0.02"
SEED = "7"


def invoke(cwd, workload, trace, seconds="1"):
    cmd = [sys.executable, str(Path(cwd) / "simbench" / "run.py"),
           "--workload", workload, "--seed", SEED, "--seconds", seconds,
           "--trace", str(trace), "--scale", SCALE]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_result(proc, expected_units, problems, label):
    if proc.returncode != 0:
        problems.append(f"{label}: exit status {proc.returncode}: "
                        f"{proc.stderr.strip()[-300:]}")
        return None, None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{label}: {result['failed']} of "
                        f"{result['attempted']} runs failed")
    metrics = result["metrics"]
    if set(metrics) != set(expected_units):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(expected_units))}")
    for name, unit in expected_units.items():
        m = metrics.get(name)
        if m is None or m.get("unit") != unit:
            problems.append(f"{label}: {name} printed as {m}, unit {unit}")
            continue
        printed = [ln for ln in lines[:-1] if ln.split()[:1] == [name]]
        if not printed or printed[0].split()[-1] != unit:
            problems.append(f"{label}: no line '{name} <value> {unit}'")
    match = re.search(r"^fingerprint (\S+) \((\d+) of (\d+) runs agree\)",
                      proc.stdout, re.M)
    if match is None or match.group(2) != match.group(3) or \
            int(match.group(3)) < run.MIN_RUNS:
        problems.append(f"{label}: fingerprint did not repeat: "
                        f"{match.group(0) if match else 'not printed'}")
    return result, match.group(1) if match else None


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    if end_to_end != run.END_TO_END or per_layer != run.PER_LAYER:
        problems.append("BENCHMARK.json metrics differ from run.py")

    for workload in run.WORKLOADS:
        plain, fp_plain = check_result(invoke(ROOT, workload, 0), end_to_end,
                                       problems, f"{workload} spans off")
        traced, fp_traced = check_result(invoke(ROOT, workload, 1), per_layer,
                                         problems, f"{workload} spans on")
        if fp_plain != fp_traced:
            problems.append(f"{workload}: spans moved the fingerprint "
                            f"({fp_plain} vs {fp_traced})")
        if plain and plain["metrics"]["pass_frac"]["value"] != 1.0:
            problems.append(f"{workload}: pass_frac is not 1")
        if traced:
            m = {k: v["value"] for k, v in traced["metrics"].items()}
            parts = sum(m[p] for p in run.SELF_TIME_PARTS)
            if abs(parts - m["trace.wall_s"]) > 1e-9 * max(1.0, parts) or \
                    m["untimed_s"] < 0:
                problems.append(f"{workload}: self times sum to {parts}, "
                                f"trace.wall_s is {m['trace.wall_s']}")
        print(f"{workload}: checked, fingerprint {fp_plain}", flush=True)

    # Without the simulator sources the benchmark must refuse to run.
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "simbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = invoke(bare, run.WORKLOADS[0], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("run.py without sources did not fail cleanly")

    for p in problems:
        print(f"FAIL: {p}")
    print("selftest: " + ("ok" if not problems else
                          f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
