#!/usr/bin/env python3
"""Simulator benchmark: one workload, measured for a fixed time, verified.

    python3 simbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Builds the benchmark program in simbench/ against the simulator sources in src/
(into .bench_build/simbench), then runs the workload again and again, one
run per child process, until T seconds of measuring are spent. Every run
uses the same seed, so every run must print the same fingerprint; a run
that crashes, fails one of the program's checks, or disagrees on the
fingerprint counts as failed.

--trace 0 reports the end-to-end metrics from runs with the benchmark's
spans off. --trace 1 alternates runs with spans on and off and reports
the per-layer metrics of the median spans-on run, plus the spans'
overhead. Each metric is printed on its own line with its unit; the last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. README.md in this directory describes the workloads.
"""

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "simbench"
BINARY = BUILD / "simbench"
TMPDIR = ROOT / ".bench_build" / "tmp"

WORKLOADS = ("lan-p2p", "cell-coord", "cell-mobile-audit", "lan-group-koo")

# Every run mode runs at least this many children, so the fingerprint is
# always compared between runs.
MIN_RUNS = 2
# Measuring stops launching runs this long after it started, whatever
# --seconds says, so one invocation stays within its time limit.
DEADLINE_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "comp_msgs_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "pass_frac": "ratio",
}

# Per-layer metrics. The *_s times of the traced run (trace.setup_s,
# sim.self_s, the send span, ckpt.check_s, ckpt.recover_s, the four obs
# phases and untimed_s) are its self times and sum to trace.wall_s.
PER_LAYER = {
    "trace.wall_s": "s",
    "trace.setup_s": "s",
    "untimed_s": "s",
    "trace_overhead": "ratio",
    "sim.run_s": "s",
    "sim.self_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.slots": "count",
    "sim.tombstones": "count",
    "sim.hwm_mib": "MiB",
    "core.send_calls": "count",
    "core.send_s": "s",
    "core.initiations": "count",
    "core.committed": "count",
    "core.aborted": "count",
    "baselines.send_calls": "count",
    "baselines.send_s": "s",
    "baselines.initiations": "count",
    "baselines.committed": "count",
    "baselines.aborted": "count",
    "rt.comp_msgs": "count",
    "rt.sys_msgs": "count",
    "rt.sys_bytes": "B",
    "rt.deliveries": "count",
    "rt.sys_msgs_per_commit": "msg/commit",
    "rt.blocked_sends_deferred": "count",
    "net.transmissions": "count",
    "net.retransmissions": "count",
    "mobile.handoffs": "count",
    "mobile.buffered": "count",
    "mobile.forwarded": "count",
    "ckpt.check_s": "s",
    "ckpt.lines": "count",
    "ckpt.recover_s": "s",
    "ckpt.recover_lost_events": "count",
    "ckpt.log_records": "count",
    "ckpt.peak_stable": "count",
    "ckpt.tentative": "count",
    "ckpt.mutable_taken": "count",
    "ckpt.mutable_promoted": "count",
    "ckpt.mutable_useful_ratio": "ratio",
    "obs.records": "count",
    "obs.trace_mib": "MiB",
    "obs.write_s": "s",
    "obs.read_s": "s",
    "obs.verify_s": "s",
    "obs.audit_s": "s",
    "obs.audit_records_per_s": "1/s",
    "obs.hwm_mib": "MiB",
}

# The self-time parts of one traced run, in the order they happen.
SELF_TIME_PARTS = ("trace.setup_s", "sim.self_s", "core.send_s",
                   "baselines.send_s", "ckpt.check_s", "ckpt.recover_s",
                   "obs.write_s", "obs.read_s", "obs.verify_s", "obs.audit_s",
                   "untimed_s")


class BenchError(Exception):
    pass


def build():
    """Configures (once) and builds the benchmark program; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no simulator sources under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "simbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "simbench",
                  "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    TMPDIR.mkdir(parents=True, exist_ok=True)


def run_child(workload, seed, spans, scale, timeout):
    """One workload run in its own process: (record, None) or (None, why)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if spans else "0", "--scale", repr(scale),
           "--tmpdir", str(TMPDIR)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    finally:
        if proc.poll() is None:  # timed out, or this script is stopping
            proc.kill()
            proc.wait()
        # A run that died mid-pipeline leaves its trace file behind.
        (TMPDIR / f"simbench-{proc.pid}.trc").unlink(missing_ok=True)
    lines = out.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        record = None
    if record is not None and not record.get("ok"):
        return None, record.get("error") or "run reported failure"
    if proc.returncode != 0 or record is None:
        tail = err.strip().splitlines()[-2:]
        return None, f"exit status {proc.returncode}: {' '.join(tail)}"
    return record, None


def measure(args):
    """Runs children until the time budget is spent; returns the runs."""
    modes = (True, False) if args.trace else (False,)
    runs = []       # (spans, record) of every run that passed its checks
    errors = []
    started = {m: 0 for m in modes}
    last_s = {m: 0.0 for m in modes}
    t0 = time.monotonic()
    while True:
        spans = min(modes, key=lambda m: started[m])
        elapsed = time.monotonic() - t0
        if elapsed >= DEADLINE_S:
            break
        if min(started.values()) >= MIN_RUNS and \
                elapsed + last_s[spans] > args.seconds:
            break
        started[spans] += 1
        r0 = time.monotonic()
        record, why = run_child(args.workload, args.seed, spans, args.scale,
                                timeout=max(1.0, DEADLINE_S + 20 - elapsed))
        last_s[spans] = time.monotonic() - r0
        label = f"run {sum(started.values())}, spans {'on' if spans else 'off'}"
        if record is None:
            errors.append(why)
            print(f"{label}: FAILED: {why}")
            continue
        runs.append((spans, record))
        v = record["values"]
        print(f"{label}: wall_s {v['wall_s']:.4f}, sim.run_s "
              f"{v['sim.run_s']:.4f}, ckpt.check_s {v['ckpt.check_s']:.4f}, "
              f"fingerprint {record['fingerprint']}")
    attempted = sum(started.values())

    # Runs of one seed must agree on the fingerprint; the majority wins.
    prints = [r["fingerprint"] for _, r in runs]
    fingerprint = max(set(prints), key=prints.count) if prints else None
    for _, r in runs:
        if r["fingerprint"] != fingerprint:
            errors.append(f"fingerprint {r['fingerprint']} != {fingerprint}")
            print(f"FAILED: {errors[-1]}")
    runs = [(s, r) for s, r in runs if r["fingerprint"] == fingerprint]
    return runs, errors, attempted, fingerprint


def end_to_end(runs, attempted, failed):
    vals = [r["values"] for _, r in runs]
    return {
        "wall_s": statistics.median(v["wall_s"] for v in vals),
        "setup_s": statistics.median(v["setup_s"] for v in vals),
        "comp_msgs_per_s": statistics.median(v["rt.comp_msgs"] / v["wall_s"]
                                             for v in vals),
        "peak_rss_mib": statistics.median(v["peak_rss_mib"] for v in vals),
        "pass_frac": (attempted - failed) / attempted,
    }


def per_layer(runs):
    traced = sorted((r["values"] for s, r in runs if s),
                    key=lambda v: v["wall_s"])
    plain = [r["values"]["wall_s"] for s, r in runs if not s]
    if not traced or not plain:
        raise BenchError("need at least one passing run with spans on and "
                         "one with spans off")
    v = dict(traced[(len(traced) - 1) // 2])  # the median traced run
    m = {name: float(v.get(name, 0.0)) for name in PER_LAYER}
    m["trace.wall_s"] = v["wall_s"]
    m["trace.setup_s"] = v["setup_run_s"]
    m["trace_overhead"] = (statistics.median(t["wall_s"] for t in traced) /
                           statistics.median(plain) - 1.0)
    m["sim.self_s"] = m["sim.run_s"] - m["core.send_s"] - m["baselines.send_s"]
    m["untimed_s"] = m["trace.wall_s"] - sum(
        m[p] for p in SELF_TIME_PARTS if p != "untimed_s")
    committed = m["core.committed"] + m["baselines.committed"]
    m["rt.sys_msgs_per_commit"] = (m["rt.sys_msgs"] / committed
                                   if committed else 0.0)
    m["ckpt.mutable_useful_ratio"] = (
        m["ckpt.mutable_promoted"] / m["ckpt.mutable_taken"]
        if m["ckpt.mutable_taken"] else 0.0)
    m["obs.audit_records_per_s"] = (m["obs.records"] / m["obs.audit_s"]
                                    if m["obs.audit_s"] else 0.0)
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--scale", type=float, default=1.0,
                    help="horizon multiplier in (0, 1] (the self-test's "
                         "tiny runs); not for measurements")
    args = ap.parse_args()
    # On SIGTERM, unwind so the running child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not 0 < args.scale <= 1:
        ap.error("--scale must be in (0, 1]")

    try:
        build()
        runs, errors, attempted, fingerprint = measure(args)
        if not runs:
            raise BenchError("no run passed: " + "; ".join(errors[:3]))
        failed = len(errors)
        if args.trace:
            metrics, units = per_layer(runs), PER_LAYER
        else:
            metrics, units = end_to_end(runs, attempted, failed), END_TO_END
    except BenchError as e:
        print(f"simbench: {e}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'spans on/off' if args.trace else 'spans off'}: "
          f"{attempted} runs, {failed} failed")
    print(f"fingerprint {fingerprint} "
          f"({len(runs)} of {attempted} runs agree)")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>18.9g} {units[name]}")
    if args.trace:
        parts = sorted(SELF_TIME_PARTS, key=lambda p: -metrics[p])
        print("self time of the median traced run (sums to trace.wall_s): " +
              ", ".join(f"{p} {metrics[p]:.4f}" for p in parts
                        if metrics[p] != 0))
        print(f"largest self time: {parts[0]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
