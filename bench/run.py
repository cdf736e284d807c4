"""Benchmark for multishift: campaign, probe-deep and certify.

    python3 bench/run.py                                   # every workload, seed 1
    python3 bench/run.py --workload certify --seed 7 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each round of a workload runs in a fresh interpreter (``round.py``) with
``PYTHONHASHSEED=0``; rounds repeat until ``--seconds`` of rounds have run.
The first round's outputs are checked against ``reference.py`` and later
rounds must reproduce them byte for byte.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds
and reports the per-layer metrics.  The last line of standard output is
one JSON object (with every workload, one object keyed by name).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUN_BASE = os.path.join(ROOT, ".bench_run")
HASH_SEED = "0"
# seconds the calibration kernel (round.py) takes on the reference 2-core machine at full speed;
# every time is reported as measured, divided by that round's slowdown against this constant
NOMINAL_KERNEL_S = 0.0016
MIN_SETUPS = 7
ROUND_TIMEOUT = 150

sys.path.insert(0, BENCH)
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "out_bytes": "bytes"}


def spawn(workload, run_dir, trace=0, check=0, setup_only=False):
    """Run one round in a fresh interpreter; returns its report plus its set-up time."""
    cmd = [sys.executable, os.path.join(BENCH, "round.py"), "--root", ROOT, "--run-dir", run_dir,
           "--workload", workload, "--trace", str(trace), "--check", str(check)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env.pop("MULTISHIFT_BUDGET", None)
    report_path = os.path.join(run_dir, "round.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"round exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(report_path) as fh:
        report = json.load(fh)
    report["setup_s"] = report["ready"] - spawned
    with open(os.path.join(run_dir, f"round-{len(os.listdir(run_dir))}.json"), "w") as fh:
        json.dump(report, fh)
    return report


def run_workload(workload, seed, seconds, trace):
    run_dir = os.path.join(RUN_BASE, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    inputs = workloads.INPUTS[workload](seed)
    with open(os.path.join(run_dir, "inputs.json"), "w") as fh:
        json.dump(inputs, fh)

    plain, traced, setups = [], [], []
    started = time.monotonic()
    checking = 0.0
    while True:
        with_trace = bool(trace) and len(plain) > len(traced)
        report = spawn(workload, run_dir, trace=int(with_trace), check=int(not plain and not traced))
        checking += report.get("check_s", 0.0)
        if with_trace:
            traced.append(report)
            os.replace(os.path.join(run_dir, "trace.jsonl"), os.path.join(run_dir, f"trace-{len(traced)}.jsonl"))
        else:
            plain.append(report)
            setups.append(report["setup_s"] / slowdown(report))
        if time.monotonic() - started - checking >= seconds and (traced or not trace):
            break
    while len(setups) < MIN_SETUPS:
        report = spawn(workload, run_dir, setup_only=True)
        setups.append(report["setup_s"] / slowdown(report))

    everything = plain + traced
    first = everything[0]
    problems = [f"reference self-test accepted a wrong answer: {name}" for name in reference.self_test()]
    problems += first["check_errors"]
    if len({r["digest"] for r in everything}) != 1:
        problems.append("rounds produced different outputs")
    failures = sorted({f for r in everything for f in r["failures"]})
    result = {
        "correct": not problems,
        "attempted": sum(len(r["op_s"]) for r in everything),
        "failed": sum(len(r["failures"]) for r in everything),
    }
    if trace:
        metrics = layer_metrics(plain, traced)
    else:
        op_ms = [t * 1e3 / slowdown(r) for r in plain for t in r["op_s"]]
        values = {
            "wall_s": statistics.median(r["wall_s"] / slowdown(r) for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
            "op_p50_ms": statistics.median(op_ms),
            "op_p90_ms": statistics.quantiles(op_ms, n=10)[8] if len(op_ms) > 1 else op_ms[0],
            "out_bytes": first["out_bytes"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result["metrics"] = metrics
    notes = {"rounds": len(plain), "traced_rounds": len(traced), "ops_per_round": len(first["op_s"]),
             "problems": problems[:20], "failures": failures,
             "raw_wall_s": statistics.median(r["wall_s"] for r in plain),
             "slowdown": statistics.median(slowdown(r) for r in plain)}
    return result, notes


def slowdown(report):
    """How much slower than nominal the machine ran during one round.

    The kernel is sampled at even intervals, so the mean of its times
    follows the round's average speed.
    """
    return statistics.mean(report["calibration_s"]) / NOMINAL_KERNEL_S


def layer_metrics(plain, traced):
    counts_differ = [k for k, v in traced[0]["layers"].items()
                     if not k.endswith("self_s") and any(r["layers"][k] != v for r in traced[1:])]
    if counts_differ:
        print(f"warning: traced counts differ between rounds: {counts_differ}", file=sys.stderr)
    out = {}
    for name, unit, _ in tracer.metric_names():
        if name == "trace.overhead_s":
            value = (statistics.median(r["wall_s"] / slowdown(r) for r in traced)
                     - statistics.median(r["wall_s"] / slowdown(r) for r in plain))
        elif name.endswith(".self_s"):
            value = statistics.median(r["layers"][name] / slowdown(r) for r in traced)
        else:
            value = traced[0]["layers"][name]
        out[name] = {"value": value, "unit": unit}
    return out


def show(workload, result, notes):
    print(f"== {workload}: {notes['rounds']} rounds ({notes['traced_rounds']} traced), "
          f"{notes['ops_per_round']} ops per round, attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}; raw wall {notes['raw_wall_s']:.4g} s, slowdown {notes['slowdown']:.4g}")
    for name, m in result["metrics"].items():
        print(f"   {name:<48} {m['value']:>14.6g} {m['unit']}")
    for line in notes["failures"]:
        print(f"   failed op: {line}")
    for line in notes["problems"]:
        print(f"   problem: {line}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "multishift", "__init__.py")):
        print(f"error: no program to measure: {os.path.join(ROOT, 'src', 'multishift')} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result, notes = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        show(name, result, notes)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
