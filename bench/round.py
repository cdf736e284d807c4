"""One round of a workload in a fresh interpreter.

    python3 bench/round.py --root ROOT --run-dir DIR --workload W --trace 0|1 --check 0|1 [--setup-only]

Imports ``multishift`` from ``ROOT/src``, loads ``DIR/inputs.json``, builds
the program objects, then runs every op once, timing each.  The moment the
first op may start is recorded as ``ready`` on the system-wide monotonic
clock, so the parent can measure set-up from the moment it spawned this
process.  Writes ``DIR/round.json``; with ``--trace 1`` also ``DIR/trace.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--check", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import workloads

    import multishift  # noqa: F401

    with open(os.path.join(args.run_dir, "inputs.json")) as fh:
        inputs = json.load(fh)
    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    ops = workloads.PREPARE[args.workload](inputs, args.run_dir)
    ready = time.monotonic()
    result = {"ready": ready}
    if args.setup_only:
        result["calibration_s"] = [calibrate() for _ in range(CALIBRATION_SAMPLES)]
    else:
        result.update(run_ops(ops, tracer))
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outputs = result.pop("outputs")
        if args.check:
            t0 = time.perf_counter()
            result["check_errors"] = workloads.CHECK[args.workload](inputs, outputs)
            result["check_s"] = time.perf_counter() - t0
        if tracer:
            result["layers"] = tracer.metrics()
            tracer.dump(os.path.join(args.run_dir, "trace.jsonl"))
    with open(os.path.join(args.run_dir, "round.json"), "w") as fh:
        json.dump(result, fh)


CALIBRATION_SAMPLES = 9
CALIBRATION_EVERY_S = 0.1


def _kernel():
    """Fixed pure-Python work shaped like the program's hot paths: tuple keys, dict and set churn."""
    table = {}
    acc = 0
    for i in range(1500):
        key = (i % 97, i % 13, i & 7)
        table[key] = table.get(key, 0) + 1
        acc += len({(j * i) % 31 for j in range(6)})
        acc += len(str(i) + "x")
    return acc + len(table)


def calibrate():
    """Seconds one run of the fixed kernel takes now: the machine's momentary speed."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def run_ops(ops, tracer):
    """Run every op once, sampling the kernel between ops; a traced round also builds new window graphs first."""
    op_s, failures, outputs = [], [], []
    digest = hashlib.sha256()
    out_bytes = 0
    calibration = [calibrate() for _ in range(CALIBRATION_SAMPLES)]
    start = time.perf_counter()
    spent_calibrating = 0.0
    last = start
    for op in ops:
        if time.perf_counter() - last >= CALIBRATION_EVERY_S:
            t0 = time.perf_counter()
            calibration.append(calibrate())
            last = time.perf_counter()
            spent_calibrating += last - t0
        if tracer:
            tracer.first_sight(op.spec)
            tracer.begin_op()
        t0 = time.perf_counter()
        try:
            text, failure, spent = op.run()
        except Exception as exc:  # an op that raises has failed; the round goes on
            text, failure, spent = "", f"raised {type(exc).__name__}: {exc}", time.perf_counter() - t0
        if tracer:
            tracer.end_op(op.name, t0 - start, time.perf_counter() - start)
        op_s.append(spent)
        # checks speak only of the ops that did not fail
        outputs.append((op.name, None if failure else text))
        out_bytes += len(text.encode())
        digest.update(text.encode())
        if failure:
            failures.append(f"{op.name}: {failure}")
    wall = time.perf_counter() - start - spent_calibrating
    calibration += [calibrate() for _ in range(CALIBRATION_SAMPLES)]
    return {"wall_s": wall, "op_s": op_s, "failures": failures, "out_bytes": out_bytes,
            "digest": digest.hexdigest(), "outputs": outputs, "calibration_s": calibration}


if __name__ == "__main__":
    main()
