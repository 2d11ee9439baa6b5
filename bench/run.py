#!/usr/bin/env python3
"""Benchmark of hiercontrol: one workload, one seed, one run.

    python3 bench/run.py --workload solve-1d-nonlinear --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` of the checkout
this file lives in.  Workloads and metrics are described in
``bench/README.md``.

With ``--trace 0`` the run starts ``SETUP_PROBES`` set-up-only processes and
then one process that sets up and runs operations for ``--seconds``; it
reports ``setup_s`` (median over all set-ups), ``op_s`` (median wall time of
the operations that passed their checks) and ``peak_rss_mb`` of the
operating process.  ``failed`` counts the operations whose output checks
failed or that raised.  With ``--trace 1`` one process runs every operation
untraced and traced and reports the per-layer metrics.  The last line of
standard output is the result as one JSON object.

Processes run one at a time, each with ``HIERCONTROL_THREADS`` set so the
BLAS/OpenMP pools stay at one thread.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve-1d-nonlinear", "sweep-2d-picard", "verify-lq")
SETUP_PROBES = 3
THREADS = "1"
DEADLINE_S = 170      # a run that is not done by then is killed and fails

E2E_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def spawn(args, mode, workdir, result, deadline):
    env = dict(os.environ, HIERCONTROL_THREADS=THREADS, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--root", ROOT, "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir, "--result", result,
        "--spans", os.path.join(ROOT, ".bench_out", f"trace-{args.workload}-s{args.seed}.jsonl"),
        "--t0", repr(time.monotonic()),
    ]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with code {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def report_ops(ops):
    for i, op in enumerate(ops):
        status = "ok" if not op["failures"] else "FAILED " + "; ".join(op["failures"])
        print(f"  op {i}: {op['wall']:.4f} s  {status}  counts={json.dumps(op['counts'])}")


def untraced(args, workdir, deadline):
    setups = [
        spawn(args, "setup", workdir, os.path.join(workdir, f"setup{k}.json"),
              deadline)["setup_s"]
        for k in range(SETUP_PROBES)
    ]
    main = spawn(args, "run", workdir, os.path.join(workdir, "run.json"), deadline)
    setups.append(main["setup_s"])
    ops = main["ops"]
    passed = [op["wall"] for op in ops if not op["failures"]]
    report_ops(ops)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s": statistics.median(passed or [op["wall"] for op in ops]),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    failed = len(ops) - len(passed)
    print(f"setup_s     = {metrics['setup_s']:.4f} s   (median of {len(setups)} set-ups: "
          + ", ".join(f"{v:.3f}" for v in setups) + ")")
    print(f"op_s        = {metrics['op_s']:.4f} s   (median of "
          + (f"{len(passed)} passed ops)" if passed else f"all {len(ops)} ops; none passed)"))
    print(f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB")
    print(f"failed_ops  = {failed}/{len(ops)} = {failed / len(ops):.3f}")
    defects = [op["counts"]["terminal_defect"] for op in ops if "terminal_defect" in op["counts"]]
    if defects:
        # Recorded, not gated: the checks bound the same residual relative to |b|.
        over = sum(1 for d in defects if not d < 1e-8)
        print(f"terminal_defect >= 1e-8 (relative to the controlled |y(T)|) in "
              f"{over}/{len(defects)} ops; largest {max(defects):.3e}")
    return len(ops), failed, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}


def traced(args, workdir, deadline):
    sys.path.insert(0, HERE)
    from tracer import LAYER_METRICS

    main = spawn(args, "run", workdir, os.path.join(workdir, "run.json"), deadline)
    pairs = main["pairs"]
    report_ops([{"wall": p["traced_wall"], "failures": p["failures"], "counts": p["counts"]}
                for p in pairs])
    metrics = {}
    for name, unit in LAYER_METRICS:
        values = [p["layers"][name] for p in pairs]
        value = max(values) if name == "leader.duality_gap_max" else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    overhead = (statistics.median(p["traced_wall"] for p in pairs)
                - statistics.median(p["plain_wall"] for p in pairs))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(f"{main['spans']} spans written to .bench_out/")
    failed = sum(1 for p in pairs if p["failures"])
    return len(pairs), failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "hiercontrol", "__init__.py")):
        return fail(f"no hiercontrol package under {os.path.join(ROOT, 'src')}")

    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    try:
        attempted, failed, metrics = (traced if args.trace else untraced)(args, workdir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
