"""One workload process of the benchmark; started by run.py, one at a time.

Modes:

* ``setup``: import the package, generate and load a small scenario, build
  the problem and weights, warm up, report the time since the parent spawned
  this process, and exit.
* ``run``: the same set-up, then operations one after another, each on a
  fresh scenario, as many as are expected to end within ``--seconds`` (at
  least ``MIN_OPS``).
  With ``--trace 1`` every operation runs twice on the same inputs, once
  untraced and once traced, in alternating order; the artifacts of the two
  runs must be byte-identical and the trace's counts must equal the
  program's own counters.

The result goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

MIN_OPS = 3          # untraced operations per run, whatever --seconds says
MIN_TRACED_OPS = 1   # traced pairs per run


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True, help="checkout holding src/hiercontrol")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent when it spawned this process")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="where a traced run writes its spans")
    return ap.parse_args(argv)


def import_program(root):
    """Import hiercontrol from <root>/src, before numpy, so HIERCONTROL_THREADS applies."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import hiercontrol
    import hiercontrol.cli
    import hiercontrol.fixedpoint
    import hiercontrol.leader
    import hiercontrol.scenario
    import hiercontrol.solvers

    where = os.path.realpath(hiercontrol.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"imported hiercontrol from {where}, not from {src}")
    return hiercontrol


class Bench:
    def __init__(self, args):
        self.args = args
        self.hc = import_program(args.root)
        import numpy as np
        import yaml

        from workloads import WORKLOADS

        self.np = np
        self.yaml = yaml
        self.w = WORKLOADS[args.workload]

    def inputs(self, stream, index, warmup=False):
        """Scenario file of one operation; the program sees only this file."""
        rng = self.np.random.default_rng([self.args.seed, stream, index])
        tag = "warmup" if warmup else f"op{index:04d}"
        base = os.path.join(self.args.workdir, tag)
        os.makedirs(base, exist_ok=True)
        cfg = os.path.join(base, "scenario.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            self.yaml.safe_dump(self.w.tree(rng, warmup), fh, sort_keys=True)
        return base, cfg

    def setup(self):
        """Set-up as a user pays it once per process: scenario, problem, weights, warm-up.

        A small operation repeated three times in one process took the same
        time each time, so there is no first-call cost worth a full warm-up
        operation; one uncontrolled march on the small set-up scenario loads
        the factorization code.
        """
        base, cfg = self.inputs(1, 0, warmup=True)
        s = self.hc.scenario.load_scenario(cfg)
        problem = s.build_problem()
        s.build_carleman_weights(problem)
        self.hc.solvers.solve_forward_quasilinear(
            problem.nl, problem.grid, problem.tgrid, problem.y0)
        shutil.rmtree(base)

    def op(self, cfg, out, tracer=None, op_id=None):
        """One timed operation plus its output checks (outside the timed region)."""
        if tracer is not None:
            tracer.install(op_id)
        t0 = time.perf_counter()
        try:
            result = self.w.run(self.hc, cfg, out)
            wall = time.perf_counter() - t0
        except Exception as exc:  # an operation that raises counts as failed
            wall = time.perf_counter() - t0
            msg = traceback.format_exception_only(type(exc), exc)[-1].strip()
            return {"wall": wall, "failures": [msg], "counts": {}}
        finally:
            if tracer is not None:
                tracer.uninstall()
        if self.w.summarize is not None:
            result["summary"] = self.w.summarize(self.hc, result)
        return {"wall": wall, "failures": self.w.check(result), "counts": self.w.counts(result)}

    def run_plain(self, seconds):
        ops = []
        start = time.monotonic()
        while more(start, [op["wall"] for op in ops], MIN_OPS, seconds):
            base, cfg = self.inputs(0, len(ops))
            ops.append(self.op(cfg, os.path.join(base, "out")))
            shutil.rmtree(base)
            if len(ops) == 1:
                # Later operations raise the high-water mark by a varying 0-15%
                # through heap fragmentation, so the reading is taken here.
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {"ops": ops, "peak_rss_mb": peak}

    def run_traced(self, seconds):
        from tracer import Tracer

        tracer = Tracer()
        pairs = []
        start = time.monotonic()
        while more(start, [p["plain_wall"] + p["traced_wall"] for p in pairs],
                   MIN_TRACED_OPS, seconds):
            i = len(pairs)
            base, cfg = self.inputs(0, i)
            outs = {False: os.path.join(base, "plain"), True: os.path.join(base, "traced")}
            recs = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                recs[traced] = self.op(cfg, outs[traced], tracer if traced else None, i)
            layers, mismatches = tracer.op_report()
            failures = recs[False]["failures"] + recs[True]["failures"]
            failures += [f"trace self-check: {m}" for m in mismatches]
            failures += identical_trees(outs[False], outs[True])
            pairs.append({
                "plain_wall": recs[False]["wall"],
                "traced_wall": recs[True]["wall"],
                "failures": list(dict.fromkeys(failures)),
                "counts": recs[False]["counts"],
                "layers": layers,
            })
            shutil.rmtree(base)
        tracer.write(self.args.spans)
        return {"pairs": pairs, "spans": len(tracer.spans)}


def more(start, durations, minimum, seconds):
    """Start another operation while it is expected to end within ``seconds``."""
    if len(durations) < minimum:
        return True
    return time.monotonic() - start + statistics.median(durations) <= seconds


def identical_trees(a, b):
    """Artifact differences between two output directories (empty when byte-identical)."""
    names_a = sorted(os.listdir(a)) if os.path.isdir(a) else []
    names_b = sorted(os.listdir(b)) if os.path.isdir(b) else []
    if names_a != names_b:
        return [f"traced run wrote {names_b}, untraced {names_a}"]
    bad = []
    for name in names_a:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                bad.append(f"traced {name} differs from untraced")
    return bad


def main(argv=None):
    args = parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    bench = Bench(args)
    bench.setup()
    out = {"setup_s": time.monotonic() - args.t0}
    if args.mode == "run":
        run = bench.run_traced if args.trace else bench.run_plain
        out.update(run(args.seconds))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
