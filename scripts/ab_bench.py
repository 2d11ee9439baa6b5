#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark between two checkouts.

    python3 scripts/ab_bench.py BASE CHANGE --workload solve-1d-nonlinear \\
        --pairs 10 --seeds 101-110 --seconds 40

Each pair runs ``bench/run.py --trace 0`` once in each checkout with the
same seed, one after the other; even pairs run BASE first, odd pairs run
CHANGE first, so a drift of the machine's speed hits both sides alike.
Pair k uses the k-th seed of the inclusive range, cycling when there are
more pairs than seeds.  The script prints every pair, then, over the pairs
in which both sides ran correctly, per side the median and quartiles of
``op_s``, ``setup_s`` and ``peak_rss_mb``, and per metric

* the pairs CHANGE won (its value is the better one),
* whether a claimed gain would hold: CHANGE wins at least 9 in 10 of the
  pairs, and its median is better than BASE's by more than BASE's
  interquartile range,
* whether CHANGE's median is worse than BASE's by more than the metric's
  ``bound`` in ``BENCHMARK.json`` (relative to BASE's median),
* whether the metric is unresolved: BASE's interquartile range, relative
  to its median, is wider than that bound, so a median within the bound
  shows nothing, unless every CHANGE run is better than every BASE run.

The direction and bound of each metric are read from the
``BENCHMARK.json`` of this script's checkout.  It writes no file
itself; each ``bench/run.py`` keeps its scratch in its own checkout's
``.bench_work`` and ``.bench_out``.  The exit code is 1 when any run
failed or reported ``"correct": false``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

METRICS = ("op_s", "setup_s", "peak_rss_mb")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLAIM_SHARE = 0.9     # share of the pairs a claimed gain must win


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_bench(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """One ``bench/run.py --trace 0`` run; its last output line is the result."""
    cmd = [sys.executable, os.path.join(checkout, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "failed": None, "error": proc.stderr.strip()[-300:]}
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end_rules(path: str) -> dict:
    """{metric: (better, bound)} from the end-to-end list of a BENCHMARK.json."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def judge(pairs: list[tuple[float, float]], better: str, bound: float) -> dict:
    """The verdict on one metric over (base, change) pairs.

    ``won`` counts the pairs where change is strictly better.  ``claim``
    holds when change wins at least CLAIM_SHARE of the pairs and its
    median is better than base's by more than base's interquartile range.
    ``regressed`` holds when change's median is worse than base's by more
    than ``bound`` times base's median.  ``unresolved`` holds when base's
    interquartile range is wider than ``bound`` times its median and some
    change run is not better than every base run.
    """
    sign = 1.0 if better == "lower" else -1.0
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    won = sum(sign * (b - c) > 0.0 for b, c in pairs)
    q1, base_median, q3 = quartiles(base)
    change_median = quartiles(change)[1]
    gain = sign * (base_median - change_median)
    beats_every_run = max(sign * c for c in change) < min(sign * b for b in base)
    return {
        "won": won,
        "pairs": len(pairs),
        "claim": won >= CLAIM_SHARE * len(pairs) and gain > q3 - q1,
        "regressed": -gain > bound * abs(base_median),
        "unresolved": q3 - q1 > bound * abs(base_median) and not beats_every_run,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="checkout of the reference version")
    ap.add_argument("change", help="checkout of the changed version")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seeds", type=seed_range, required=True, help="inclusive range, e.g. 101-110")
    ap.add_argument("--seconds", type=int, default=40)
    args = ap.parse_args()
    sides = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}

    rules = end_to_end_rules(os.path.join(ROOT, "BENCHMARK.json"))
    pairs = []
    ok = True
    for k in range(args.pairs):
        seed = args.seeds[k % len(args.seeds)]
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        pair = {}
        for name in order:
            res = run_bench(sides[name], args.workload, seed, args.seconds)
            if not res.get("correct") or res.get("failed"):
                ok = False
                print(f"pair {k} seed {seed} {name}: not correct: {res.get('error', res.get('failed'))}")
                continue
            pair[name] = {m: res["metrics"][m]["value"] for m in METRICS}
        if len(pair) == 2:
            pairs.append(pair)
            values = "; ".join(f"{m} base {pair['base'][m]:.4f} change {pair['change'][m]:.4f}"
                               for m in METRICS)
            print(f"pair {k} seed {seed} ({order[0]} first): {values}", flush=True)

    print(f"\n{args.workload}: {len(pairs)} of {args.pairs} pairs complete, "
          f"seeds {args.seeds[0]}-{args.seeds[-1]}")
    if not pairs:
        return 1
    for m in METRICS:
        for name in sides:
            q1, q2, q3 = quartiles([p[name][m] for p in pairs])
            print(f"  {m:12s} {name:6s} median {q2:.4f}  quartiles {q1:.4f} / {q3:.4f}")
        better, bound = rules[m]
        v = judge([(p["base"][m], p["change"][m]) for p in pairs], better, bound)
        print(f"  {m:12s} change won {v['won']} of {v['pairs']} pairs; "
              f"claim rule {'holds' if v['claim'] else 'fails'}; "
              f"{'WORSE than base by more than' if v['regressed'] else 'within'} "
              f"the bound {bound}"
              f"{'; UNRESOLVED: the base spread is wider than the bound' if v['unresolved'] else ''}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
