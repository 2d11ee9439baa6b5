#!/usr/bin/env python3
"""Sweep mu_1 and report the sign of the second-derivative representation.

The convexity threshold for follower 1's cost is not computable in closed
form; this sweep locates it empirically.  Above the threshold rep_value
stays positive (the quasi-equilibrium is a true minimum in that direction);
a sign change brackets the loss of convexity.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hiercontrol.outputs import emit_report, emit_svg
from hiercontrol.scenario import load_scenario
from hiercontrol.verification import second_order_mu_sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=os.path.join(os.path.dirname(__file__), "..",
                                                     "scenarios", "heat_lq_16x32.cfg"))
    ap.add_argument("--out", default="second_order_out")
    ap.add_argument("--mu1", type=float, nargs="+",
                    default=[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0])
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    s = load_scenario(args.config)
    problem = s.build_problem()
    res = second_order_mu_sweep(problem, args.mu1, seed=s.seed, tol=s.tolerance("nash_tol"))
    for m, v in zip(res["mu1"], res["rep_values"]):
        print(f"mu1={m:10.3e}  rep_value={v: .6e}")
    if res["crossing"] is None:
        print("no sign change over the sweep (cost convex in this direction throughout)")
    else:
        print(f"empirical convexity threshold bracketed in {res['crossing']}")
    emit_report({"scenario": s.name, **res}, os.path.join(args.out, "mu1_sweep.json"))
    pos = [(m, v) for m, v in zip(res["mu1"], res["rep_values"]) if v > 0]
    if pos:
        emit_svg([{"label": "rep_value", "x": [p[0] for p in pos], "y": [p[1] for p in pos]}],
                 os.path.join(args.out, "mu1_sweep.svg"),
                 title=f"{s.name}: curvature vs mu1 (positive part)",
                 xlabel="mu1", ylabel="rep_value")
    return 0


if __name__ == "__main__":
    sys.exit(main())
