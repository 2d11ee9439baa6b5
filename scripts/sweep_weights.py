#!/usr/bin/env python3
"""Sweep the weight parameters (lambda, mu) and the cutoff geometry.

Reports how the observability and single-equation probe ratios respond.
The inequality constants are not computable, so this sweep is the
instrument for choosing weights in practice: ratios should stay finite and
move smoothly; an exploding ratio flags a bad parameter region.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hiercontrol.fixedpoint import linearize_at
from hiercontrol.outputs import emit_report, write_rows
from hiercontrol.scenario import load_scenario
from hiercontrol.solvers import solve_forward_quasilinear
from hiercontrol.verification import probe_carleman, probe_observability
from hiercontrol.weights import build_weights, lambda_auto


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=os.path.join(os.path.dirname(__file__), "..",
                                                     "scenarios", "heat_lq_16x32.cfg"))
    ap.add_argument("--out", default="weight_sweep_out")
    ap.add_argument("--lambda-factors", type=float, nargs="+",
                    default=[0.5, 1.0, 2.0, 4.0])
    ap.add_argument("--mus", type=float, nargs="+", default=[1.5, 2.0, 3.0])
    ap.add_argument("--samples", type=int, default=6)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    s = load_scenario(args.config)
    problem = s.build_problem()
    z0 = solve_forward_quasilinear(problem.nl, problem.grid, problem.tgrid, problem.y0)
    focus = problem.focus_box()

    rows = []
    for mu in args.mus:
        base = build_weights(problem.grid, problem.tgrid, focus, mu=mu)
        lam0 = base.lam
        for fac in args.lambda_factors:
            w = build_weights(problem.grid, problem.tgrid, focus, mu=mu, lam=fac * lam0)
            ctx = linearize_at(problem, z0, weights=w)
            obs = probe_observability(ctx, samples=args.samples, seed=s.seed)
            car = probe_carleman(ctx, samples=args.samples, seed=s.seed)
            rows.append((mu, w.lam, obs.worst_ratio, car.worst_ratio,
                         obs.excluded, car.excluded))
            print(f"mu={mu:4.1f} lambda={w.lam:10.5f}  obs={obs.worst_ratio:12.5e}  "
                  f"carleman={car.worst_ratio:12.5e}")

    write_rows(os.path.join(args.out, "weight_sweep.csv"),
               ["mu", "lambda", "observability_worst", "carleman_worst",
                "observability_excluded", "carleman_excluded"], rows)
    emit_report({
        "scenario": s.name,
        "lambda_auto": lambda_auto(s.mu_weight, 1.0, s.T),
        "rows": [dict(zip(("mu", "lambda", "observability_worst", "carleman_worst",
                           "observability_excluded", "carleman_excluded"), r)) for r in rows],
    }, os.path.join(args.out, "weight_sweep.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
