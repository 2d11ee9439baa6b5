#!/usr/bin/env python3
"""Run the flagship heat benchmark: epsilon sweep of the leader problem.

For each epsilon the penalized control is computed on the frozen
linearization and the terminal norm, cost split and CG effort are tabulated:
``cg_iterations`` counts the Gramian applications each epsilon added to the
context's shared Krylov basis, ``krylov_dim`` the basis dimension it used.
Artifacts (JSON summary, CSV of the sweep, SVG of terminal norm vs epsilon)
land in --out.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hiercontrol.fixedpoint import linearize_at
from hiercontrol.leader import solve_leader
from hiercontrol.outputs import emit_report, emit_svg, write_rows
from hiercontrol.scenario import load_scenario
from hiercontrol.solvers import solve_forward_quasilinear


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=os.path.join(os.path.dirname(__file__), "..",
                                                     "scenarios", "heat_1d.cfg"))
    ap.add_argument("--out", default="benchmark_out")
    ap.add_argument("--epsilons", type=float, nargs="+",
                    default=[1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    s = load_scenario(args.config)
    problem = s.build_problem()
    z0 = solve_forward_quasilinear(problem.nl, problem.grid, problem.tgrid, problem.y0)
    ctx = linearize_at(problem, z0, weights=s.build_carleman_weights(problem))

    rows = []
    summary = []
    for eps in args.epsilons:
        sol = solve_leader(ctx, eps, cg_tol=s.tolerance("cg_tol"),
                           cg_max=int(s.tolerance("cg_max")))
        rows.append((eps, sol.terminal_norm, sol.free_terminal_norm, sol.control_energy,
                     sol.J_eps_value, sol.J_eps_zero, sol.cg_iterations,
                     len(sol.cg_residuals)))
        summary.append({
            "epsilon": eps,
            "terminal_norm": sol.terminal_norm,
            "free_terminal_norm": sol.free_terminal_norm,
            "control_energy": sol.control_energy,
            "J_eps_value": sol.J_eps_value,
            "J_eps_zero": sol.J_eps_zero,
            "cg_iterations": sol.cg_iterations,
            "krylov_dim": len(sol.cg_residuals),
            "penalty_bound_holds": sol.terminal_norm**2 <= 2.0 * eps * sol.J_eps_value,
            "minimizer_holds": sol.J_eps_value <= sol.J_eps_zero,
        })
        print(f"eps={eps:8.1e}  terminal={sol.terminal_norm:.6e}  "
              f"cg={sol.cg_iterations:3d}  krylov={len(sol.cg_residuals):3d}  "
              f"J={sol.J_eps_value:.6e}")

    write_rows(os.path.join(args.out, "epsilon_sweep.csv"),
               ["epsilon", "terminal_norm", "free_terminal_norm", "control_energy",
                "J_eps_value", "J_eps_zero", "cg_iterations", "krylov_dim"], rows)
    emit_report({"scenario": s.name, "sweep": summary},
                os.path.join(args.out, "epsilon_sweep.json"))
    emit_svg([{"label": "terminal norm", "x": [r[0] for r in rows],
               "y": [r[1] for r in rows]}],
             os.path.join(args.out, "epsilon_sweep.svg"),
             title=f"{s.name}: terminal norm vs epsilon",
             xlabel="epsilon", ylabel="terminal norm")
    mono = all(rows[i + 1][1] <= rows[i][1] for i in range(len(rows) - 1))
    print(f"terminal norm monotone along decreasing epsilon: {mono}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
