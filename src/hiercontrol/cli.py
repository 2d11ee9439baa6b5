"""Command-line surface.

Subcommands: solve (full hierarchic iteration), nash (follower equilibrium
at a frozen leader control), leader (penalized null control on one
linearization), weights (dump the weight fields), verify (oracle and probe
suites).  Exit codes: 0 success, 2 validation or usage error, 3
non-convergence, 4 oracle or probe budget violation.
"""

from __future__ import annotations

import argparse
import os
import sys


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hiercontrol",
        description="Hierarchic (Stackelberg-Nash) control of quasi-linear parabolic systems",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="scenario file (YAML)")
        sp.add_argument("--out", default=".", help="output directory (created if missing)")

    sp = sub.add_parser("solve", help="full quasi-linear hierarchic control run")
    common(sp)
    sp.add_argument("--epsilon", type=float, default=None, help="override scenario epsilon")
    sp.add_argument("--max-outer", type=int, default=None, help="override outer iteration cap")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("nash", help="follower equilibrium at a frozen leader control")
    common(sp)
    sp.set_defaults(func=cmd_nash)

    sp = sub.add_parser("leader", help="penalized null control on the frozen linearization")
    common(sp)
    sp.add_argument("--epsilon", type=float, default=None, help="penalty parameter")
    sp.add_argument("--lambda", dest="lam", type=float, default=None, help="weight exponent")
    sp.add_argument("--mu", type=float, default=None, help="weight shape parameter")
    sp.add_argument("--cg-tol", type=float, default=None, help="relative CG tolerance")
    sp.add_argument("--cg-max", type=int, default=None, help="CG iteration cap")
    sp.set_defaults(func=cmd_leader)

    sp = sub.add_parser("weights", help="dump the Carleman weight fields as CSV")
    common(sp)
    sp.add_argument("--lambda", dest="lam", type=float, default=None, help="weight exponent")
    sp.add_argument("--mu", type=float, default=None, help="weight shape parameter")
    sp.set_defaults(func=cmd_weights)

    sp = sub.add_parser("verify", help="independent oracles and inequality probes")
    common(sp)
    sp.add_argument(
        "--suite",
        default="all",
        choices=["duality", "nash-oracle", "second-order", "observability", "carleman", "all"],
    )
    sp.set_defaults(func=cmd_verify)
    return p


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _load(args):
    from .scenario import load_scenario

    s = load_scenario(args.config)
    problem = s.build_problem()
    return s, problem


def _uncontrolled(problem):
    from .solvers import solve_forward_quasilinear

    return solve_forward_quasilinear(problem.nl, problem.grid, problem.tgrid, problem.y0)


def _weighted_time_norms(problem, traj):
    import numpy as np

    w = problem.grid.weights
    return [float(np.sqrt(np.dot(w * traj.values[m], traj.values[m])))
            for m in range(problem.tgrid.n_slices)]


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    import numpy as np

    from .fixedpoint import solve_hierarchic
    from .outputs import emit_csv, emit_report, emit_svg

    s, problem = _load(args)
    out = _outdir(args)
    weights = s.build_carleman_weights(problem)
    epsilon = s.epsilon if args.epsilon is None else args.epsilon
    max_outer = s.tolerance("max_outer") if args.max_outer is None else args.max_outer
    rep = solve_hierarchic(
        problem,
        epsilon=epsilon,
        outer_tol=s.tolerance("outer_tol"),
        max_outer=int(max_outer),
        cg_tol=s.tolerance("cg_tol"),
        cg_max=int(s.tolerance("cg_max")),
        weights=weights,
        data_budget=s.tolerance("data_budget"),
        nash_tol=s.tolerance("nash_tol"),
        seed=s.seed,
    )

    summary = {
        "scenario": s.name,
        "epsilon": rep.epsilon,
        "iterations": rep.iterations,
        "update_norms": list(rep.update_norms),
        "converged": rep.converged,
        "terminal_norm": rep.terminal_norm,
        "linearized_terminal_norm": rep.linearized_terminal_norm,
        "leader": {
            "cg_iterations": rep.leader.cg_iterations,
            "control_energy": rep.leader.control_energy,
            "J_eps_value": rep.leader.J_eps_value,
            "J_eps_zero": rep.leader.J_eps_zero,
            "terminal_defect": rep.leader.terminal_defect,
            "terminal_residual": rep.leader.terminal_residual,
            "control_effect": rep.leader.control_effect,
            "ritz_min": rep.leader.ritz_min,
            "ritz_max": rep.leader.ritz_max,
            "eps_over_ritz_max": rep.leader.eps_over_ritz_max,
            "converged": rep.leader.converged,
        },
        "nash": None
        if rep.nash is None
        else {
            "picard_iterations": rep.nash.picard_iterations,
            "final_update_norm": rep.nash.final_update_norm,
            "converged": rep.nash.converged,
            "costs": rep.nash.costs,
            "first_order_residuals": rep.nash.first_order_residuals,
        },
    }
    emit_report(summary, os.path.join(out, "solve_report.json"))
    emit_csv(rep.u, os.path.join(out, "u.csv"))
    emit_csv(rep.y, os.path.join(out, "y.csv"))
    if rep.v1 is not None:
        emit_csv(rep.v1, os.path.join(out, "v1.csv"))
        emit_csv(rep.v2, os.path.join(out, "v2.csv"))
    if rep.update_norms:
        emit_svg(
            [{"label": "outer update", "x": list(range(1, len(rep.update_norms) + 1)),
              "y": list(rep.update_norms)}],
            os.path.join(out, "update_norms.svg"),
            title=f"{s.name}: fixed-point updates",
            xlabel="outer iteration",
            ylabel="log10 update",
            ylog=True,
        )
    times = [float(t) for t in problem.tgrid.times]
    curves = [{"label": "|y(t)|", "x": times, "y": _weighted_time_norms(problem, rep.y)}]
    if not np.isnan(rep.terminal_norm):
        curves.append(
            {"label": "|y_lin(t)|", "x": times, "y": _weighted_time_norms(problem, rep.leader.y)}
        )
    emit_svg(
        curves,
        os.path.join(out, "state_norm.svg"),
        title=f"{s.name}: state decay",
        xlabel="t",
        ylabel="log10 norm",
        ylog=True,
    )
    print(
        f"solve: {s.name} converged={rep.converged} iterations={rep.iterations} "
        f"terminal_norm={rep.terminal_norm:.6g} artifacts in {out}"
    )
    return 0 if rep.converged else 3


# ---------------------------------------------------------------------------
# nash


def cmd_nash(args) -> int:
    from .nash import compute_nash, with_first_order_residuals
    from .outputs import emit_csv, emit_report

    s, problem = _load(args)
    out = _outdir(args)
    sol = compute_nash(problem, tol=s.tolerance("nash_tol"))
    sol = with_first_order_residuals(problem, None, sol, seed=s.seed)
    summary = {
        "scenario": s.name,
        "picard_iterations": sol.picard_iterations,
        "final_update_norm": sol.final_update_norm,
        "residuals": list(sol.residuals),
        "converged": sol.converged,
        "costs": sol.costs,
        "first_order_residuals": sol.first_order_residuals,
    }
    emit_report(summary, os.path.join(out, "nash_report.json"))
    emit_csv(sol.v1, os.path.join(out, "v1.csv"))
    emit_csv(sol.v2, os.path.join(out, "v2.csv"))
    emit_csv(sol.y, os.path.join(out, "y.csv"))
    print(
        f"nash: {s.name} converged={sol.converged} iterations={sol.picard_iterations} "
        f"residual={sol.final_update_norm:.3g} artifacts in {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# leader


def cmd_leader(args) -> int:
    import numpy as np

    from .fixedpoint import linearize_at
    from .leader import leader_duality_gap, solve_coupled_primal, solve_leader
    from .outputs import emit_csv, emit_report, emit_svg
    from .weights import build_weights

    s, problem = _load(args)
    out = _outdir(args)
    lam = s.lam if args.lam is None else args.lam
    mu = s.mu_weight if args.mu is None else args.mu
    weights = build_weights(problem.grid, problem.tgrid, problem.focus_box(), mu=mu, lam=lam)
    epsilon = s.epsilon if args.epsilon is None else args.epsilon
    cg_tol = s.tolerance("cg_tol") if args.cg_tol is None else args.cg_tol
    cg_max = int(s.tolerance("cg_max")) if args.cg_max is None else args.cg_max

    z0 = _uncontrolled(problem)
    ctx = linearize_at(problem, z0, weights=weights)
    sol = solve_leader(ctx, epsilon, cg_tol=cg_tol, cg_max=cg_max)
    summary = {
        "scenario": s.name,
        "epsilon": sol.epsilon,
        "lambda": weights.lam,
        "mu": weights.mu,
        "terminal_norm": sol.terminal_norm,
        "predicted_terminal_norm": sol.predicted_terminal_norm,
        "terminal_defect": sol.terminal_defect,
        "terminal_residual": sol.terminal_residual,
        "control_effect": sol.control_effect,
        "free_terminal_norm": sol.free_terminal_norm,
        "control_energy": sol.control_energy,
        "J_eps_value": sol.J_eps_value,
        "J_eps_zero": sol.J_eps_zero,
        "cg_iterations": sol.cg_iterations,
        "cg_residuals": list(sol.cg_residuals),
        "ritz_min": sol.ritz_min,
        "ritz_max": sol.ritz_max,
        "eps_over_ritz_max": sol.eps_over_ritz_max,
        "converged": sol.converged,
        "duality_gap": leader_duality_gap(ctx, sol),
    }
    emit_report(summary, os.path.join(out, "leader_report.json"))
    emit_csv(sol.u, os.path.join(out, "u.csv"))
    emit_csv(sol.y, os.path.join(out, "y.csv"))

    y_free, _, _ = solve_coupled_primal(ctx, None)
    times = [float(t) for t in problem.tgrid.times]
    emit_svg(
        [{"label": "|y(t)| controlled", "x": times, "y": _weighted_time_norms(problem, sol.y)},
         {"label": "|y(t)| free", "x": times, "y": _weighted_time_norms(problem, y_free)}],
        os.path.join(out, "state_norm.svg"),
        title=f"{s.name}: leader null-control",
        xlabel="t",
        ylabel="log10 norm",
        ylog=True,
    )
    if sol.cg_residuals:
        emit_svg(
            [{"label": "CG residual", "x": list(range(1, len(sol.cg_residuals) + 1)),
              "y": list(sol.cg_residuals)}],
            os.path.join(out, "cg_residuals.svg"),
            title=f"{s.name}: conjugate gradient history",
            xlabel="iteration",
            ylabel="log10 residual",
            ylog=True,
        )
    if problem.grid.dim == 1:
        M = problem.tgrid.steps
        snaps = sorted({max(1, M // 8), M // 4, M // 2, 3 * M // 4, M - 1})
        x = [float(v) for v in problem.grid.x]
        emit_svg(
            [{"label": f"t={problem.tgrid.times[m]:.3g}", "x": x,
              "y": [float(v) for v in sol.u.values[m]]} for m in snaps],
            os.path.join(out, "control_slices.svg"),
            title=f"{s.name}: control snapshots",
            xlabel="x",
            ylabel="u",
        )
    print(
        f"leader: {s.name} epsilon={sol.epsilon:.3g} cg_iterations={sol.cg_iterations} "
        f"terminal_norm={sol.terminal_norm:.6g} artifacts in {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# weights


def cmd_weights(args) -> int:
    from .outputs import emit_report, write_rows
    from .weights import build_weights, eval_terminal_weights, eval_weights

    s, problem = _load(args)
    out = _outdir(args)
    lam = s.lam if args.lam is None else args.lam
    mu = s.mu_weight if args.mu is None else args.mu
    w = build_weights(problem.grid, problem.tgrid, problem.focus_box(), mu=mu, lam=lam)
    grid, tgrid = problem.grid, problem.tgrid

    header = ["t", "x", "beta", "nu", "rho_hat"]
    if grid.dim == 2:
        header = ["t", "x", "y", "beta", "nu", "rho_hat"]

    def rows():
        # beta and nu blow up at t=0 and t=T; interior slices only
        for m in range(1, tgrid.steps):
            t = tgrid.times[m]
            ev = eval_weights(w, t)
            tv = eval_terminal_weights(w, t)
            for i in range(grid.n_nodes):
                coords = tuple(grid.nodes[i])
                yield (t, *coords, ev["beta"][i], ev["nu"][i], tv["rho_hat"])

    path = os.path.join(out, "weights.csv")
    write_rows(path, header, rows())
    emit_report(
        {
            "scenario": s.name,
            "lambda": w.lam,
            "mu": w.mu,
            "eta_max": w.eta_max,
            "focus_box": [list(iv) for iv in problem.focus_box()],
            "rows": (tgrid.steps - 1) * grid.n_nodes,
        },
        os.path.join(out, "weights_report.json"),
    )
    print(f"weights: {s.name} lambda={w.lam:.6g} mu={w.mu:.3g} artifacts in {out}")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    from .fixedpoint import linearize_at
    from .nash import coefficients_from_state, compute_nash
    from .outputs import emit_report
    from .verification import (
        check_duality,
        check_second_order,
        oracle_nash_gap,
        probe_carleman,
        probe_observability,
    )

    s, problem = _load(args)
    out = _outdir(args)
    suites = (
        ["duality", "nash-oracle", "second-order", "observability", "carleman"]
        if args.suite == "all"
        else [args.suite]
    )
    if {"nash-oracle", "second-order"} & set(suites):
        # both differentiate at one follower equilibrium, solved at the scenario's tolerance
        nash = compute_nash(problem, tol=s.tolerance("nash_tol"))
    if {"observability", "carleman"} & set(suites):
        # both probes linearize at the uncontrolled march under the scenario weights
        z0 = _uncontrolled(problem)
        w = s.build_carleman_weights(problem)
    reports = {}
    all_pass = True
    for suite in suites:
        if suite == "duality":
            rep = check_duality(problem, trials=50, seed=s.seed, budget=1e-10)
            reports[suite] = rep.as_dict()
            ok = rep.passed
        elif suite == "nash-oracle":
            gap = oracle_nash_gap(problem, nash=nash)
            ok = gap <= 1e-6
            reports[suite] = {
                "name": "nash-oracle",
                "worst_relative_gap": gap,
                "budget": 1e-6,
                "passed": ok,
            }
        elif suite == "second-order":
            res = check_second_order(problem, nash, seed=s.seed)
            ok = res["relative_gap"] <= 1e-2
            reports[suite] = dict(res, budget=1e-2, passed=ok, name="second-order")
        elif suite == "observability":
            ctx = linearize_at(problem, z0, weights=w)
            rep = probe_observability(ctx, samples=8, seed=s.seed)
            reports[suite] = rep.as_dict()
            ok = rep.passed
        elif suite == "carleman":
            c = coefficients_from_state(problem.nl, z0)
            rep = probe_carleman(c, w, samples=8, seed=s.seed)
            reports[suite] = rep.as_dict()
            ok = rep.passed
        else:  # pragma: no cover - argparse restricts choices
            raise ValueError(suite)
        all_pass = all_pass and ok
        print(f"verify[{suite}]: {'pass' if ok else 'FAIL'}")
    emit_report(
        {"scenario": s.name, "suite": args.suite, "reports": reports, "passed": all_pass},
        os.path.join(out, f"verify_{args.suite}.json"),
    )
    return 0 if all_pass else 4


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    from .errors import (
        BlowUpError,
        ConditioningError,
        NonConvergenceError,
        OracleError,
        ValidationError,
    )
    from .errors import HierControlError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NonConvergenceError, ConditioningError, BlowUpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OracleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValidationError, HierControlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
