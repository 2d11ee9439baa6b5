"""Command-line surface.

Subcommands: solve (full hierarchic iteration), nash (follower equilibrium
at a frozen leader control), leader (penalized null control on one
linearization), weights (dump the weight fields), verify (oracle and probe
suites).  Exit codes: 0 success, 2 validation or usage error, 3
non-convergence, 4 oracle or probe budget violation.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import verification


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hiercontrol",
        description="Hierarchic (Stackelberg-Nash) control of quasi-linear parabolic systems",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="scenario file (YAML)")
        sp.add_argument("--out", default=".", help="output directory (created if missing)")

    # an override option's dest is the scenario key it replaces
    sp = sub.add_parser("solve", help="full quasi-linear hierarchic control run")
    common(sp)
    sp.add_argument("--epsilon", dest="weights.epsilon", type=float, help="override scenario epsilon")
    sp.add_argument("--max-outer", dest="tolerances.max_outer", type=int,
                    help="override outer iteration cap")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("nash", help="follower equilibrium at a frozen leader control")
    common(sp)
    sp.set_defaults(func=cmd_nash)

    sp = sub.add_parser("leader", help="penalized null control on the frozen linearization")
    common(sp)
    sp.add_argument("--epsilon", dest="weights.epsilon", type=float, help="penalty parameter")
    sp.add_argument("--lambda", dest="weights.lambda", type=float, help="weight exponent")
    sp.add_argument("--mu", dest="weights.mu", type=float, help="weight shape parameter")
    sp.add_argument("--cg-tol", dest="tolerances.cg_tol", type=float, help="relative CG tolerance")
    sp.add_argument("--cg-max", dest="tolerances.cg_max", type=int, help="CG iteration cap")
    sp.set_defaults(func=cmd_leader)

    sp = sub.add_parser("weights", help="dump the Carleman weight fields as CSV")
    common(sp)
    sp.add_argument("--lambda", dest="weights.lambda", type=float, help="weight exponent")
    sp.add_argument("--mu", dest="weights.mu", type=float, help="weight shape parameter")
    sp.set_defaults(func=cmd_weights)

    sp = sub.add_parser("verify", help="independent oracles and inequality probes")
    common(sp)
    sp.add_argument("--suite", default="all", choices=[*VERIFY_SUITES, "all"])
    sp.set_defaults(func=cmd_verify)
    return p


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _load(args):
    """The scenario, its given overrides written over their keys and read
    as the file's values are, and its problem."""
    from .scenario import load_scenario, scenario_from_tree, scenario_to_tree

    s = load_scenario(args.config)
    given = {k: v for k, v in vars(args).items() if "." in k and v is not None}
    if given:
        tree = scenario_to_tree(s)
        for path, value in given.items():
            section, key = path.split(".")
            tree[section][key] = value
        s = scenario_from_tree(tree)
    return s, s.build_problem()


def _uncontrolled(problem):
    from .solvers import solve_forward_quasilinear

    return solve_forward_quasilinear(problem.nl, problem.grid, problem.tgrid, problem.y0)


def _weighted_time_norms(problem, values):
    """|y(t_m)| in the weighted norm for every slice of a (M+1, n) trajectory."""
    import numpy as np

    from .grids import spatial_pairing

    return [float(v) for v in np.sqrt(spatial_pairing(problem.grid, values, values))]


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    import numpy as np

    from .fixedpoint import solve_hierarchic
    from .outputs import emit_csv, emit_report, emit_svg

    s, problem = _load(args)
    out = _outdir(args)
    weights = s.build_carleman_weights(problem)
    rep = solve_hierarchic(
        problem,
        epsilon=s.epsilon,
        outer_tol=s.tolerance("outer_tol"),
        max_outer=int(s.tolerance("max_outer")),
        cg_tol=s.tolerance("cg_tol"),
        cg_max=int(s.tolerance("cg_max")),
        weights=weights,
        data_budget=s.tolerance("data_budget"),
        nash_tol=s.tolerance("nash_tol"),
        seed=s.seed,
    )

    emit_report(rep, os.path.join(out, "solve_report.json"), extra={"scenario": s.name})
    emit_csv(rep.u, os.path.join(out, "u.csv"))
    emit_csv(rep.y, os.path.join(out, "y.csv"))
    if rep.nash is not None:
        emit_csv(rep.nash.v1, os.path.join(out, "v1.csv"))
        emit_csv(rep.nash.v2, os.path.join(out, "v2.csv"))
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
    curves = [{"label": "|y(t)|", "x": times, "y": _weighted_time_norms(problem, rep.y.values)}]
    if not np.isnan(rep.terminal_norm):
        curves.append(
            {"label": "|y_lin(t)|", "x": times,
             "y": _weighted_time_norms(problem, rep.leader.y.values)}
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
    sol = with_first_order_residuals(problem, sol, seed=s.seed)
    emit_report(sol, os.path.join(out, "nash_report.json"), extra={"scenario": s.name})
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
    from .fixedpoint import linearize_at
    from .leader import inner_tolerance, leader_duality_gap, solve_leader
    from .outputs import emit_csv, emit_report, emit_svg

    s, problem = _load(args)
    out = _outdir(args)
    weights = s.build_carleman_weights(problem)
    cg_tol = s.tolerance("cg_tol")

    z0 = _uncontrolled(problem)
    ctx = linearize_at(problem, z0, weights=weights)
    sol = solve_leader(ctx, s.epsilon, cg_tol=cg_tol, cg_max=int(s.tolerance("cg_max")))
    emit_report(
        sol,
        os.path.join(out, "leader_report.json"),
        extra={"scenario": s.name, "lambda": weights.lam, "mu": weights.mu,
               "duality_gap": leader_duality_gap(ctx, sol)},
    )
    emit_csv(sol.u, os.path.join(out, "u.csv"))
    emit_csv(sol.y, os.path.join(out, "y.csv"))

    y_free = ctx.free_response(inner_tolerance(ctx, cg_tol))
    times = [float(t) for t in problem.tgrid.times]
    emit_svg(
        [{"label": "|y(t)| controlled", "x": times,
          "y": _weighted_time_norms(problem, sol.y.values)},
         {"label": "|y(t)| free", "x": times, "y": _weighted_time_norms(problem, y_free)}],
        os.path.join(out, "state_norm.svg"),
        title=f"{s.name}: leader null-control",
        xlabel="t",
        ylabel="log10 norm",
        ylog=True,
    )
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
    import numpy as np

    from .outputs import coordinate_header, emit_report, write_block
    from .weights import SAMPLED

    s, problem = _load(args)
    out = _outdir(args)
    w = s.build_carleman_weights(problem)
    grid, tgrid = problem.grid, problem.tgrid

    header = ["t", *coordinate_header(grid.dim), "beta", "nu", "rho_hat"]

    # one row per node on each slice the weight fields sample
    times = tgrid.times[SAMPLED]
    block = np.empty((times.size, grid.n_nodes, len(header)))
    block[..., 0] = times[:, None]
    block[..., 1:-3] = grid.nodes
    block[..., -3] = w.beta[SAMPLED]
    block[..., -2] = w.nu[SAMPLED]
    block[..., -1] = w.rho_hat[SAMPLED, None]

    path = os.path.join(out, "weights.csv")
    write_block(path, header, block.reshape(-1, len(header)))
    emit_report(
        {
            "scenario": s.name,
            "lambda": w.lam,
            "mu": w.mu,
            "eta_max": w.eta_max,
            "focus_box": [list(iv) for iv in problem.focus_box()],
            "rows": times.size * grid.n_nodes,
        },
        os.path.join(out, "weights_report.json"),
    )
    print(f"weights: {s.name} lambda={w.lam:.6g} mu={w.mu:.3g} artifacts in {out}")
    return 0


# ---------------------------------------------------------------------------
# verify


class _SuiteInputs:
    """The inputs verify's suites share, each computed on first use: the
    follower equilibrium nash-oracle and second-order differentiate at, the
    uncontrolled march z0 the duality check linearizes at, and the one
    roster both probes sample, frozen at z0."""

    def __init__(self, s, problem):
        self.s, self.problem = s, problem

    @functools.cached_property
    def nash(self):
        from .nash import compute_nash

        return compute_nash(self.problem, tol=self.s.tolerance("nash_tol"))

    @functools.cached_property
    def z0(self):
        return _uncontrolled(self.problem)

    @functools.cached_property
    def ctx(self):
        from .fixedpoint import linearize_at

        return linearize_at(self.problem, self.z0, weights=self.s.build_carleman_weights(self.problem))


# verify's suites in the order `all` runs them: each maps the shared inputs
# to its check's result, which decides its own `passed`
VERIFY_SUITES = {
    "duality": lambda at: verification.check_duality(at.problem, at.z0, trials=50, seed=at.s.seed),
    "nash-oracle": lambda at: verification.oracle_nash_gap(at.problem, at.nash),
    "second-order": lambda at: verification.check_second_order(at.problem, at.nash, seed=at.s.seed),
    "observability": lambda at: verification.probe_observability(at.ctx, samples=8, seed=at.s.seed),
    "carleman": lambda at: verification.probe_carleman(at.ctx, samples=8, seed=at.s.seed),
}


def cmd_verify(args) -> int:
    from .outputs import emit_report

    s, problem = _load(args)
    out = _outdir(args)
    at = _SuiteInputs(s, problem)
    reports = {}
    for suite in VERIFY_SUITES if args.suite == "all" else [args.suite]:
        reports[suite] = VERIFY_SUITES[suite](at)
        print(f"verify[{suite}]: {'pass' if reports[suite].passed else 'FAIL'}")
    passed = all(r.passed for r in reports.values())
    emit_report(
        {"scenario": s.name, "suite": args.suite, "reports": reports, "passed": passed},
        os.path.join(out, f"verify_{args.suite}.json"),
    )
    return 0 if passed else 4


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    from .errors import (
        BlowUpError,
        ConditioningError,
        HierControlError,
        NonConvergenceError,
        OracleError,
    )

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
    except (HierControlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
