"""Workloads of the benchmark: seeded scenario generators, operations, checks.

Every operation gets a fresh scenario drawn from ``(seed, op index)``.  The
seed moves data only (amplitudes, centres, target bumps and the scenario's
own ``seed``); grid sizes, regions and tolerances are fixed per workload, so
the work an operation does stays the same from seed to seed.

Each workload provides

* ``tree(rng, warmup)``: the scenario as a YAML tree; ``warmup=True`` gives the
  small instance that set-up loads,
* ``run(hc, cfg, out)``: the timed operation; it reads the scenario file,
  calls the program and writes its artifacts into ``out``,
* ``check(result)``: the list of failed output checks (empty when correct),
  using the tolerances of the repository's own tests,
* ``counts(result)``: the program's own iteration counters of the operation
  and the largest ``terminal_defect`` it reported,
* ``summarize(hc, result)``, optional: writes the artifact of an operation
  whose timed call writes none.

``hc`` is a namespace of the imported ``hiercontrol`` modules; the benchmark
never reads the repository's scenario files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from typing import Callable, NamedTuple

# Region layouts of the shipped 1D and 2D scenarios.
REGIONS_1D = {
    "omega0": [0.3, 0.7],
    "omega0_tilde": [0.4, 0.6],
    "omega1": [0.1, 0.35],
    "omega1_tilde": [0.15, 0.3],
    "omega2": [0.65, 0.9],
    "omega2_tilde": [0.7, 0.85],
    "omega": [0.45, 0.85],
    "omega_prime": [0.5, 0.8],
}
REGIONS_2D = {key: [iv, iv] for key, iv in (
    ("omega0", [0.25, 0.75]),
    ("omega0_tilde", [0.35, 0.65]),
    ("omega1", [0.05, 0.45]),
    ("omega1_tilde", [0.15, 0.35]),
    ("omega2", [0.55, 0.95]),
    ("omega2_tilde", [0.65, 0.85]),
    ("omega", [0.3, 0.9]),
    ("omega_prime", [0.4, 0.8]),
)}

SWEEP_EPSILONS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)

# Relative slack of the inequality checks, as in the repository's tests.
REL = 1e-12

# solve_leader stops conjugate gradients at residual CG_TOL relative to |b|,
# the free terminal state, and runs its inner coupled solves at CG_TOL / 100.
# The residual of (Lambda + eps I) phi_T = -b is -(y(T) + eps phi_T), so the
# terminal identity y(T) = -eps phi_T holds to (CG_TOL + CG_TOL / 100) |b|;
# that is what the checks hold the program to.  The program's own
# ``terminal_defect`` divides the same residual by the controlled |y(T)|
# instead, so it may exceed CG_TOL by |b| / |y(T)| once the leader acts; it
# is recorded per operation and not gated.
CG_TOL = 1e-8
TERMINAL_TOL = CG_TOL + CG_TOL / 100


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _bump(rng, sign, amp, centre):
    return {
        "profile": "bump",
        "amplitude": sign * _u(rng, *amp),
        "center": _u(rng, *centre),
        "width": 0.25,
    }


def _scenario_seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def _quiet_cli(hc, argv):
    """hiercontrol.cli.main with its progress lines kept off the benchmark's output."""
    with contextlib.redirect_stdout(io.StringIO()):
        return hc.cli.main(argv)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# solve-1d-nonlinear: `hiercontrol solve` on a mild-quasilinear 1D scenario


def _solve_tree(rng, warmup):
    cells, steps = (8, 16) if warmup else (48, 96)
    return {
        "name": "bench-solve-1d-nonlinear",
        "grid": {"dim": 1, "cells": cells, "T": 0.1, "steps": steps},
        "regions": REGIONS_1D,
        "weights": {"mu1": 50.0, "mu2": 50.0, "nu1": 1.0, "nu2": 1.0,
                    "lambda": "auto", "mu": 2.0, "epsilon": 1e-5},
        "nonlinearity": {"preset": "mild-quasilinear",
                         "params": {"a0": 1.0, "q": 1.0, "c": 1.0}},
        "data": {
            "y0": {"profile": "sine", "amplitude": _u(rng, 0.48, 0.52), "modes": 1},
            "y1_target": _bump(rng, 1.0, (0.04, 0.06), (0.58, 0.62)),
            "y2_target": _bump(rng, -1.0, (0.04, 0.06), (0.68, 0.72)),
        },
        "tolerances": {"outer_tol": 1e-8, "max_outer": 12, "cg_tol": CG_TOL},
        "seed": _scenario_seed(rng),
    }


def _terminal_check(defect, tnorm, pred, bnorm):
    """Failure message when |y(T) + eps phi_T| exceeds TERMINAL_TOL |b|, else None.

    ``defect`` is |y(T) + eps phi_T| / max(|y(T)|, eps |phi_T|), as reported.
    """
    residual = defect * max(tnorm, pred)
    if residual <= TERMINAL_TOL * bnorm:
        return None
    return (f"terminal identity |y(T) + eps phi_T| = {residual / bnorm:.3e} |b| "
            f"> {TERMINAL_TOL:.3g} |b|")


def _solve_run(hc, cfg, out):
    rc = _quiet_cli(hc, ["solve", "--config", cfg, "--out", out])
    return {"rc": rc, "out": out}


def _solve_report(result):
    return _read_json(os.path.join(result["out"], "solve_report.json"))


def _solve_check(result):
    if result["rc"] != 0:
        return [f"exit code {result['rc']}"]
    rep = _solve_report(result)
    lead, nash = rep["leader"], rep["nash"]
    bad = []
    if not rep["converged"]:
        bad.append("outer loop not converged")
    if not lead["converged"]:
        bad.append("leader CG not converged")
    if nash is None or not nash["converged"]:
        return bad + ["Nash equilibrium missing or not converged"]
    worst = max(nash["first_order_residuals"])
    if not worst < 1e-9:
        bad.append(f"Nash first-order residual {worst:.3e} >= 1e-9")
    # The report holds J_eps, its control energy and J_eps(0) = |b|^2 / (2 eps);
    # |y(T)| and |b| follow from them.  eps |phi_T| differs from |y(T)| by at
    # most the residual r, so |r| <= defect |y(T)| / (1 - defect); a defect of 1
    # or more bounds nothing and fails.
    eps = rep["epsilon"]
    bnorm = (2.0 * eps * lead["J_eps_zero"]) ** 0.5
    tnorm = max(2.0 * eps * (lead["J_eps_value"] - 0.5 * lead["control_energy"]), 0.0) ** 0.5
    defect = lead["terminal_defect"]
    bound = tnorm / (1.0 - defect) if defect < 1.0 else float("inf")
    msg = _terminal_check(defect, bound, 0.0, bnorm)
    if msg:
        bad.append(msg)
    if not lead["J_eps_value"] <= lead["J_eps_zero"] * (1 + REL):
        bad.append("J_eps above J_eps(0)")
    ratio = rep["terminal_norm"] / max(rep["linearized_terminal_norm"], 1e-300)
    if not ratio <= 3.0:
        bad.append(f"terminal/linearized ratio {ratio:.3g} > 3")
    return bad


def _solve_counts(result):
    if result["rc"] != 0:
        return {}
    rep = _solve_report(result)
    return {
        "outer_iterations": rep["iterations"],
        "cg_iterations": rep["leader"]["cg_iterations"],
        "nash_iterations": rep["nash"]["picard_iterations"],
        "terminal_defect": rep["leader"]["terminal_defect"],
    }


# ---------------------------------------------------------------------------
# sweep-2d-picard: one linearization, solve_leader along an epsilon sweep


def _sweep_tree(rng, warmup):
    cells, steps = (8, 16) if warmup else (40, 48)
    return {
        "name": "bench-sweep-2d-picard",
        "grid": {"dim": 2, "cells": cells, "T": 0.05, "steps": steps},
        "regions": REGIONS_2D,
        "weights": {"mu1": 20.0, "mu2": 20.0, "nu1": 1.0, "nu2": 1.0,
                    "lambda": "auto", "mu": 2.0, "epsilon": 1e-2},
        "nonlinearity": {"preset": "heat", "params": {"a0": 1.0}},
        "data": {
            "y0": {"profile": "gauss", "amplitude": _u(rng, 0.18, 0.22),
                   "center": [_u(rng, 0.45, 0.55), _u(rng, 0.45, 0.55)], "sigma": 0.15},
            "y1_target": {"profile": "zero"},
            "y2_target": {"profile": "zero"},
        },
        "tolerances": {"cg_max": 400, "cg_tol": CG_TOL},
        "seed": _scenario_seed(rng),
    }


def _sha(arr):
    return hashlib.sha256(arr.tobytes()).hexdigest()


def _sweep_run(hc, cfg, out):
    s = hc.scenario.load_scenario(cfg)
    problem = s.build_problem()
    weights = s.build_carleman_weights(problem)
    z0 = hc.solvers.solve_forward_quasilinear(problem.nl, problem.grid, problem.tgrid, problem.y0)
    ctx = hc.fixedpoint.linearize_at(problem, z0, weights=weights)
    sols = [
        hc.leader.solve_leader(ctx, eps, cg_tol=s.tolerance("cg_tol"),
                               cg_max=int(s.tolerance("cg_max")))
        for eps in SWEEP_EPSILONS
    ]
    return {"out": out, "ctx": ctx, "sols": sols}


def _sweep_summary(hc, result):
    """The sweep's artifact, written after the timed call: what the checks and
    the traced/untraced byte comparison read."""
    ctx, sols = result["ctx"], result["sols"]
    rows = []
    for sol in sols:
        rows.append({
            "epsilon": sol.epsilon,
            "converged": sol.converged,
            "cg_iterations": sol.cg_iterations,
            "terminal_norm": repr(sol.terminal_norm),
            "free_terminal_norm": repr(sol.free_terminal_norm),
            "terminal_defect": repr(sol.terminal_defect),
            "predicted_terminal_norm": repr(sol.predicted_terminal_norm),
            "J_eps_value": repr(sol.J_eps_value),
            "J_eps_zero": repr(sol.J_eps_zero),
            "duality_gap": repr(hc.leader.leader_duality_gap(ctx, sol)),
            "u_sha256": _sha(sol.u.values),
            "y_sha256": _sha(sol.y.values),
        })
    summary = {"strategy": ctx.strategy, "unknowns": ctx.size,
               "gramian_applications": ctx.gramian_applications, "sweep": rows}
    os.makedirs(result["out"], exist_ok=True)
    with open(os.path.join(result["out"], "sweep_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
    return summary


def _sweep_check(result):
    bad = []
    terminals = []
    for row in result["summary"]["sweep"]:
        eps = row["epsilon"]
        tnorm = float(row["terminal_norm"])
        if not row["converged"]:
            bad.append(f"eps={eps:g}: CG not converged")
        gap = float(row["duality_gap"])
        if not gap < 1e-9:
            bad.append(f"eps={eps:g}: leader_duality_gap {gap:.3e} >= 1e-9")
        msg = _terminal_check(float(row["terminal_defect"]), tnorm,
                              float(row["predicted_terminal_norm"]),
                              float(row["free_terminal_norm"]))
        if msg:
            bad.append(f"eps={eps:g}: {msg}")
        if not tnorm**2 <= 2.0 * eps * float(row["J_eps_value"]) * (1 + REL):
            bad.append(f"eps={eps:g}: penalty bound |y(T)|^2 <= 2 eps J_eps violated")
        terminals.append(tnorm)
    for a, b in zip(terminals, terminals[1:]):
        if not b <= a * (1 + REL):
            bad.append("terminal norm increases as epsilon falls")
            break
    return bad


def _sweep_counts(result):
    rows = result["summary"]["sweep"]
    return {
        "cg_iterations": [row["cg_iterations"] for row in rows],
        "terminal_defect": max(float(row["terminal_defect"]) for row in rows),
        "gramian_applications": result["summary"]["gramian_applications"],
        "strategy": result["summary"]["strategy"],
    }


# ---------------------------------------------------------------------------
# verify-lq: `hiercontrol verify --suite all` on a linear-quadratic 1D scenario

VERIFY_SUITES = ("duality", "nash-oracle", "second-order", "observability", "carleman")


def _verify_tree(rng, warmup):
    cells, steps = (12, 24) if warmup else (24, 48)
    return {
        "name": "bench-verify-lq",
        "grid": {"dim": 1, "cells": cells, "T": 1.0, "steps": steps},
        "regions": REGIONS_1D,
        "weights": {"mu1": 20.0, "mu2": 20.0, "nu1": 1.0, "nu2": 1.0,
                    "lambda": "auto", "mu": 2.0, "epsilon": 1e-2},
        "nonlinearity": {"preset": "heat", "params": {"a0": 1.0}},
        "data": {
            "y0": {"profile": "sine", "amplitude": _u(rng, 0.25, 0.35), "modes": 1},
            "y1_target": _bump(rng, 1.0, (0.08, 0.12), (0.58, 0.62)),
            "y2_target": _bump(rng, -1.0, (0.08, 0.12), (0.68, 0.72)),
        },
        "tolerances": {"nash_tol": 1e-12},
        "seed": _scenario_seed(rng),
    }


def _verify_run(hc, cfg, out):
    rc = _quiet_cli(hc, ["verify", "--config", cfg, "--out", out, "--suite", "all"])
    return {"rc": rc, "out": out}


def _verify_check(result):
    if result["rc"] != 0:
        return [f"exit code {result['rc']}"]
    rep = _read_json(os.path.join(result["out"], "verify_all.json"))
    bad = [f"suite {name} missing or failed" for name in VERIFY_SUITES
           if not rep["reports"].get(name, {}).get("passed", False)]
    if not rep["passed"]:
        bad.append("verify report not passed")
    return bad


def _verify_counts(result):
    return {}


# ---------------------------------------------------------------------------


class Workload(NamedTuple):
    name: str
    tree: Callable
    run: Callable
    check: Callable
    counts: Callable
    summarize: Callable | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-1d-nonlinear", _solve_tree, _solve_run, _solve_check, _solve_counts),
        Workload("sweep-2d-picard", _sweep_tree, _sweep_run, _sweep_check, _sweep_counts,
                 summarize=_sweep_summary),
        Workload("verify-lq", _verify_tree, _verify_run, _verify_check, _verify_counts),
    )
}
