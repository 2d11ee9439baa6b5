"""Acceptance criteria for the hierarchic control pipeline.

Each test checks one numbered criterion at its stated tolerance and prints
one PASS/FAIL line with the measured quantity.  Shared heavyweight objects
(scenario problems, the flagship Gramian context) are module-scoped.
"""

import dataclasses
import os

import numpy as np
import pytest

from conftest import scenario_path
from hiercontrol.cli import main as cli_main
from hiercontrol.fixedpoint import linearize_at, solve_hierarchic
from hiercontrol.leader import solve_leader
from hiercontrol.nash import compute_nash, fd_gateaux_residual, with_first_order_residuals
from hiercontrol.scenario import load_scenario
from hiercontrol.solvers import solve_forward_quasilinear
from hiercontrol.verification import (
    check_duality,
    check_second_order,
    oracle_nash_gap,
    probe_carleman,
    probe_observability,
)
from hiercontrol.weights import eval_terminal_weights, eval_weights

_SCN = {}
_PROB = {}


def _scenario(name):
    if name not in _SCN:
        _SCN[name] = load_scenario(scenario_path(name))
    return _SCN[name]


def _problem(name):
    if name not in _PROB:
        _PROB[name] = _scenario(name).build_problem()
    return _PROB[name]


def _uncontrolled(problem):
    return solve_forward_quasilinear(problem.nl, problem.grid, problem.tgrid, problem.y0)


def _context(name):
    s, problem = _scenario(name), _problem(name)
    weights = s.build_carleman_weights(problem)
    return linearize_at(problem, _uncontrolled(problem), weights=weights)


@pytest.fixture(scope="module")
def ctx_heat():
    return _context("heat_1d")


def _verdict(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


class TestAcceptance:
    def test_criterion_01_adjoint_duality(self):
        # adjoint-vs-sensitivity pairing identity, worst over 50 random
        # directions per follower, three dynamics classes
        worst = {}
        for name in ("heat_1d", "mild_quasilinear", "gradient_diffusion"):
            s, problem = _scenario(name), _problem(name)
            rep = check_duality(problem, _uncontrolled(problem), trials=50, seed=s.seed)
            worst[name] = rep.worst_ratio
        ok = all(v <= 1e-10 for v in worst.values())
        detail = "duality worst ratios " + ", ".join(
            f"{k}={v:.3e}" for k, v in worst.items()
        ) + " (budget 1e-10)"
        _verdict(1, ok, detail)

    def test_criterion_02_stacked_kkt_oracle(self):
        gaps = {}
        for name in ("heat_lq_16x32", "heat_lq_24x48", "advection_lq_16x32"):
            s, problem = _scenario(name), _problem(name)
            nash = compute_nash(problem, tol=s.tolerance("nash_tol"))
            gaps[name] = oracle_nash_gap(problem, nash).worst_relative_gap
            if name == "heat_lq_24x48":
                _PROB["_nash24"] = nash
        ok = all(v <= 1e-6 for v in gaps.values())
        detail = "equilibrium vs stacked KKT oracle " + ", ".join(
            f"{k}={v:.3e}" for k, v in gaps.items()
        ) + " (budget 1e-6)"
        _verdict(2, ok, detail)

    def test_criterion_03_stationarity_residuals(self):
        worst = 0.0
        details = []
        for name in ("heat_lq_16x32", "heat_lq_24x48", "advection_lq_16x32"):
            s, problem = _scenario(name), _problem(name)
            if name == "heat_lq_24x48" and "_nash24" in _PROB:
                nash = _PROB["_nash24"]
            else:
                nash = compute_nash(problem, tol=s.tolerance("nash_tol"))
            checked = with_first_order_residuals(problem, nash, seed=s.seed)
            fd = fd_gateaux_residual(problem, None, nash, n_dirs=10, eps=1e-4, seed=s.seed)
            vals = checked.first_order_residuals + (fd["follower1"], fd["follower2"])
            worst = max(worst, max(vals))
            details.append(f"{name}={max(vals):.3e}")
        ok = worst <= 1e-5
        detail = (
            "worst directional-derivative residual per benchmark "
            + ", ".join(details)
            + " (10 directions each, budget 1e-5)"
        )
        _verdict(3, ok, detail)

    def test_criterion_04_gramian_structure(self, ctx_heat):
        rng = np.random.default_rng(0)
        grid = ctx_heat.grid
        w = grid.weights
        sym_gaps, quads = [], []
        for _ in range(20):
            a = rng.standard_normal(grid.n_nodes)
            b = rng.standard_normal(grid.n_nodes)
            a[grid.boundary] = 0.0
            b[grid.boundary] = 0.0
            la, lb = ctx_heat.gramian_apply(a).terminal, ctx_heat.gramian_apply(b).terminal
            lhs, rhs = float(np.dot(w * la, b)), float(np.dot(w * a, lb))
            sym_gaps.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
            quads.append(float(np.dot(w * la, a)))
        worst_sym = max(sym_gaps)
        min_quad = min(quads)
        ok = worst_sym <= 1e-10 and min_quad >= -1e-12
        detail = (
            f"Gramian symmetry worst={worst_sym:.3e} (budget 1e-10), "
            f"min quadratic form={min_quad:.3e} (>= -1e-12)"
        )
        _verdict(4, ok, detail)

    def test_criterion_05_penalty_sweep(self, ctx_heat):
        s = _scenario("heat_1d")
        terminals, bounds_ok, minimizer_ok = [], True, True
        for eps in (1e-2, 1e-3, 1e-4):
            sol = solve_leader(
                ctx_heat, eps, cg_tol=s.tolerance("cg_tol"), cg_max=int(s.tolerance("cg_max"))
            )
            terminals.append(sol.terminal_norm)
            bounds_ok &= sol.terminal_norm**2 <= 2.0 * eps * sol.J_eps_value * (1 + 1e-12)
            minimizer_ok &= sol.J_eps_value <= sol.J_eps_zero * (1 + 1e-12)
        monotone = all(b <= a * (1 + 1e-12) for a, b in zip(terminals, terminals[1:]))
        ok = monotone and bounds_ok and minimizer_ok
        detail = (
            "terminal norms at eps=1e-2,1e-3,1e-4: "
            + ", ".join(f"{t:.9e}" for t in terminals)
            + f"; monotone={monotone}, penalty bound={bounds_ok}, minimizer={minimizer_ok}"
        )
        _verdict(5, ok, detail)

    def test_criterion_06_quasilinear_control(self):
        s, problem = _scenario("mild_quasilinear"), _problem("mild_quasilinear")
        report = solve_hierarchic(
            problem,
            s.epsilon,
            outer_tol=s.tolerance("outer_tol"),
            max_outer=int(s.tolerance("max_outer")),
            cg_tol=s.tolerance("cg_tol"),
            cg_max=int(s.tolerance("cg_max")),
            weights=s.build_carleman_weights(problem),
            nash_tol=s.tolerance("nash_tol"),
            seed=s.seed,
        )
        contract = (
            report.update_norms[-1] < 0.5 * report.update_norms[0]
            if len(report.update_norms) >= 2
            else True
        )
        ratio = report.terminal_norm / max(report.linearized_terminal_norm, 1e-300)
        r1, r2 = report.nash.first_order_residuals
        ok = (
            report.converged
            and report.iterations <= 10
            and contract
            and ratio <= 3.0
            and r1 <= 1e-4
            and r2 <= 1e-4
        )
        detail = (
            f"outer loop converged={report.converged} in {report.iterations} iterations, "
            f"update contraction={contract}, terminal/linearized={ratio:.6f} (<= 3), "
            f"equilibrium residuals=({r1:.3e}, {r2:.3e}) (budget 1e-4)"
        )
        _verdict(6, ok, detail)

    def test_criterion_07_second_order(self):
        gaps = {}
        for name in ("heat_lq_16x32", "gradient_diffusion", "mild_quasilinear"):
            s, problem = _scenario(name), _problem(name)
            nash = compute_nash(problem, tol=s.tolerance("nash_tol"))
            res = check_second_order(problem, nash, seed=s.seed)
            gaps[name] = res.relative_gap
        decoupled = dataclasses.replace(
            _problem("heat_lq_16x32"), nu=(0.0, _problem("heat_lq_16x32").nu[1])
        )
        res0 = check_second_order(decoupled, compute_nash(decoupled), seed=0)
        exact = (
            res0.coupling_term == 0.0
            and abs(res0.rep_value - res0.mu_term) <= 1e-12 * abs(res0.rep_value)
        )
        ok = all(v <= 1e-2 for v in gaps.values()) and exact
        detail = (
            "curvature representation vs differences "
            + ", ".join(f"{k}={v:.3e}" for k, v in gaps.items())
            + f" (budget 1e-2); nu1=0 reduction exact={exact}"
        )
        _verdict(7, ok, detail)

    def test_criterion_08_weight_identities(self, ctx_heat):
        w = ctx_heat.weights
        T = w.tgrid.T
        # closed form at mid-time
        mid = eval_weights(w, T / 2.0)
        beta_exact = 4.0 * np.exp(w.mu * w.eta) / (T * T)
        beta_ok = bool(np.allclose(mid["beta"], beta_exact, rtol=1e-12))
        neg_ok = all(
            bool(np.all(eval_weights(w, t)["nu"] < 0.0)) for t in (0.1 * T, 0.5 * T, 0.9 * T)
        )
        below = eval_terminal_weights(w, T / 2.0)["l"]
        above = eval_terminal_weights(w, T / 2.0 + 1e-9)["l"]
        l_ok = abs(below - above) <= 1e-8
        logs = [
            eval_terminal_weights(w, float(t))["log_rho_hat"] for t in w.tgrid.times[:-1]
        ]
        rho_ok = all(b >= a - 1e-15 for a, b in zip(logs, logs[1:])) and logs[0] > 0.0
        traj = w.rho_tilde_inv2
        ends_ok = float(np.abs(traj[0]).max()) == 0.0 and float(np.abs(traj[-1]).max()) == 0.0
        ok = beta_ok and neg_ok and l_ok and rho_ok and ends_ok
        detail = (
            f"beta mid-time closed form (1e-12)={beta_ok}, nu<0 everywhere={neg_ok}, "
            f"l continuous at T/2={l_ok}, log rho_hat non-decreasing={rho_ok}, "
            f"observation endpoint rows zero={ends_ok}"
        )
        _verdict(8, ok, detail)

    def test_criterion_09_probe_sanity(self, ctx_heat):
        s = _scenario("heat_1d")
        rep_native = probe_observability(ctx_heat, samples=8, seed=s.seed)
        rep_carl = probe_carleman(ctx_heat, samples=8, seed=s.seed)
        refined_s = dataclasses.replace(s, cells=2 * s.cells, steps=2 * s.steps)
        refined_p = refined_s.build_problem()
        refined_ctx = linearize_at(
            refined_p,
            _uncontrolled(refined_p),
            weights=refined_s.build_carleman_weights(refined_p),
        )
        rep_refined = probe_observability(refined_ctx, samples=8, seed=s.seed)
        finite = rep_native.passed and rep_refined.passed and rep_carl.passed
        finite &= all(np.isfinite(r) for r in rep_carl.ratios)
        factor = rep_refined.worst_ratio / rep_native.worst_ratio
        ok = finite and 0.5 <= factor <= 2.0
        detail = (
            f"all probe ratios finite={finite}; observability worst ratio "
            f"{rep_native.worst_ratio:.6e} at {s.cells}x{s.steps}, "
            f"{rep_refined.worst_ratio:.6e} refined; factor={factor:.4f} (within [0.5, 2])"
        )
        _verdict(9, ok, detail)

    def test_criterion_10_reproducibility(self, tmp_path):
        cfg = scenario_path("heat_1d")
        outs = []
        for tag in ("a", "b"):
            out = os.path.join(tmp_path, tag)
            os.makedirs(out)
            rc = cli_main(["solve", "--config", cfg, "--out", out])
            assert rc == 0
            outs.append(out)
        names = sorted(os.listdir(outs[0]))
        same = sorted(os.listdir(outs[1])) == names
        diffs = []
        for name in names:
            with open(os.path.join(outs[0], name), "rb") as fa:
                ba = fa.read()
            with open(os.path.join(outs[1], name), "rb") as fb:
                bb = fb.read()
            if ba != bb:
                diffs.append(name)
        ok = same and not diffs
        detail = (
            f"paired solve runs produced {len(names)} artifacts, "
            f"byte-identical={not diffs}"
            + (f", differing: {diffs}" if diffs else "")
        )
        _verdict(10, ok, detail)
