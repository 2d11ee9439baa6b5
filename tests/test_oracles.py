"""Independent verification machinery: stacked oracle, probes, reports."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_problem, scenario_path
from hiercontrol import verification
from hiercontrol.errors import ValidationError
from hiercontrol.fixedpoint import linearize_at
from hiercontrol.grids import SpaceTimeField, stepped_norm2
from hiercontrol.leader import GramianContext
from hiercontrol.nash import compute_nash
from hiercontrol.outputs import emit_report
from hiercontrol.scenario import load_scenario, scenario_from_tree
from hiercontrol.solvers import solve_forward_quasilinear
from hiercontrol.verification import (
    NashOracleReport,
    ProbeReport,
    SecondOrderReport,
    check_duality,
    check_second_order,
    kkt_nash_oracle,
    oracle_nash_gap,
    probe_carleman,
    probe_observability,
    second_order_mu_sweep,
)


def _march(problem, u=None):
    """The state driven by the leader control u; uncontrolled for None."""
    source = None if u is None else problem.xi("leader")[None, :] * u.values
    return solve_forward_quasilinear(problem.nl, problem.grid, problem.tgrid, problem.y0, source=source)


def _oracle_gap(problem, u=None):
    """Relative gap of the equilibrium at u, solved to 1e-12, from the oracle's."""
    return oracle_nash_gap(problem, compute_nash(problem, u=u, tol=1e-12), u=u).worst_relative_gap


def _leader_control(problem, seed=0, amp=0.1):
    rng = np.random.default_rng(seed)
    mask = problem.cutoffs["leader"].values > 0
    vals = np.zeros((problem.tgrid.n_slices, problem.grid.n_nodes))
    vals[1:, mask] = amp * rng.standard_normal((problem.tgrid.steps, int(mask.sum())))
    return SpaceTimeField(problem.grid, problem.tgrid, vals)


# make_problem settings of the regimes the stacked oracle is checked in
_ORACLE_CASES = {
    "nu-0-1": dict(nu=(0.0, 1.0)),
    "nu-1-0": dict(nu=(1.0, 0.0)),
    "2d-8x16": dict(dim=2, cells=8, steps=16),
    "linear-f-1d": dict(preset="linear-f", params={"c1": 0.5, "c2": 0.8}),
    "linear-f-2d": dict(dim=2, cells=8, steps=16, preset="linear-f", params={"c1": 0.5, "c2": 0.8}),
}


def _zero_traj(problem):
    return SpaceTimeField(
        problem.grid,
        problem.tgrid,
        np.zeros((problem.tgrid.n_slices, problem.grid.n_nodes)),
    )


class TestKKTOracle:
    def test_zero_data_gives_zero_controls(self):
        problem = make_problem(cells=16, steps=32, y0_amp=0.0, target_amp=0.0)
        v1, v2 = kkt_nash_oracle(problem)
        assert np.abs(v1.values).max() == 0.0
        assert np.abs(v2.values).max() == 0.0

    def test_zero_tracking_gives_zero_controls(self):
        problem = make_problem(cells=16, steps=32, nu=(0.0, 0.0))
        v1, v2 = kkt_nash_oracle(problem)
        assert np.abs(v1.values).max() == 0.0
        assert np.abs(v2.values).max() == 0.0

    def test_matches_picard_equilibrium(self):
        problem = make_problem(cells=16, steps=32)
        assert _oracle_gap(problem) < 1e-10

    def test_report_decides_its_verdict(self):
        problem = make_problem(cells=16, steps=32)
        rep = oracle_nash_gap(problem, compute_nash(problem, tol=1e-12))
        assert isinstance(rep, NashOracleReport)
        assert (rep.name, rep.budget, rep.passed) == ("nash-oracle", 1e-6, True)

    def test_matches_under_leader_control(self):
        problem = make_problem(cells=16, steps=32)
        u = _leader_control(problem, seed=12)
        assert _oracle_gap(problem, u=u) < 1e-10

    @pytest.mark.parametrize("leader", [False, True], ids=["free", "leader"])
    @pytest.mark.parametrize("case", list(_ORACLE_CASES))
    def test_matches_picard_equilibrium_across_regimes(self, case, leader):
        problem = make_problem(**_ORACLE_CASES[case])
        u = _leader_control(problem, seed=12) if leader else None
        assert _oracle_gap(problem, u=u) < 1e-10

    def test_independent_of_production_operators(self, monkeypatch):
        """The oracle assembles and solves without the production slice operators or marches."""
        problem = make_problem(cells=16, steps=32)
        u = _leader_control(problem, seed=12)
        expected = kkt_nash_oracle(problem, u)

        def refuse(*args, **kwargs):
            raise AssertionError("the KKT oracle called production solver code")

        for name, module in list(sys.modules.items()):
            if module is None or not (name == "hiercontrol" or name.startswith("hiercontrol.")):
                continue
            for attr in ("slice_operator", "factor_slice", "bind_solve",
                         "SliceFactors", "march_forward", "march_adjoint"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
        got = kkt_nash_oracle(problem, u)
        for mine, ref in zip(got, expected):
            np.testing.assert_array_equal(mine.values, ref.values)

    def test_rejects_nonlinear_dynamics(self):
        problem = make_problem(
            cells=16, steps=32, preset="cubic-f", params={"c": 0.5}
        )
        with pytest.raises(ValidationError):
            kkt_nash_oracle(problem)

    def test_rejects_large_grids(self):
        problem = make_problem(cells=32, steps=32)
        with pytest.raises(ValidationError, match="oracle"):
            kkt_nash_oracle(problem)


class TestDuality:
    def test_report_passes_budget(self):
        problem = make_problem(cells=16, steps=32)
        rep = check_duality(problem, _march(problem), trials=10, seed=2)
        assert isinstance(rep, ProbeReport)
        assert rep.samples == 20  # both followers
        assert rep.passed
        assert rep.worst_ratio <= 1e-10
        assert rep.parameters["grid"] == "16x32"

    def test_zero_tracking_weights_trivialize(self):
        problem = make_problem(cells=16, steps=32, nu=(0.0, 0.0))
        rep = check_duality(problem, _march(problem), trials=5)
        assert rep.worst_ratio == 0.0
        assert rep.passed

    def test_holds_under_leader_control(self):
        problem = make_problem(cells=16, steps=32)
        rep = check_duality(problem, _march(problem, _leader_control(problem, seed=6)), trials=8)
        assert rep.passed

    def test_holds_for_quasilinear_state(self):
        problem = make_problem(
            cells=16,
            steps=32,
            preset="mild-quasilinear",
            params={"q": 0.05, "c": 0.1},
            y0_amp=0.1,
        )
        rep = check_duality(problem, _march(problem), trials=8, seed=3)
        assert rep.passed


    def test_near_cancelling_draw_passes(self):
        # a generated verify-lq scenario (bench seed 1702, operation 20) whose
        # draw 92 has lhs = rhs = -1.77e-11: relative to max(|lhs|, |rhs|)
        # its rounding read 3.1e-9, on the Cauchy-Schwarz scale it is ~1e-16
        s = scenario_from_tree({
            "name": "bench-verify-lq",
            "grid": {"dim": 1, "cells": 24, "T": 1.0, "steps": 48},
            "regions": {
                "omega0": [0.3, 0.7], "omega0_tilde": [0.4, 0.6],
                "omega1": [0.1, 0.35], "omega1_tilde": [0.15, 0.3],
                "omega2": [0.65, 0.9], "omega2_tilde": [0.7, 0.85],
                "omega": [0.45, 0.85], "omega_prime": [0.5, 0.8],
            },
            "weights": {"mu1": 20.0, "mu2": 20.0, "nu1": 1.0, "nu2": 1.0,
                        "lambda": "auto", "mu": 2.0, "epsilon": 0.01},
            "nonlinearity": {"preset": "heat", "params": {"a0": 1.0}},
            "data": {
                "y0": {"profile": "sine", "amplitude": 0.26991986897978065, "modes": 1},
                "y1_target": {"profile": "bump", "amplitude": 0.11807832355506948,
                              "center": 0.6103053370455145, "width": 0.25},
                "y2_target": {"profile": "bump", "amplitude": -0.08351854748329579,
                              "center": 0.7019278046681997, "width": 0.25},
            },
            "tolerances": {"nash_tol": 1e-12},
            "seed": 572634118,
        })
        problem = s.build_problem()
        rep = check_duality(problem, _march(problem), trials=50, seed=s.seed)
        assert rep.passed
        assert rep.worst_ratio <= 1e-14

    def test_adjoint_without_transpose_fails(self, monkeypatch):
        # mutant: the adjoint march applies (I + tau L)^{-1} instead of its
        # transpose, which differs once the roster carries advection
        class NoTranspose:
            def __init__(self, factors):
                self.factors, self.grid, self.tgrid = factors, factors.grid, factors.tgrid

            def solves(self, transpose=False):
                return self.factors.solves()

        march = verification.march_adjoint
        monkeypatch.setattr(verification, "march_adjoint",
                            lambda factors, terminal, sources:
                            march(NoTranspose(factors), terminal, sources))
        s = load_scenario(scenario_path("advection_lq_16x32"))
        problem = s.build_problem()
        rep = check_duality(problem, _march(problem), trials=50, seed=s.seed)
        assert not rep.passed
        assert rep.worst_ratio >= 1e-6


class TestProbeReport:
    def test_nonfinite_ratios_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            ProbeReport(
                name="broken",
                samples=1,
                worst_ratio=float("nan"),
                ratios=(float("nan"),),
                parameters={},
                budget=None,
                passed=False,
            )

    def test_emit_report_round_trip(self, tmp_path):
        rep = ProbeReport(
            name="demo",
            samples=2,
            worst_ratio=0.5,
            ratios=(0.25, 0.5),
            parameters={"seed": 0},
            budget=1.0,
            passed=True,
        )
        path = tmp_path / "probe.json"
        emit_report(rep, str(path))
        d = json.loads(path.read_text())
        assert d == {"name": "demo", "samples": 2, "worst_ratio": 0.5, "ratios": [0.25, 0.5],
                     "parameters": {"seed": 0}, "budget": 1.0, "passed": True, "excluded": 0}


class TestSecondOrder:
    def test_zero_direction_is_exactly_zero(self):
        problem = make_problem(cells=16, steps=32)
        w = np.zeros((problem.tgrid.n_slices, problem.grid.n_nodes))
        res = check_second_order(problem, compute_nash(problem), w=w, seed=1)
        assert res.rep_value == 0.0
        assert res.fd_value == 0.0
        assert res.mu_term == 0.0
        assert res.coupling_term == 0.0

    def test_pure_control_cost_when_tracking_off(self):
        problem = make_problem(cells=16, steps=32, nu=(0.0, 1.0))
        res = check_second_order(problem, compute_nash(problem), seed=2)
        assert res.coupling_term == 0.0
        assert res.rep_value == res.mu_term
        assert res.relative_gap < 1e-9

    def test_representation_matches_differences(self):
        problem = make_problem(cells=16, steps=32)
        res = check_second_order(problem, compute_nash(problem), seed=3)
        assert res.relative_gap < 1e-6
        assert res.rep_value > 0.0
        assert isinstance(res, SecondOrderReport)
        assert (res.name, res.budget, res.passed) == ("second-order", 1e-2, True)

    @pytest.mark.parametrize("name", ["gradient_diffusion", "mild_quasilinear"])
    def test_at_a_leader_control(self, name):
        # a leader control that moves the equilibrium state by about 10%: the
        # check differentiates J1 along the state that u drives, and on a
        # quasi-linear roster the coupling curvature moves with it
        s = load_scenario(scenario_path(name))
        problem = s.build_problem()
        tol = s.tolerance("nash_tol")
        u = _leader_control(problem, seed=1, amp=1.0)
        free, nash = compute_nash(problem, tol=tol), compute_nash(problem, u=u, tol=tol)
        moved = stepped_norm2(problem.grid, problem.tgrid, nash.y.values - free.y.values)
        assert moved >= 0.01**2 * stepped_norm2(problem.grid, problem.tgrid, free.y.values)
        res = check_second_order(problem, nash, u=u, seed=s.seed)
        assert res.passed and res.relative_gap <= res.budget
        at_zero = check_second_order(problem, free, seed=s.seed)
        assert res.coupling_term != at_zero.coupling_term

    def test_mu_sweep_structure(self):
        problem = make_problem(cells=16, steps=32)
        out = second_order_mu_sweep(problem, [5.0, 50.0], seed=4)
        assert out["mu1"] == [5.0, 50.0]
        assert len(out["rep_values"]) == 2
        assert all(v > 0.0 for v in out["rep_values"])
        assert out["crossing"] is None

    def test_mu_sweep_solves_at_its_tolerance(self, monkeypatch):
        seen = []
        solve = verification.compute_nash

        def spy(problem, u=None, tol=1e-11):
            seen.append(tol)
            return solve(problem, u=u, tol=tol)

        monkeypatch.setattr(verification, "compute_nash", spy)
        problem = make_problem(cells=16, steps=32)
        second_order_mu_sweep(problem, [5.0, 50.0], seed=4, tol=1e-9)
        assert seen == [1e-9, 1e-9]

    def test_sweep_script_passes_the_scenario_nash_tol(self, monkeypatch, tmp_path):
        script = _sweep_script()
        seen = {}

        def spy(problem, mu1_values, **kwargs):
            seen.update(kwargs)
            return {"mu1": list(mu1_values), "rep_values": [1.0], "crossing": None}

        monkeypatch.setattr(script, "second_order_mu_sweep", spy)
        monkeypatch.setattr(sys, "argv", ["sweep_second_order.py", "--config",
                                          scenario_path("heat_lq_16x32"), "--out",
                                          str(tmp_path), "--mu1", "20"])
        assert script.main() == 0
        assert seen["tol"] == 1e-12  # tolerances.nash_tol of the scenario

    def test_sweep_script_runs_with_its_defaults(self, monkeypatch, tmp_path):
        # every default mu1 reaches a Nash equilibrium on the default scenario
        script = _sweep_script()
        monkeypatch.setattr(sys, "argv", ["sweep_second_order.py", "--out", str(tmp_path)])
        assert script.main() == 0
        with open(tmp_path / "mu1_sweep.json", encoding="utf-8") as fh:
            assert len(json.load(fh)["rep_values"]) == 6


def _sweep_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "sweep_second_order.py"
    spec = importlib.util.spec_from_file_location("sweep_second_order", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.fixture(scope="module")
def ctx16():
    problem = make_problem(cells=16, steps=32)
    return linearize_at(problem, _zero_traj(problem))


class TestWeightedProbes:
    def test_observability_finite(self, ctx16):
        rep = probe_observability(ctx16, samples=4, seed=0)
        assert rep.passed and rep.budget is None
        assert rep.samples + rep.excluded == 4
        assert np.isfinite(rep.worst_ratio) and rep.worst_ratio > 0.0

    def test_carleman_finite(self, ctx16):
        rep = probe_carleman(ctx16, samples=4, seed=0)
        assert rep.passed
        assert np.isfinite(rep.worst_ratio) and rep.worst_ratio > 0.0
        # the full weighted energy dominates its focus restriction
        assert all(r >= 1.0 for r in rep.ratios)

    def test_carleman_grid_mismatch(self, ctx16):
        from hiercontrol.grids import build_grid, build_time_grid
        from hiercontrol.weights import build_weights

        other = build_weights(
            build_grid(1, 24), build_time_grid(1.0, 32), ctx16.problem.focus_box()
        )
        # the probe takes its weights from a context, which refuses them
        with pytest.raises(ValidationError, match="discretization"):
            GramianContext(ctx16.problem, other, ctx16.c)
