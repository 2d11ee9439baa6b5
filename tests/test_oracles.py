"""Independent verification machinery: stacked oracle, probes, reports."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_problem, scenario_path
from hiercontrol import verification
from hiercontrol.errors import ValidationError
from hiercontrol.fixedpoint import linearize_at
from hiercontrol.grids import SpaceTimeField
from hiercontrol.nash import compute_nash
from hiercontrol.verification import (
    ProbeReport,
    check_duality,
    check_second_order,
    kkt_nash_oracle,
    oracle_nash_gap,
    probe_carleman,
    probe_observability,
    second_order_mu_sweep,
)


def _leader_control(problem, seed=0, amp=0.1):
    rng = np.random.default_rng(seed)
    mask = problem.cutoffs["leader"].values > 0
    vals = np.zeros((problem.tgrid.n_slices, problem.grid.n_nodes))
    vals[1:, mask] = amp * rng.standard_normal((problem.tgrid.steps, int(mask.sum())))
    return SpaceTimeField(problem.grid, problem.tgrid, vals)


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
        assert oracle_nash_gap(problem) < 1e-10

    def test_matches_under_leader_control(self):
        problem = make_problem(cells=16, steps=32)
        u = _leader_control(problem, seed=12)
        assert oracle_nash_gap(problem, u=u) < 1e-10

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
        rep = check_duality(problem, trials=10, seed=2)
        assert isinstance(rep, ProbeReport)
        assert rep.samples == 20  # both followers
        assert rep.passed
        assert rep.worst_ratio <= 1e-10
        assert rep.parameters["grid"] == "16x32"

    def test_zero_tracking_weights_trivialize(self):
        problem = make_problem(cells=16, steps=32, nu=(0.0, 0.0))
        rep = check_duality(problem, trials=5)
        assert rep.worst_ratio == 0.0
        assert rep.passed

    def test_holds_under_leader_control(self):
        problem = make_problem(cells=16, steps=32)
        rep = check_duality(problem, u=_leader_control(problem, seed=6), trials=8)
        assert rep.passed

    def test_holds_for_quasilinear_state(self):
        problem = make_problem(
            cells=16,
            steps=32,
            preset="mild-quasilinear",
            params={"q": 0.05, "c": 0.1},
            y0_amp=0.1,
        )
        rep = check_duality(problem, trials=8, seed=3)
        assert rep.passed


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

    def test_as_dict_round_trip(self):
        rep = ProbeReport(
            name="demo",
            samples=2,
            worst_ratio=0.5,
            ratios=(0.25, 0.5),
            parameters={"seed": 0},
            budget=1.0,
            passed=True,
        )
        d = rep.as_dict()
        assert d["name"] == "demo" and d["ratios"] == [0.25, 0.5]
        assert d["excluded"] == 0


class TestSecondOrder:
    def test_zero_direction_is_exactly_zero(self):
        problem = make_problem(cells=16, steps=32)
        w = np.zeros((problem.tgrid.n_slices, problem.grid.n_nodes))
        res = check_second_order(problem, compute_nash(problem), w=w, seed=1)
        assert res["rep_value"] == 0.0
        assert res["fd_value"] == 0.0
        assert res["mu_term"] == 0.0
        assert res["coupling_term"] == 0.0

    def test_pure_control_cost_when_tracking_off(self):
        problem = make_problem(cells=16, steps=32, nu=(0.0, 1.0))
        res = check_second_order(problem, compute_nash(problem), seed=2)
        assert res["coupling_term"] == 0.0
        assert res["rep_value"] == res["mu_term"]
        assert res["relative_gap"] < 1e-9

    def test_representation_matches_differences(self):
        problem = make_problem(cells=16, steps=32)
        res = check_second_order(problem, compute_nash(problem), seed=3)
        assert res["relative_gap"] < 1e-6
        assert res["rep_value"] > 0.0

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
        path = Path(__file__).resolve().parents[1] / "scripts" / "sweep_second_order.py"
        spec = importlib.util.spec_from_file_location("sweep_second_order", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
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


@pytest.fixture(scope="module")
def ctx16():
    problem = make_problem(cells=16, steps=32)
    return linearize_at(problem, _zero_traj(problem))


class TestWeightedProbes:
    def test_observability_finite(self, ctx16):
        rep = probe_observability(ctx16, samples=4, seed=0)
        assert rep.passed
        assert rep.samples + rep.excluded == 4
        assert np.isfinite(rep.worst_ratio) and rep.worst_ratio > 0.0

    def test_observability_budget_enforced(self, ctx16):
        rep = probe_observability(ctx16, samples=3, seed=1, budget=1e-300)
        assert not rep.passed

    def test_carleman_finite(self, ctx16):
        rep = probe_carleman(ctx16.c, ctx16.weights, samples=4, seed=0)
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
        with pytest.raises(ValidationError, match="discretization"):
            probe_carleman(ctx16.c, other, samples=2)
