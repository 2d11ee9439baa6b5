"""Outer controllability loop and the averaged linearization."""

from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_problem, scenario_path
from hiercontrol import fixedpoint, nash
from hiercontrol.fixedpoint import linearize_at, solve_hierarchic
from hiercontrol.grids import SpaceTimeField, gradient
from hiercontrol.nash import coefficients_from_state, compute_nash
from hiercontrol.scenario import load_scenario
from hiercontrol.solvers import ANDERSON_DEPTH, anderson, contraction, nonlinearity_preset


def _random_traj(problem, seed=0, amp=0.4):
    rng = np.random.default_rng(seed)
    vals = amp * rng.standard_normal((problem.tgrid.n_slices, problem.grid.n_nodes))
    vals[:, problem.grid.boundary] = 0.0
    return SpaceTimeField(problem.grid, problem.tgrid, vals)


# A stand-in discretization for the helper, which reads only the node
# weights and the step: one "slice" of n unknowns after the unused slice 0,
# so the stepped weighted norm is the Euclidean norm of row 1.
def _flat(n):
    return SimpleNamespace(weights=np.ones(n)), SimpleNamespace(tau=1.0)


def _affine(A, b, calls):
    """x -> A x + b on row 1, counting evaluations; aux is the count."""

    def phi(x):
        calls.append(1)
        g = np.zeros_like(x)
        g[1] = A @ x[1] + b
        return g, len(calls)

    return phi


class TestAnderson:
    def test_linear_contraction_converges_to_the_fixed_point(self):
        rng = np.random.default_rng(0)
        n = 8
        A = rng.standard_normal((n, n))
        A *= 0.5 / np.linalg.norm(A, 2)
        b = rng.standard_normal(n)
        exact = np.linalg.solve(np.eye(n) - A, b)
        calls = []
        grid, tgrid = _flat(n)
        g, aux, history, converged = anderson(
            _affine(A, b, calls), np.zeros((2, n)), grid, tgrid, 1e-10, 50
        )
        assert converged
        assert aux == len(calls) == len(history)
        assert history[-1] <= 1e-10 < history[-2]
        # |g - x*| <= |A| |(I - A)^-1| |g - x| <= 1e-10 |g| for |A| = 1/2
        assert np.linalg.norm(g[1] - exact) <= 2e-10 * np.linalg.norm(exact)

    def test_mixing_converges_where_plain_iteration_diverges(self):
        # spectral radius 1.5: the plain iteration blows up, while mixing over
        # a window >= n acts as GMRES on (I - A) x = b and is exact after n
        # differences
        S = np.array([[1.0, 0.2, -0.1], [0.3, 1.0, 0.2], [-0.2, 0.1, 1.0]])
        A = S @ np.diag([1.5, -0.5, 0.3]) @ np.linalg.inv(S)
        b = np.array([1.0, -2.0, 0.5])
        assert ANDERSON_DEPTH >= 3
        x = np.zeros(3)
        for _ in range(30):
            x = A @ x + b
        assert np.linalg.norm(x) > 1e4
        calls = []
        grid, tgrid = _flat(3)
        g, _, history, converged = anderson(
            _affine(A, b, calls), np.zeros((2, 3)), grid, tgrid, 1e-10, 5
        )
        assert converged and len(calls) <= 5
        np.testing.assert_allclose(g[1], np.linalg.solve(np.eye(3) - A, b), rtol=1e-9)

    def test_zero_data_stops_at_the_first_evaluation(self):
        calls = []
        grid, tgrid = _flat(4)
        g, _, history, converged = anderson(
            _affine(np.eye(4) * 0.9, np.zeros(4), calls), np.zeros((2, 4)), grid, tgrid, 0.0, 10
        )
        assert converged and history == [0.0] and len(calls) == 1
        assert not g.any()

    @pytest.mark.parametrize("tol, converges", [(0.3, True), (1e-12, False), (0.0, False)])
    def test_converged_is_the_last_residual_against_tol(self, tol, converges):
        # a 6-dimensional map cannot be solved exactly from 3 differences, so
        # the two small tolerances exhaust the cap of 4 evaluations
        rng = np.random.default_rng(3)
        A = 0.6 * np.linalg.qr(rng.standard_normal((6, 6)))[0]
        b = rng.standard_normal(6)
        grid, tgrid = _flat(6)
        calls = []
        _, aux, history, converged = anderson(
            _affine(A, b, calls), np.zeros((2, 6)), grid, tgrid, tol, 4
        )
        assert len(history) == len(calls) == aux
        assert converged == (history[-1] <= tol)
        assert all(r > tol for r in history[:-1])
        assert converged is converges
        assert converged or len(history) == 4


def _state_families(nl, z):
    """(F1, F2): the averaged reaction and advection of the roster at z."""
    c = coefficients_from_state(nl, z)
    return c.f0, c.f_adv


class TestIntegralCoefficients:
    def test_linear_reaction_is_reproduced(self):
        problem = make_problem(cells=16, steps=32)
        nl = nonlinearity_preset("linear-f", c1=0.7, c2=0.2)
        z = _random_traj(problem, seed=1)
        F1, F2 = _state_families(nl, z)
        assert np.allclose(F1, 0.7, atol=1e-14)
        assert np.allclose(F2, 0.2, atol=1e-14)

    def test_cubic_reaction_average(self):
        # f = y^3 has f_y = 3y^2, so the s-average is exactly z^2
        problem = make_problem(cells=16, steps=32)
        nl = nonlinearity_preset("cubic-f", c=1.0)
        z = _random_traj(problem, seed=2)
        F1, F2 = _state_families(nl, z)
        np.testing.assert_allclose(F1, z.values**2, rtol=1e-12, atol=1e-14)
        assert np.abs(F2).max() == 0.0

    def test_secant_identity(self):
        # F1 z + F2 . grad z = f(z, grad z) whenever f(0, 0) = 0
        problem = make_problem(cells=16, steps=32)
        for name, params in (
            ("mild-quasilinear", {"q": 0.05, "c": 0.4}),
            ("burgers-f", {"c": 0.3}),
            ("cubic-f", {"c": 0.8}),
        ):
            nl = nonlinearity_preset(name, **params)
            z = _random_traj(problem, seed=3)
            gz = gradient(z.grid, z.values)
            F1, F2 = _state_families(nl, z)
            lhs = F1 * z.values + (F2 * gz).sum(axis=-1)
            rhs = nl.f(z.values, gz)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-13)

    def test_linearize_at_rest_is_constant_roster(self):
        problem = make_problem(cells=16, steps=32)
        zeros = SpaceTimeField(
            problem.grid,
            problem.tgrid,
            np.zeros((problem.tgrid.n_slices, problem.grid.n_nodes)),
        )
        ctx = linearize_at(problem, zeros)
        assert np.all(ctx.c.b == 1.0)
        assert ctx.c.f0 is None or np.abs(ctx.c.f0).max() == 0.0
        assert ctx.c.f_adv is None or np.abs(ctx.c.f_adv).max() == 0.0


class TestOuterLoop:
    def test_linear_dynamics_fixed_in_one_step(self):
        # with linear dynamics the relinearized pass reproduces the control
        # bit for bit and the update collapses to zero
        problem = make_problem(cells=16, steps=32)
        one = solve_hierarchic(problem, 1e-2, max_outer=1, seed=5)
        two = solve_hierarchic(problem, 1e-2, max_outer=2, seed=5)
        assert np.array_equal(one.u.values, two.u.values)
        assert two.converged
        assert two.iterations == 2
        assert two.update_norms[1] == 0.0
        # one evaluation has no ratio; the exact second residual gives 0
        assert np.isnan(one.outer_contraction)
        assert two.outer_contraction == 0.0

    def test_zero_data_means_zero_control(self):
        problem = make_problem(cells=16, steps=32, y0_amp=0.0, target_amp=0.0)
        report = solve_hierarchic(problem, 1e-2)
        assert report.converged
        assert report.iterations == 1
        assert np.abs(report.u.values).max() == 0.0
        assert report.terminal_norm == 0.0

    def test_mild_quasilinear_contracts(self):
        problem = make_problem(
            cells=16,
            steps=32,
            preset="mild-quasilinear",
            params={"q": 0.05, "c": 0.1},
            y0_amp=0.1,
            target_amp=0.0,
        )
        report = solve_hierarchic(problem, 1e-2, seed=7)
        assert report.converged
        assert report.iterations <= 6
        if len(report.update_norms) >= 2:
            assert report.update_norms[-1] < 0.5 * report.update_norms[0]
        assert 0.0 < report.outer_contraction < 1.0
        assert report.terminal_norm <= 3.0 * max(report.linearized_terminal_norm, 1e-300)
        assert report.nash is not None
        # the Nash loop's contraction leaves out the consistency pass; the
        # warm-started loop may evaluate once, where it is NaN
        nash = report.nash
        loop = list(nash.residuals[: nash.picard_iterations])
        assert len(nash.residuals) == len(loop) + 1
        np.testing.assert_equal(nash.picard_contraction, contraction(loop))
        # from v = 0 the loop evaluates more than once and contracts
        cold = compute_nash(problem, u=report.u)
        cold_loop = list(cold.residuals[: cold.picard_iterations])
        assert 0.0 < cold.picard_contraction == contraction(cold_loop) < 1.0
        r1, r2 = report.nash.first_order_residuals
        assert r1 < 1e-6 and r2 < 1e-6

    def test_weights_sampled_once_per_solve(self, monkeypatch):
        # every linearization reads the one weight object's cached fields:
        # the per-time formula runs once, not once per outer iteration
        from hiercontrol import weights

        calls = []

        def spy(*args, _orig=weights.eval_weights):
            calls.append(1)
            return _orig(*args)

        monkeypatch.setattr(weights, "eval_weights", spy)
        problem = make_problem(
            cells=16, steps=32, preset="mild-quasilinear",
            params={"q": 0.05, "c": 0.1}, y0_amp=0.1, target_amp=0.0,
        )
        report = solve_hierarchic(problem, 1e-2, seed=7)
        assert report.iterations >= 2
        assert len(calls) == 1

    def test_report_carries_solutions(self):
        problem = make_problem(cells=16, steps=32)
        report = solve_hierarchic(problem, 1e-2)
        assert report.epsilon == 1e-2
        assert report.leader.epsilon == 1e-2
        assert report.nash is not None
        assert report.nash.v1 is not None and report.nash.v2 is not None
        assert len(report.update_norms) == report.iterations

    def test_large_data_warns(self):
        problem = make_problem(cells=16, steps=32, y0_amp=1.5)
        with pytest.warns(UserWarning) as rec:
            solve_hierarchic(problem, 1e-2, max_outer=3)
        messages = [str(w.message) for w in rec]
        assert any("budget" in m for m in messages)
        assert any("unit ball" in m for m in messages)


def _relative_gap(a, b):
    return float(np.abs(a.values - b.values).max() / np.abs(b.values).max())


class TestWarmFinalization:
    """The finalization starts the Nash loop from the follower pair of the
    last linearization and reaches the equilibrium of a cold start."""

    def _solve(self, monkeypatch, max_outer=None):
        s = load_scenario(scenario_path("mild_quasilinear"))
        problem, tol = s.build_problem(), dict(s.tolerances)
        # count quasi-linear marches and sensitivity factor sets made under
        # the finalization's compute_nash
        seen = {"marches": 0, "factors": 0}
        inside = []
        for name, key in (("solve_forward_quasilinear", "marches"), ("sensitivity_factors", "factors")):
            def counted(*args, _orig=getattr(nash, name), _key=key, **kwargs):
                seen[_key] += bool(inside)
                return _orig(*args, **kwargs)

            monkeypatch.setattr(nash, name, counted)

        def finalization(*args, _orig=fixedpoint.compute_nash, **kwargs):
            inside.append(True)
            try:
                return _orig(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(fixedpoint, "compute_nash", finalization)
        report = solve_hierarchic(
            problem, s.epsilon, outer_tol=tol["outer_tol"],
            max_outer=tol["max_outer"] if max_outer is None else max_outer,
            cg_tol=tol["cg_tol"], nash_tol=tol["nash_tol"], seed=s.seed,
        )
        cold = compute_nash(problem, u=report.u, tol=tol["nash_tol"])
        return report, cold, seen

    @pytest.mark.parametrize("max_outer", [None, 1])
    def test_equals_the_cold_equilibrium(self, monkeypatch, max_outer):
        # max_outer = 1 starts from the uncontrolled linearization, far from
        # converged
        report, cold, seen = self._solve(monkeypatch, max_outer)
        if max_outer == 1:
            assert report.iterations == 1 and not report.converged
        warm = report.nash
        for mine, ref in ((warm.v1, cold.v1), (warm.v2, cold.v2), (warm.y, cold.y)):
            assert _relative_gap(mine, ref) <= 1e-10
        assert seen["marches"] <= 3 < cold.picard_iterations + 1
        assert max(warm.first_order_residuals) < 1e-9

    def test_one_factor_set_per_evaluation(self, monkeypatch):
        # the start is marched on the last context's factors, so compute_nash
        # builds one set per map evaluation and one for the consistency pass
        report, _, seen = self._solve(monkeypatch)
        assert seen["factors"] == report.nash.picard_iterations + 1
        assert seen["marches"] == report.nash.picard_iterations + 1

    def test_linear_start_is_exact(self):
        # with linear dynamics the follower pair of the coupled system is the
        # equilibrium: the loop stops at its first evaluation
        problem = make_problem(cells=16, steps=32)
        report = solve_hierarchic(problem, 1e-2)
        assert report.nash.picard_iterations == 1
        assert np.isnan(report.nash.picard_contraction)
        cold = compute_nash(problem, u=report.u)
        for mine, ref in ((report.nash.v1, cold.v1), (report.nash.v2, cold.v2)):
            assert _relative_gap(mine, ref) <= 1e-10
