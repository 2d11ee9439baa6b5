"""Penalized-HUM leader step: Gramian structure, reconstruction, limits."""

import dataclasses

import numpy as np
import pytest

from conftest import make_problem, scenario_path
from reference import direct
from hiercontrol import leader
from hiercontrol.errors import NonConvergenceError, ValidationError
from hiercontrol.fixedpoint import linearize_at
from hiercontrol.grids import SpaceTimeField, stepped_norm2
from hiercontrol.scenario import load_scenario
from hiercontrol.leader import (
    GramianContext,
    leader_duality_gap,
    solve_coupled_primal,
    solve_leader,
)


def _zero_traj(problem):
    return SpaceTimeField(
        problem.grid,
        problem.tgrid,
        np.zeros((problem.tgrid.n_slices, problem.grid.n_nodes)),
    )


def _seed(rng, grid):
    v = rng.standard_normal(grid.n_nodes)
    v[grid.boundary] = 0.0
    return v


def _ctx16(**kw):
    problem = make_problem(cells=16, steps=32)
    return linearize_at(problem, _zero_traj(problem), **kw)


@pytest.fixture(scope="module")
def ctx16():
    return _ctx16()


@pytest.fixture(scope="module")
def pic16():
    return _ctx16(picard_tol=1e-13)


def _reference_cg(ctx, eps, cg_tol=1e-8):
    """Textbook CG on (Lambda + eps I) phi_T = -b: the oracle for solve_leader."""
    grid = ctx.grid
    inner = min(ctx.picard_tol, cg_tol / 100.0)
    b = ctx.free_terminal(inner)

    def dot(a, c):
        return float(np.dot(grid.weights * a, c))

    bnorm = np.sqrt(dot(b, b))
    x = np.zeros_like(b)
    r = -b
    p = r.copy()
    rs = dot(r, r)
    residuals = []
    while np.sqrt(rs) / bnorm > cg_tol:
        assert len(residuals) < 400
        Ap = ctx.gramian_apply(p, picard_tol=inner) + eps * p
        alpha = rs / dot(p, Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = dot(r, r)
        residuals.append(np.sqrt(rs_new) / bnorm)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, residuals


class TestGramian:
    def test_symmetry(self, ctx16):
        rng = np.random.default_rng(8)
        w = ctx16.grid.weights
        for _ in range(6):
            a, b = _seed(rng, ctx16.grid), _seed(rng, ctx16.grid)
            la, lb = ctx16.gramian_apply(a), ctx16.gramian_apply(b)
            lhs = float(np.dot(w * la, b))
            rhs = float(np.dot(w * a, lb))
            scale = max(abs(lhs), abs(rhs), 1e-300)
            assert abs(lhs - rhs) / scale < 1e-10

    def test_positive_semidefinite(self, ctx16):
        rng = np.random.default_rng(9)
        w = ctx16.grid.weights
        for _ in range(6):
            a = _seed(rng, ctx16.grid)
            quad = float(np.dot(w * ctx16.gramian_apply(a), a))
            assert quad > -1e-14

    def test_zero_seed_maps_to_zero(self, ctx16):
        out = ctx16.gramian_apply(np.zeros(ctx16.grid.n_nodes))
        assert np.abs(out).max() == 0.0

    def test_free_terminal_is_cached(self, ctx16):
        b1 = ctx16.free_terminal()
        b2 = ctx16.free_terminal()
        assert b1 is b2

    def test_free_terminal_follows_tolerance(self):
        # b is cached under the inner tolerance it was computed at; a call
        # at another tolerance recomputes it
        warm = _ctx16()
        loose = warm.free_terminal(1e-6)
        tight = warm.free_terminal(1e-12)
        fresh = _ctx16().free_terminal(1e-12)
        assert np.array_equal(tight, fresh)
        assert not np.array_equal(loose, fresh)

    def test_application_counter(self, ctx16):
        before = ctx16.gramian_applications
        ctx16.gramian_apply(np.zeros(ctx16.grid.n_nodes))
        assert ctx16.gramian_applications == before + 1


class TestLeaderSolve:
    def test_control_is_weighted_seed(self, ctx16):
        sol = solve_leader(ctx16, 1e-3)
        assert np.array_equal(sol.u.values, ctx16.d * sol.phi.values)
        # the observation weight vanishes at the endpoint slices, so u does too
        assert np.abs(sol.u.values[0]).max() == 0.0
        assert np.abs(sol.u.values[-1]).max() == 0.0

    def test_terminal_defect_and_penalty_bound(self, ctx16):
        sol = solve_leader(ctx16, 1e-3, cg_tol=1e-8)
        assert sol.converged
        assert sol.terminal_defect < 1e-8
        # the residual the CG stop bounds, relative to |b|
        assert sol.terminal_residual <= 1.01e-8
        assert sol.control_effect == sol.terminal_norm / sol.free_terminal_norm < 1.0
        assert sol.terminal_norm**2 <= 2.0 * sol.epsilon * sol.J_eps_value * (1 + 1e-12)
        assert sol.J_eps_value <= sol.J_eps_zero * (1 + 1e-12)

    def test_terminal_monotone_in_epsilon(self, ctx16):
        loose = solve_leader(ctx16, 1e-2)
        tight = solve_leader(ctx16, 1e-3)
        assert tight.terminal_norm <= loose.terminal_norm * (1 + 1e-12)

    def test_huge_penalty_recovers_free_dynamics(self, ctx16):
        sol = solve_leader(ctx16, 1e6)
        assert np.sqrt(
            stepped_norm2(ctx16.grid, ctx16.tgrid, sol.u.values)
        ) < 1e-6 * max(sol.free_terminal_norm, 1.0)
        assert sol.terminal_norm == pytest.approx(sol.free_terminal_norm, rel=1e-6)

    def test_duality_gap_small(self, ctx16):
        sol = solve_leader(ctx16, 1e-3)
        assert leader_duality_gap(ctx16, sol) < 1e-10

    def test_controlled_vs_free_consistency(self, ctx16):
        # re-running the coupled primal at the reported control reproduces y
        sol = solve_leader(ctx16, 1e-3)
        y, _, _ = solve_coupled_primal(ctx16, sol.u)
        np.testing.assert_allclose(y.values, sol.y.values, rtol=1e-11, atol=1e-300)

    def test_epsilon_validation(self, ctx16):
        with pytest.raises(ValidationError, match="epsilon"):
            solve_leader(ctx16, 0.0)

    def test_cg_budget_enforced(self, ctx16):
        with pytest.raises(NonConvergenceError) as exc:
            solve_leader(ctx16, 1e-3, cg_max=1, cg_tol=1e-14)
        assert len(exc.value.history) >= 1


class TestKrylovBasis:
    # The Picard engine applies Lambda only to its inner tolerance, so CG
    # and the Lanczos form, which apply it to different vectors, can differ
    # by rounding-level amounts once the residual nears that floor (seen:
    # 3.8859e-13 against 3.8851e-13, 8e-17 apart); hence the absolute floor
    # of 1e-15 |b| there, seven decades below cg_tol.
    @pytest.mark.parametrize("which,floor", [("ctx16", 0.0), ("pic16", 1e-15)])
    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_matches_reference_cg(self, request, which, floor, eps):
        ctx = request.getfixturevalue(which)
        x_ref, res_ref = _reference_cg(ctx, eps)
        sol = solve_leader(ctx, eps)
        assert len(sol.cg_residuals) == len(res_ref)
        np.testing.assert_allclose(sol.cg_residuals, res_ref, rtol=1e-6, atol=floor)
        err = np.linalg.norm(sol.phi_T - x_ref) / np.linalg.norm(x_ref)
        assert err < 1e-9

    def test_matches_reference_cg_at_small_epsilon(self, pic16):
        # CG and the Lanczos form apply Lambda to vectors of different
        # norms; a sweep stop relative to its input makes them agree to rounding
        x_ref, _ = _reference_cg(pic16, 1e-6)
        sol = solve_leader(pic16, 1e-6)
        assert np.linalg.norm(sol.phi_T - x_ref) / np.linalg.norm(x_ref) < 1e-12

    # "monolithic" runs the same Krylov machinery on the direct LU oracle
    @pytest.mark.parametrize("engine", ["monolithic", "picard"])
    def test_warm_sweep_is_bit_identical_to_cold(self, engine):
        build = (lambda: direct(_ctx16())) if engine == "monolithic" else _ctx16
        warm = build()
        sweep = []
        for eps in (1e-2, 1e-3, 1e-4):
            sol = solve_leader(warm, eps)
            cold_ctx = build()
            cold = solve_leader(cold_ctx, eps)
            for name in ("phi_T", "u", "y"):
                a, b = getattr(sol, name), getattr(cold, name)
                a, b = getattr(a, "values", a), getattr(b, "values", b)
                assert np.array_equal(a, b), name
            assert sol.cg_residuals == cold.cg_residuals
            assert cold.cg_iterations == cold_ctx.gramian_applications
            sweep.append((sol.cg_iterations, cold.cg_iterations))
        # the sweep pays for its hardest epsilon, not for every epsilon
        assert sum(w for w, _ in sweep) == warm.gramian_applications
        assert warm.gramian_applications == sweep[-1][1] == max(c for _, c in sweep)
        assert warm.gramian_applications < sum(c for _, c in sweep)

    def test_ritz_values_bracket_rayleigh_quotient(self, ctx16):
        sol = solve_leader(ctx16, 1e-3)
        b = ctx16.free_terminal()
        w = ctx16.grid.weights
        rq = float(np.dot(w * ctx16.gramian_apply(b), b)) / float(np.dot(w * b, b))
        assert sol.ritz_max >= rq * (1 - 1e-12)
        assert sol.ritz_min >= -1e-12 * sol.ritz_max
        assert sol.eps_over_ritz_max == sol.epsilon / sol.ritz_max


class TestEngines:
    # The sweep against the direct oracle: the same context machinery with
    # K and K^T solved by a sparse LU of the block-assembled matrix.
    # nu_k = 0 zeroes the coupling of y into p_k, and of lambda_k into phi in
    # the transposed system: the blocks the sweep skips
    @pytest.mark.parametrize(
        "nu", [(1.0, 1.0), (0.0, 1.0), (0.0, 0.0)], ids=["coupled", "nu1-off", "decoupled"]
    )
    def test_picard_matches_monolithic(self, nu):
        problem = make_problem(cells=16, steps=32, nu=nu)
        pic = linearize_at(problem, _zero_traj(problem), picard_tol=1e-13)
        mono = direct(pic)

        np.testing.assert_allclose(
            pic.free_terminal(), mono.free_terminal(), rtol=1e-8, atol=1e-14
        )
        sol_m = solve_leader(mono, 1e-3)
        sol_p = solve_leader(pic, 1e-3)
        scale = max(np.abs(sol_m.u.values).max(), 1e-300)
        assert np.abs(sol_m.u.values - sol_p.u.values).max() / scale < 1e-8
        assert sol_p.terminal_norm == pytest.approx(sol_m.terminal_norm, rel=1e-6)

        phi_T = _seed(np.random.default_rng(5), problem.grid)
        names = ("phi", "theta1", "theta2")
        for name, a, b in zip(names, mono.solve_transposed(phi_T), pic.solve_transposed(phi_T)):
            scale = max(np.abs(a).max(), 1e-300)
            assert np.abs(a - b).max() / scale < 1e-8, name
            assert b[0].any() == (name == "phi"), name

    def test_engines_agree_at_weak_follower_cost(self):
        s = load_scenario(scenario_path("heat_lq_16x32"))
        problem = dataclasses.replace(s.build_problem(), mu=(0.01, 0.01))
        weights = s.build_carleman_weights(problem)
        z = _zero_traj(problem)  # heat: the linearization does not depend on z
        pic = linearize_at(problem, z, weights=weights)
        mono = direct(pic)
        sol_m = solve_leader(mono, 1e-6)
        sol_p = solve_leader(pic, 1e-6)
        assert sol_p.terminal_norm == pytest.approx(sol_m.terminal_norm, rel=1e-8)
        scale = np.abs(sol_m.u.values).max()
        assert np.abs(sol_m.u.values - sol_p.u.values).max() / scale < 1e-8

    def test_requested_engine_is_kept(self, monkeypatch):
        # a sweep that cannot converge raises; nothing falls back to another
        # engine or returns the last sweep
        problem = make_problem(cells=16, steps=32)
        ctx = linearize_at(problem, _zero_traj(problem), picard_tol=0.0)
        monkeypatch.setattr(leader, "PICARD_MAX", 3)
        with pytest.raises(NonConvergenceError):
            ctx.solve_primal(None, problem.y0.values, tuple(t.values for t in problem.targets))
        with pytest.raises(NonConvergenceError):
            ctx.solve_transposed(problem.y0.values)

    def test_sweep_stop_does_not_depend_on_input_scale(self, monkeypatch):
        # the stop is relative to the lead block, so a scaled seed takes the
        # same sweeps (one lead march_adjoint each) and gives the scaled answer
        problem = make_problem(cells=16, steps=32)
        ctx = linearize_at(problem, _zero_traj(problem))
        phi_T = _seed(np.random.default_rng(11), problem.grid)
        marches = []
        march = leader.march_adjoint

        def counted(*args, **kwargs):
            marches.append(1)
            return march(*args, **kwargs)

        monkeypatch.setattr(leader, "march_adjoint", counted)
        unit = ctx.solve_transposed(phi_T)
        n_unit = len(marches)
        tiny = ctx.solve_transposed(1e-6 * phi_T)
        assert n_unit > 1
        assert len(marches) - n_unit == n_unit
        for name, a, b in zip(("phi", "theta1", "theta2"), unit, tiny):
            scale = 1e-6 * np.abs(a).max()
            assert np.abs(1e-6 * a - b).max() <= 1e-13 * scale, name

    def test_mismatched_weights_rejected(self):
        from hiercontrol.weights import build_weights
        from hiercontrol.grids import build_grid, build_time_grid

        problem = make_problem(cells=16, steps=32)
        other = build_weights(
            build_grid(1, 24), build_time_grid(1.0, 32), problem.focus_box()
        )
        with pytest.raises(ValidationError, match="discretization"):
            linearize_at(problem, _zero_traj(problem), weights=other)
