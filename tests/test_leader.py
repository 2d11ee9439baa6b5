"""Penalized-HUM leader step: Gramian structure, reconstruction, limits."""

import dataclasses

import numpy as np
import pytest

from conftest import make_problem, scenario_path
from reference import direct
from hiercontrol import leader
from hiercontrol.errors import NonConvergenceError, ValidationError
from hiercontrol.fixedpoint import linearize_at
from hiercontrol.grids import SpaceTimeField, stepped_norm2, stepped_pairing
from hiercontrol.nash import coefficients_from_state
from hiercontrol.scenario import load_scenario
from hiercontrol.leader import (
    GramianContext,
    leader_duality_gap,
    solve_leader,
)
from hiercontrol.weights import build_weights, eval_weights


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


def _blocks(res):
    """(phi, theta_1, theta_2) of a transposed response."""
    return (res.phi, *res.thetas())


def _context(problem, **kw):
    """The context linearize_at builds at rest; ``kw`` go to the constructor."""
    weights = build_weights(problem.grid, problem.tgrid, problem.focus_box())
    c = coefficients_from_state(problem.nl, _zero_traj(problem))
    return GramianContext(problem, weights, c, **kw)


def _ctx16(**kw):
    return _context(make_problem(cells=16, steps=32), **kw)


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
    b = ctx.krylov(0, inner).b

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
        Ap = ctx.gramian_apply(p, picard_tol=inner).terminal + eps * p
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
            la, lb = ctx16.gramian_apply(a).terminal, ctx16.gramian_apply(b).terminal
            lhs = float(np.dot(w * la, b))
            rhs = float(np.dot(w * a, lb))
            scale = max(abs(lhs), abs(rhs), 1e-300)
            assert abs(lhs - rhs) / scale < 1e-10

    def test_positive_semidefinite(self, ctx16):
        rng = np.random.default_rng(9)
        w = ctx16.grid.weights
        for _ in range(6):
            a = _seed(rng, ctx16.grid)
            quad = float(np.dot(w * ctx16.gramian_apply(a).terminal, a))
            assert quad > -1e-14

    def test_zero_seed_maps_to_zero(self, ctx16):
        out = ctx16.gramian_apply(np.zeros(ctx16.grid.n_nodes)).terminal
        assert np.abs(out).max() == 0.0

    def test_free_terminal_is_cached(self, ctx16):
        b1 = ctx16.krylov(0).b
        b2 = ctx16.krylov(0).b
        assert b1 is b2

    def test_free_terminal_follows_tolerance(self):
        # b is cached under the inner tolerance it was computed at; a call
        # at another tolerance recomputes it
        warm = _ctx16()
        loose = warm.krylov(0, 1e-6).b
        tight = warm.krylov(0, 1e-12).b
        fresh = _ctx16().krylov(0, 1e-12).b
        assert np.array_equal(tight, fresh)
        assert not np.array_equal(loose, fresh)

    def test_application_counter(self, ctx16):
        before = ctx16.gramian_applications
        ctx16.gramian_apply(np.zeros(ctx16.grid.n_nodes))
        assert ctx16.gramian_applications == before + 1


class TestLeaderSolve:
    def test_control_is_weighted_seed(self, ctx16):
        # u = d phi, phi the transposed response to phi_T solved directly
        sol = solve_leader(ctx16, 1e-3)
        phi = ctx16.solve_transposed(sol.phi_T, leader.inner_tolerance(ctx16, 1e-8)).phi
        want = ctx16.d * phi
        assert np.abs(sol.u.values - want).max() <= 1e-9 * np.abs(want).max()
        # d vanishes off the leader support, so u does exactly
        assert not sol.u.values[:, ctx16.xi0 == 0.0].any()
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
        problem = ctx16.problem
        y = ctx16.solve_primal(ctx16.xi0[None, :] * sol.u.values, data=True)
        np.testing.assert_allclose(y, sol.y.values, rtol=1e-11, atol=1e-300)

    def test_epsilon_validation(self, ctx16):
        for epsilon in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="epsilon"):
                solve_leader(ctx16, epsilon)

    def test_cg_budget_enforced(self, ctx16):
        with pytest.raises(NonConvergenceError) as exc:
            solve_leader(ctx16, 1e-3, cg_max=1, cg_tol=1e-14)
        assert len(exc.value.history) >= 1


def _literal_energy(w, u):
    """tau sum_{m=1..M-1} <exp(-2 lambda nu) beta^-7 u, u>, in log space: the
    inverse weight overflows near the time endpoints, but wherever u
    vanishes the contribution is zero."""
    total = 0.0
    for m in range(1, w.tgrid.steps):
        vals = eval_weights(w, float(w.tgrid.times[m]))
        log_inv = -2.0 * w.lam * vals["nu"] - 7.0 * np.log(vals["beta"])
        um = u[m]
        nz = um != 0.0
        contrib = np.zeros_like(um)
        contrib[nz] = np.exp(log_inv[nz] + 2.0 * np.log(np.abs(um[nz])))
        total += w.tgrid.tau * float(np.dot(w.grid.weights, contrib))
    return total


class TestControlEnergy:
    # u = xi_0 rho_tilde^-2 phi makes the control term tau sum <xi_0 u, phi>
    # of the transposition identity the weighted energy of J_eps
    @pytest.mark.parametrize("name", ["heat_1d", "heat_2d"])
    def test_is_the_literal_weighted_energy(self, name):
        s = load_scenario(scenario_path(name))
        problem = s.build_problem()
        weights = s.build_carleman_weights(problem)
        ctx = linearize_at(problem, _zero_traj(problem), weights=weights)
        sol = solve_leader(ctx, s.epsilon, cg_tol=s.tolerance("cg_tol"))
        assert sol.control_energy > 0.0
        assert sol.control_energy == pytest.approx(
            _literal_energy(weights, sol.u.values), rel=1e-12
        )
        tnorm, eps = sol.terminal_norm, sol.epsilon
        assert sol.J_eps_value == 0.5 * sol.control_energy + 0.5 / eps * tnorm**2
        assert leader_duality_gap(ctx, sol) < 1e-10

    def test_zero_data_has_zero_energy(self):
        # b = 0: no Krylov vector, so u = 0 and the energy is exactly zero
        problem = make_problem(y0_amp=0.0, target_amp=0.0)
        sol = solve_leader(linearize_at(problem, _zero_traj(problem)), 1e-3)
        assert sol.free_terminal_norm == 0.0 and sol.cg_iterations == 0
        assert not sol.u.values.any()
        assert sol.control_energy == 0.0


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

    # "direct" runs the same Krylov machinery on the direct LU oracle
    @pytest.mark.parametrize("engine", ["direct", "picard"])
    def test_warm_sweep_is_bit_identical_to_cold(self, engine):
        build = (lambda: direct(_ctx16())) if engine == "direct" else _ctx16
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
        b = ctx16.krylov(0).b
        w = ctx16.grid.weights
        rq = float(np.dot(w * ctx16.gramian_apply(b).terminal, b)) / float(np.dot(w * b, b))
        assert sol.ritz_max >= rq * (1 - 1e-12)
        assert sol.ritz_min >= -1e-12 * sol.ritz_max
        assert sol.eps_over_ritz_max == sol.epsilon / sol.ritz_max


def _relative_gap(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


class TestReconstruction:
    # the solution is rebuilt from the responses the Krylov basis kept; the
    # direct reconstruction is the two coupled solves at phi_T
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("nu", [(1.0, 1.0), (0.0, 0.0)], ids=["coupled", "decoupled"])
    def test_matches_direct_solves(self, dim, nu):
        size = dict(cells=16, steps=32) if dim == 1 else dict(cells=8, steps=16)
        # a short horizon and a small penalty, so that the leader cancels
        # most of y(T) and the solution combines five or more responses
        problem = make_problem(dim=dim, nu=nu, T=0.1, **size)
        ctx = linearize_at(problem, _zero_traj(problem))
        sol = solve_leader(ctx, 1e-6)
        assert sol.cg_iterations >= 5 and sol.control_effect < 0.1
        tol = leader.inner_tolerance(ctx, 1e-8)
        phi, th1, th2 = _blocks(ctx.solve_transposed(sol.phi_T, tol))
        u = ctx.d * phi
        y = ctx.solve_primal(ctx.xi0[None, :] * u, data=True, picard_tol=tol)
        for name, want in (("u", u), ("y", y)):
            assert _relative_gap(getattr(sol, name).values, want) <= 1e-9, name

        pairings = (
            float(np.dot(problem.grid.weights * problem.y0.values, phi[0])),
            stepped_pairing(problem.grid, problem.tgrid, ctx.xi0[None, :] * u, phi),
            sum(nu_k * stepped_pairing(problem.grid, problem.tgrid,
                                       ctx.xi_star[None, :] * t.values, th)
                for nu_k, t, th in zip(nu, problem.targets, (th1, th2))),
        )
        got = (sol.initial_pairing, sol.control_energy, sol.data_pairing)
        scale = max(map(abs, pairings))
        for name, a, b in zip(("initial", "control", "data"), got, pairings):
            assert abs(a - b) <= 1e-9 * scale, name
        if nu == (0.0, 0.0):
            assert sol.data_pairing == 0.0
        assert leader_duality_gap(ctx, sol) < 1e-10

    def test_sweep_makes_no_coupled_solve_per_epsilon(self, monkeypatch):
        calls = []
        for name in ("solve_primal", "solve_transposed"):
            method = getattr(GramianContext, name)

            def counted(self, *args, _method=method, **kwargs):
                calls.append(1)
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(GramianContext, name, counted)
        ctx = _ctx16()
        sols = [solve_leader(ctx, eps) for eps in (1e-2, 1e-4, 1e-3, 1e-6, 1e-5)]
        assert len(calls) == ctx.coupled_solves == 1 + 2 * ctx.gramian_applications
        assert [s.coupled_solves for s in sols] == [
            2 * s.cg_iterations + (i == 0) for i, s in enumerate(sols)
        ]
        # the easier epsilons after a harder one extend nothing
        assert sols[2].coupled_solves == 0

    def test_no_march_outside_a_coupled_solve(self, monkeypatch):
        # the rebuild combines the responses the basis kept, so under
        # solve_leader every march runs inside solve_primal or solve_transposed
        marches, depth = [], []
        for name in ("march_forward", "march_adjoint"):
            def spied(*args, _march=getattr(leader, name)):
                marches.append(bool(depth))
                return _march(*args)

            monkeypatch.setattr(leader, name, spied)
        for name in ("solve_primal", "solve_transposed"):
            def tracked(self, *args, _method=getattr(GramianContext, name), **kwargs):
                depth.append(1)
                try:
                    return _method(self, *args, **kwargs)
                finally:
                    depth.pop()

            monkeypatch.setattr(GramianContext, name, tracked)
        ctx = _ctx16()
        assert not ctx.decoupled
        del marches[:]
        for eps in (1e-2, 1e-4, 1e-3):
            solve_leader(ctx, eps)
        assert marches and all(marches)


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
        pic = _context(problem, picard_tol=1e-13)
        mono = direct(pic)

        np.testing.assert_allclose(
            pic.krylov(0).b, mono.krylov(0).b, rtol=1e-8, atol=1e-14
        )
        sol_m = solve_leader(mono, 1e-3)
        sol_p = solve_leader(pic, 1e-3)
        scale = max(np.abs(sol_m.u.values).max(), 1e-300)
        assert np.abs(sol_m.u.values - sol_p.u.values).max() / scale < 1e-8
        assert sol_p.terminal_norm == pytest.approx(sol_m.terminal_norm, rel=1e-6)

        phi_T = _seed(np.random.default_rng(5), problem.grid)
        names = ("phi", "theta1", "theta2")
        pairs = zip(names, _blocks(mono.solve_transposed(phi_T)),
                    _blocks(pic.solve_transposed(phi_T)))
        for name, a, b in pairs:
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
        ctx = _context(problem, picard_tol=0.0)
        monkeypatch.setattr(leader, "PICARD_MAX", 3)
        with pytest.raises(NonConvergenceError):
            ctx.solve_primal(None, data=True)
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
        unit = _blocks(ctx.solve_transposed(phi_T))
        n_unit = len(marches)
        tiny = _blocks(ctx.solve_transposed(1e-6 * phi_T))
        assert n_unit > 1
        assert len(marches) - n_unit == n_unit
        for name, a, b in zip(("phi", "theta1", "theta2"), unit, tiny):
            scale = 1e-6 * np.abs(a).max()
            assert np.abs(1e-6 * a - b).max() <= 1e-13 * scale, name

    def test_mismatched_weights_rejected(self):
        from hiercontrol.grids import build_grid, build_time_grid

        problem = make_problem(cells=16, steps=32)
        other = build_weights(
            build_grid(1, 24), build_time_grid(1.0, 32), problem.focus_box()
        )
        with pytest.raises(ValidationError, match="discretization"):
            linearize_at(problem, _zero_traj(problem), weights=other)


class TestSweeps:
    def test_sweeps_count_the_anderson_evaluations(self, monkeypatch):
        evaluations = []
        run = leader.anderson

        def spied(phi, *args):
            def counted(x):
                evaluations.append(1)
                return phi(x)

            return run(counted, *args)

        monkeypatch.setattr(leader, "anderson", spied)
        ctx = _ctx16()
        sols = [solve_leader(ctx, eps) for eps in (1e-2, 1e-4, 1e-3)]
        assert ctx.sweeps == len(evaluations) == sum(s.sweeps for s in sols)
        assert sols[0].sweeps > sols[0].coupled_solves
        # an easier epsilon after a harder one sweeps nothing
        assert sols[2].sweeps == 0 and np.isnan(sols[2].sweep_contraction)

    @pytest.mark.parametrize("name", ["heat_1d", "heat_2d"])
    def test_sweeps_contract(self, name):
        s = load_scenario(scenario_path(name))
        problem = s.build_problem()
        weights = s.build_carleman_weights(problem)
        ctx = linearize_at(problem, _zero_traj(problem), weights=weights)
        sol = solve_leader(ctx, s.epsilon, cg_tol=s.tolerance("cg_tol"))
        assert sol.sweeps > sol.coupled_solves
        assert 0.0 < sol.sweep_contraction < 1.0

    def test_decoupled_context_does_not_sweep(self):
        problem = make_problem(cells=16, steps=32, nu=(0.0, 0.0))
        ctx = linearize_at(problem, _zero_traj(problem))
        sol = solve_leader(ctx, 1e-3)
        assert sol.coupled_solves > 0
        assert ctx.sweeps == sol.sweeps == 0 and np.isnan(sol.sweep_contraction)

    def test_sweeps_march_one_column(self, monkeypatch):
        # both follower blocks reach the lead block through one response w,
        # so every march of a sweep carries one column; the stacked marches
        # are the target responses, when the context is built, and the
        # theta_k of a transposed response, when a caller reads them
        marches = []  # (inside a sweep, columns)
        depth = []
        for name in ("march_forward", "march_adjoint"):
            def spied(factors, seed, sources, _march=getattr(leader, name)):
                marches.append((bool(depth), 1 if seed.ndim == 1 else seed.shape[0]))
                return _march(factors, seed, sources)

            monkeypatch.setattr(leader, name, spied)
        sweep = GramianContext._sweep

        def tracked(self, *args):
            depth.append(1)
            try:
                return sweep(self, *args)
            finally:
                depth.pop()

        monkeypatch.setattr(GramianContext, "_sweep", tracked)
        ctx = _ctx16()
        assert marches == [(False, 2)]
        del marches[:]
        for eps in (1e-2, 1e-4):
            solve_leader(ctx, eps)
        assert sum(inside for inside, _ in marches) > 2 * ctx.coupled_solves
        assert {columns for _, columns in marches} == {1}
        res = ctx.solve_transposed(_seed(np.random.default_rng(3), ctx.grid))
        del marches[:]
        res.thetas()
        assert marches == [(False, 2)]
