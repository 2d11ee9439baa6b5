"""Follower equilibrium: stationarity, convexity, limits, validation."""

import dataclasses

import numpy as np
import pytest

from conftest import make_problem, scenario_path
from hiercontrol.errors import ValidationError
from hiercontrol.fixedpoint import linearize_at
from hiercontrol.grids import SpaceTimeField, gradient, stepped_norm2, stepped_pairing
from hiercontrol.nash import (
    coefficients_from_state,
    compute_nash,
    evaluate_cost,
    fd_gateaux_residual,
    random_directions,
    with_first_order_residuals,
)
from hiercontrol.scenario import load_scenario
from hiercontrol.solvers import solve_forward_quasilinear, state_slices
from hiercontrol.verification import oracle_nash_gap


@pytest.fixture(scope="module")
def eq_small():
    problem = make_problem(cells=16, steps=32)
    return problem, compute_nash(problem)


class TestEquilibrium:
    def test_converges_with_record(self, eq_small):
        _, sol = eq_small
        assert sol.converged
        assert sol.picard_iterations >= 1
        assert len(sol.residuals) == sol.picard_iterations + 1
        assert sol.final_update_norm < 1e-10

    def test_characterization_nodewise(self, eq_small):
        # mu_k v_k = xi_k p_k at every node and slice >= 1
        problem, sol = eq_small
        for k, (v, p) in enumerate(((sol.v1, sol.p1), (sol.v2, sol.p2)), start=1):
            lhs = problem.mu[k - 1] * v.values[1:]
            rhs = problem.xi(f"follower{k}")[None, :] * p.values[1:]
            scale = max(np.abs(rhs).max(), 1e-300)
            assert np.abs(lhs - rhs).max() / scale < 1e-8

    def test_controls_supported_on_their_regions(self, eq_small):
        problem, sol = eq_small
        for k, v in ((1, sol.v1), (2, sol.v2)):
            outside = ~problem.follower_mask(k)
            assert np.abs(v.values[:, outside]).max() == 0.0

    def test_costs_match_reevaluation(self, eq_small):
        problem, sol = eq_small
        again = evaluate_cost(problem, None, sol.v1, sol.v2, state=sol.y)
        for key, val in sol.costs.items():
            assert again[key] == pytest.approx(val, rel=1e-12, abs=1e-300)

    def test_first_order_residuals_attach(self, eq_small):
        problem, sol = eq_small
        assert sol.first_order_residuals is None
        checked = with_first_order_residuals(problem, sol, seed=1)
        r1, r2 = checked.first_order_residuals
        assert r1 < 1e-10 and r2 < 1e-10
        assert sol.first_order_residuals is None  # original untouched

    def test_fd_derivative_agrees(self, eq_small):
        problem, sol = eq_small
        fd = fd_gateaux_residual(problem, None, sol, n_dirs=2, eps=1e-4, seed=3)
        assert fd["follower1"] < 1e-6
        assert fd["follower2"] < 1e-6

    def test_deviations_raise_the_cost(self, eq_small):
        # each cost is strictly convex in its own control: any step away
        # from the equilibrium costs at least (mu_k/2) t^2
        problem, sol = eq_small
        for k, base in ((1, sol.v1), (2, sol.v2)):
            other = sol.v2 if k == 1 else sol.v1
            j_eq = sol.costs[f"J{k}"]
            for t in (1e-2, -1e-2):
                for w in random_directions(problem, k, 2, seed=40 + k):
                    vk = SpaceTimeField(problem.grid, problem.tgrid, base.values + t * w)
                    pair = (vk, other) if k == 1 else (other, vk)
                    j = evaluate_cost(problem, None, pair[0], pair[1], k=k)
                    assert j - j_eq > 0.4 * problem.mu[k - 1] * t * t


def _uncontrolled(problem):
    return solve_forward_quasilinear(problem.nl, problem.grid, problem.tgrid, problem.y0)


class TestLinearization:
    def test_one_linearization_evaluates_each_callback_once(self):
        # linearize_at takes the whole roster from one coefficients_from_state:
        # a, a_y, a_z once at (z, grad z); f_y and f_z there and at 8 quadrature nodes
        problem = load_scenario(scenario_path("mild_quasilinear")).build_problem()
        z = _uncontrolled(problem)
        calls = dict.fromkeys(("a", "a_y", "a_z", "f", "f_y", "f_z"), 0)

        def counted(key):
            fn = getattr(problem.nl, key)

            def callback(s, eta):
                calls[key] += 1
                return fn(s, eta)
            return callback

        nl = dataclasses.replace(problem.nl, **{key: counted(key) for key in calls})
        calls.update(dict.fromkeys(calls, 0))   # construction probes every callback
        ctx = linearize_at(dataclasses.replace(problem, nl=nl), z)
        assert calls == {"a": 1, "a_y": 1, "a_z": 1, "f": 0, "f_y": 9, "f_z": 9}
        assert np.array_equal(ctx.c.b, problem.nl.a(z.values, gradient(problem.grid, z.values)))

    def test_heat_state_side_is_the_bare_diffusion(self):
        # no lower-order terms: the state slices equal those of the diffusion alone
        problem = make_problem(cells=16, steps=32)
        c = coefficients_from_state(problem.nl, _uncontrolled(problem))
        assert np.abs(c.f0).max() == 0.0 and np.abs(c.f_adv).max() == 0.0
        bare = dataclasses.replace(c, b=c.B, f_adv=None, f0=None)
        (diag, offdiag), (bare_diag, bare_offdiag) = state_slices(c), state_slices(bare)
        assert np.array_equal(diag, bare_diag)
        assert np.array_equal(offdiag, bare_offdiag)

    def test_gradient_dependent_diffusion_refused_in_2d(self):
        problem = make_problem(cells=8, steps=16, dim=2, preset="gradient-diffusion")
        with pytest.raises(ValidationError, match="one dimension"):
            coefficients_from_state(problem.nl, _uncontrolled(problem))


class TestLimits:
    def test_expensive_controls_decouple(self):
        problem = make_problem(cells=16, steps=32, mu=(1e12, 1e12))
        sol = compute_nash(problem)
        for v in (sol.v1, sol.v2):
            assert np.sqrt(stepped_norm2(problem.grid, problem.tgrid, v.values)) < 1e-9
        free = solve_forward_quasilinear(
            problem.nl, problem.grid, problem.tgrid, problem.y0
        )
        assert np.abs(sol.y.values - free.values).max() < 1e-9

    def test_cheap_controls_converge(self):
        # at mu = 3e-4 the plain iteration diverges; the mixed one converges
        # within NASH_MAX_ITER onto the stacked-KKT equilibrium
        problem = make_problem(cells=16, steps=32, mu=(3e-4, 3e-4))
        sol = compute_nash(problem)
        assert sol.converged
        assert oracle_nash_gap(problem, sol).worst_relative_gap <= 1e-6

    def test_zero_tracking_weights_give_zero_controls(self):
        problem = make_problem(cells=16, steps=32, nu=(0.0, 0.0))
        sol = compute_nash(problem)
        assert np.abs(sol.v1.values).max() == 0.0
        assert np.abs(sol.v2.values).max() == 0.0
        assert sol.picard_iterations == 1

    def test_cost_parts_zero_controls(self):
        problem = make_problem(cells=16, steps=32)
        zeros = SpaceTimeField(
            problem.grid,
            problem.tgrid,
            np.zeros((problem.tgrid.n_slices, problem.grid.n_nodes)),
        )
        parts = evaluate_cost(problem, None, zeros, zeros)
        free = solve_forward_quasilinear(problem.nl, problem.grid, problem.tgrid, problem.y0)
        xi_star = problem.xi("tracking")
        for k in (1, 2):
            assert parts[f"control{k}"] == 0.0
            diff = free.values - problem.targets[k - 1].values
            expected = 0.5 * problem.nu[k - 1] * stepped_pairing(
                problem.grid, problem.tgrid, xi_star[None, :] * diff, diff
            )
            assert parts[f"tracking{k}"] == pytest.approx(expected, rel=1e-12)
            assert parts[f"J{k}"] == parts[f"control{k}"] + parts[f"tracking{k}"]

    def test_scalar_cost_matches_dict(self, eq_small):
        problem, sol = eq_small
        parts = evaluate_cost(problem, None, sol.v1, sol.v2, state=sol.y)
        j1 = evaluate_cost(problem, None, sol.v1, sol.v2, k=1, state=sol.y)
        assert j1 == parts["J1"]


class TestGeometry:
    def test_focus_box_is_plateau_intersection(self):
        problem = make_problem(cells=16, steps=32)
        assert problem.focus_box() == ((0.5, 0.6),)

    def test_follower_masks_disjoint(self):
        problem = make_problem(cells=16, steps=32)
        m1, m2 = problem.follower_mask(1), problem.follower_mask(2)
        assert not np.any(m1 & m2)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_follower_mask_is_the_stored_read_only_outer_mask(self, dim):
        problem = make_problem(dim=dim, cells=16, steps=32)
        for k in (1, 2):
            cutoff = problem.cutoffs[f"follower{k}"]
            mask = problem.follower_mask(k)
            assert mask is cutoff.outer_mask
            for m in (cutoff.inner_mask, cutoff.outer_mask):
                assert not m.flags.writeable
                with pytest.raises(ValueError):
                    m[0] = True


class TestValidation:
    def test_nonpositive_mu(self):
        problem = make_problem(cells=16, steps=32)
        with pytest.raises(ValidationError, match="mu"):
            dataclasses.replace(problem, mu=(0.0, 1.0))

    def test_negative_nu(self):
        problem = make_problem(cells=16, steps=32)
        with pytest.raises(ValidationError, match="nu"):
            dataclasses.replace(problem, nu=(-1.0, 1.0))

    def test_missing_cutoff(self):
        problem = make_problem(cells=16, steps=32)
        crippled = {k: v for k, v in problem.cutoffs.items() if k != "tracking"}
        with pytest.raises(ValidationError, match="tracking"):
            dataclasses.replace(problem, cutoffs=crippled)

    def test_target_on_wrong_clock(self):
        from hiercontrol.grids import build_time_grid

        problem = make_problem(cells=16, steps=32)
        short = build_time_grid(problem.tgrid.T, 16)
        bad = SpaceTimeField(
            problem.grid, short, np.zeros((short.n_slices, problem.grid.n_nodes))
        )
        with pytest.raises(ValidationError, match="target"):
            dataclasses.replace(problem, targets=(bad, problem.targets[1]))
