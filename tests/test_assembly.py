"""Slice-pattern assembly against the flux-form composition it replaces.

The reference functions in ``reference`` build every matrix the way the
solvers did before the slice pattern existed: assemble_divergence_operator
plus gradient_matrices products, restricted to interior rows and columns,
and the space-time matrix block by block.  The pattern fill must reproduce
the slices bit for bit, and the coupled sweep must solve the block-assembled
space-time system.
"""

import itertools

import numpy as np
import pytest

from conftest import make_problem
from reference import DirectContext, reference_slice
from hiercontrol.errors import BlowUpError
from hiercontrol.fixedpoint import linearize_at
from hiercontrol.grids import (
    Field,
    build_grid,
    build_time_grid,
    slice_pattern,
    space_inner,
    stepped_pairing,
)
from hiercontrol.leader import GramianContext, leader_duality_gap, solve_leader
from hiercontrol.solvers import (
    LinearCoefficients,
    constant_coefficients,
    march_adjoint,
    march_forward,
    nonlinearity_preset,
    sensitivity_factors,
    slice_operator,
    solve_forward_linear,
    solve_forward_quasilinear,
    state_factors,
    state_slices,
)
from hiercontrol.weights import build_weights


def _random_roster(rng, grid, tgrid, diagonal_B=False):
    M1, n, dim = tgrid.n_slices, grid.n_nodes, grid.dim
    return LinearCoefficients(
        grid=grid,
        tgrid=tgrid,
        b=rng.uniform(0.5, 2.0, (M1, n)),
        f_adv=rng.standard_normal((M1, n, dim)),
        f0=rng.standard_normal((M1, n)),
        B=rng.uniform(0.5, 2.0, (M1, n, dim) if diagonal_B else (M1, n)),
        g=rng.standard_normal((M1, n, dim)),
        g0=rng.standard_normal((M1, n)),
    )


class TestSliceFill:
    @pytest.mark.parametrize("dim,cells", [(1, 12), (2, 9)])
    @pytest.mark.parametrize("terms", list(itertools.product((False, True), repeat=4)))
    def test_matches_flux_form_composition(self, dim, cells, terms):
        grid = build_grid(dim, cells)
        n = grid.n_nodes
        rng = np.random.default_rng(sum(terms) + 10 * dim)
        has_b, has_adv, has_div, has_f0 = terms
        kw = dict(
            b=rng.uniform(0.5, 2.0, n) if has_b else None,
            f_adv=rng.standard_normal((n, dim)) if has_adv else None,
            f_div=rng.standard_normal((n, dim)) if has_div else None,
            f0=rng.standard_normal(n) if has_f0 else None,
        )
        tau = 0.0137
        pat = slice_pattern(grid)
        data = slice_operator(grid, tau, **kw)
        ref = reference_slice(grid, tau, **kw).toarray()
        assert np.array_equal(pat.csr(data).toarray(), ref)

    def test_diagonal_diffusion_matches(self):
        grid = build_grid(2, 9)
        b = np.random.default_rng(4).uniform(0.5, 2.0, (grid.n_nodes, 2))
        pat = slice_pattern(grid)
        ref = reference_slice(grid, 0.01, b=b).toarray()
        assert np.array_equal(pat.csr(slice_operator(grid, 0.01, b=b)).toarray(), ref)

    @pytest.mark.parametrize("dim,cells", [(1, 12), (2, 9)])
    def test_stacked_fill_equals_per_slice_fill(self, dim, cells):
        grid = build_grid(dim, cells)
        rng = np.random.default_rng(6)
        b = rng.uniform(0.5, 2.0, (5, grid.n_nodes))
        f_adv = rng.standard_normal((5, grid.n_nodes, dim))
        stacked = slice_operator(grid, 0.02, b=b, f_adv=f_adv)
        for m in range(5):
            assert np.array_equal(stacked[m], slice_operator(grid, 0.02, b=b[m], f_adv=f_adv[m]))

    def test_pattern_cached_per_shape(self):
        assert slice_pattern(build_grid(1, 16)) is slice_pattern(build_grid(1, 16))
        assert slice_pattern(build_grid(1, 16)) is not slice_pattern(build_grid(1, 17))

    def test_constant_roster_assembles_one_slice(self):
        grid, tgrid = build_grid(1, 16), build_time_grid(1.0, 16)
        assert state_slices(constant_coefficients(grid, tgrid, b=1.0, f0=0.5)).shape[0] == 1
        rng = np.random.default_rng(2)
        varying = _random_roster(rng, grid, tgrid)
        assert state_slices(varying).shape[0] == tgrid.steps


class TestSpaceTimeMatrix:
    # the sweep solves the block-assembled K and K^T on a time-varying roster
    @pytest.mark.parametrize("dim,cells,nu", [(1, 10, (1.0, 1.0)), (1, 10, (1.0, 0.0)),
                                              (2, 8, (1.0, 1.0))])
    def test_matches_block_assembly(self, dim, cells, nu):
        problem = make_problem(cells=cells, steps=16, dim=dim, nu=nu)
        grid = problem.grid
        rng = np.random.default_rng(5)
        c = _random_roster(rng, grid, problem.tgrid, diagonal_B=dim == 2)
        weights = build_weights(grid, problem.tgrid, problem.focus_box())
        ctx = GramianContext(problem, weights, c, picard_tol=1e-13)
        ref = DirectContext(problem, weights, c)
        source = rng.standard_normal((problem.tgrid.n_slices, grid.n_nodes))
        source[:, grid.boundary] = 0.0
        targets = tuple(t.values for t in problem.targets)
        phi_T = rng.standard_normal(grid.n_nodes)
        phi_T[grid.boundary] = 0.0
        pairs = [
            (ctx.solve_primal(source, problem.y0.values, targets),
             ref.solve_primal(source, problem.y0.values, targets)),
            (ctx.solve_transposed(phi_T), ref.solve_transposed(phi_T)),
        ]
        for swept, exact in pairs:
            for a, b in zip(swept, exact):
                assert np.abs(a - b).max() <= 1e-10 * max(np.abs(b).max(), 1e-300)


class TestTridiagonalDuality:
    def _roster(self, grid, tgrid):
        x = grid.nodes[:, 0]
        t = tgrid.times[:, None]
        b = 1.0 + 0.3 * np.sin(2.0 * np.pi * t) * x * (1.0 - x)
        f_adv = (0.4 * np.cos(3.0 * t) + 0.2 * x)[:, :, None]
        return LinearCoefficients(
            grid=grid, tgrid=tgrid, b=b, f_adv=f_adv, f0=0.5 * np.sin(t + x),
            B=b[::-1].copy(), g=(0.3 * np.sin(t) * x)[:, :, None], g0=0.2 * np.cos(t + 2 * x),
        )

    @pytest.mark.parametrize("build", [state_factors, sensitivity_factors])
    def test_summation_by_parts(self, build):
        grid, tgrid = build_grid(1, 24), build_time_grid(1.0, 40)
        factors = build(self._roster(grid, tgrid))
        rng = np.random.default_rng(12)
        for _ in range(20):
            s, r = rng.standard_normal((2, tgrid.n_slices, grid.n_nodes))
            s[:, grid.boundary] = 0.0
            r[:, grid.boundary] = 0.0
            pT = rng.standard_normal(grid.n_nodes)
            pT[grid.boundary] = 0.0
            y = march_forward(factors, np.zeros(grid.n_nodes), s)
            p = march_adjoint(factors, pT, r)
            lhs = stepped_pairing(grid, tgrid, s, p)
            rhs = stepped_pairing(grid, tgrid, y, r) + space_inner(Field(grid, y[-1]), Field(grid, pT))
            assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs))

    def test_leader_duality_gap_on_varying_linearization(self):
        problem = make_problem(cells=24, steps=32, preset="mild-quasilinear",
                               params={"q": 1.0, "c": 1.0}, nu=(0.0, 0.0), y0_amp=0.5)
        z = solve_forward_quasilinear(problem.nl, problem.grid, problem.tgrid, problem.y0)
        ctx = linearize_at(problem, z)
        assert state_slices(ctx.c).shape[0] == problem.tgrid.steps
        sol = solve_leader(ctx, 1e-3)
        assert leader_duality_gap(ctx, sol) < 1e-12


class TestQuasilinearStepPositivity:
    def _sine(self, grid, amp):
        y0 = amp * np.sin(np.pi * grid.x)
        y0[grid.boundary] = 0.0
        return Field(grid, y0)

    def test_indefinite_step_raises_at_first_slice(self):
        # diagonal 1 + tau (2 a0 / h^2 + 3 c y^2) = 1 + (2048 - 3000) / 16 < 0 at the peak
        grid, tgrid = build_grid(1, 32), build_time_grid(1.0, 16)
        nl = nonlinearity_preset("cubic-f", a0=1.0, c=-10.0)
        with pytest.raises(BlowUpError, match="positivity") as exc:
            solve_forward_quasilinear(nl, grid, tgrid, self._sine(grid, 10.0))
        assert exc.value.slice_index == 1

    def test_growth_resolved_by_diffusion_matches_linear_solver(self):
        # 1 + tau f_y = 1 - 20/16 < 0, but I + tau (-Lap_h - 20) is positive definite
        grid, tgrid = build_grid(1, 32), build_time_grid(1.0, 16)
        nl = nonlinearity_preset("linear-f", a0=1.0, c1=-20.0)
        y0 = self._sine(grid, 1.0)
        ynl = solve_forward_quasilinear(nl, grid, tgrid, y0)
        ylin = solve_forward_linear(constant_coefficients(grid, tgrid, b=1.0, f0=-20.0), None, y0)
        np.testing.assert_allclose(ynl.values, ylin.values, rtol=1e-11, atol=1e-13)
