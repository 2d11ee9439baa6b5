"""Slice assembly against the flux-form composition it replaces.

The reference functions in ``reference`` build every matrix the slow,
obvious way: assemble_divergence_operator plus gradient_matrices products,
restricted to interior rows and columns, and the space-time matrix block
by block.  ``slice_operator``'s diagonals, laid out here by ``sp.diags``,
must reproduce the slices bit for bit, and the coupled sweep must solve
the block-assembled space-time system.
"""

import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hiercontrol.solvers as solvers
from conftest import make_problem
from reference import DirectContext, reference_slice
from hiercontrol.errors import BlowUpError
from hiercontrol.fixedpoint import linearize_at
from hiercontrol.grids import (
    Field,
    SpaceTimeField,
    build_grid,
    build_time_grid,
    stepped_pairing,
)
from hiercontrol.leader import GramianContext, leader_duality_gap, solve_leader
from hiercontrol.solvers import (
    LinearCoefficients,
    constant_coefficients,
    factor_slice,
    march_adjoint,
    march_forward,
    nonlinearity_preset,
    sensitivity_factors,
    slice_operator,
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


def _matrix(grid, diag, offdiag):
    """The interior matrix of one slice from its ``slice_operator`` parts.

    Axis ax couples unknowns (cells - 1)^(dim - 1 - ax) apart in the
    interior order; padding each part with a zero at its dropped lattice
    index makes it that whole diagonal.
    """
    k = grid.cells - 1
    n = k**grid.dim
    diagonals, offsets = [diag.ravel()], [0]
    for ax, (upper, lower) in enumerate(offdiag):
        stride = k ** (grid.dim - 1 - ax)
        pad = [(0, 0)] * grid.dim
        pad[ax] = (0, 1)
        diagonals.append(np.pad(upper, pad).ravel()[: n - stride])
        pad[ax] = (1, 0)
        diagonals.append(np.pad(lower, pad).ravel()[stride:])
        offsets += [stride, -stride]
    return sp.diags(diagonals, offsets, shape=(n, n))


def _coefficients(rng, grid, terms, stack=(), anisotropic=False):
    """slice_operator keywords with the terms flagged in ``terms`` (b,
    f_adv, f_div, f0) drawn at random, each with leading axes ``stack``."""
    n, dim = grid.n_nodes, grid.dim
    has_b, has_adv, has_div, has_f0 = terms
    return dict(
        b=rng.uniform(0.5, 2.0, stack + ((n, dim) if anisotropic else (n,))) if has_b else None,
        f_adv=rng.standard_normal(stack + (n, dim)) if has_adv else None,
        f_div=rng.standard_normal(stack + (n, dim)) if has_div else None,
        f0=rng.standard_normal(stack + (n,)) if has_f0 else None,
    )


class TestSliceFill:
    @pytest.mark.parametrize("dim,cells", [(1, 12), (2, 9)])
    @pytest.mark.parametrize("terms", list(itertools.product((False, True), repeat=4)))
    def test_matches_flux_form_composition(self, dim, cells, terms):
        grid = build_grid(dim, cells)
        kw = _coefficients(np.random.default_rng(sum(terms) + 10 * dim), grid, terms)
        tau = 0.0137
        got = _matrix(grid, *slice_operator(grid, tau, **kw)).toarray()
        assert got.tobytes() == reference_slice(grid, tau, **kw).toarray().tobytes()

    def test_diagonal_diffusion_matches(self):
        grid = build_grid(2, 9)
        b = np.random.default_rng(4).uniform(0.5, 2.0, (grid.n_nodes, 2))
        ref = reference_slice(grid, 0.01, b=b).toarray()
        assert _matrix(grid, *slice_operator(grid, 0.01, b=b)).toarray().tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dim,cells", [(1, 12), (2, 9)])
    def test_stacked_fill_equals_per_slice_fill(self, dim, cells):
        grid = build_grid(dim, cells)
        rng = np.random.default_rng(6)
        b = rng.uniform(0.5, 2.0, (5, grid.n_nodes))
        f_adv = rng.standard_normal((5, grid.n_nodes, dim))
        diag, offdiag = slice_operator(grid, 0.02, b=b, f_adv=f_adv)
        for m in range(5):
            one_diag, one_offdiag = slice_operator(grid, 0.02, b=b[m], f_adv=f_adv[m])
            assert diag[m].tobytes() == one_diag.tobytes()
            for (upper, lower), (one_upper, one_lower) in zip(offdiag, one_offdiag, strict=True):
                assert upper[m].tobytes() == one_upper.tobytes()
                assert lower[m].tobytes() == one_lower.tobytes()

    def test_pattern_cached_per_shape(self):
        # the CSC layout of a 2D slice is built once per grid shape
        assert solvers._csc_layout(2, 16) is solvers._csc_layout(2, 16)
        assert solvers._csc_layout(2, 16) is not solvers._csc_layout(2, 17)

    def test_constant_roster_assembles_one_slice(self):
        grid, tgrid = build_grid(1, 16), build_time_grid(1.0, 16)
        diag, _ = state_slices(constant_coefficients(grid, tgrid, b=1.0, f0=0.5))
        assert diag.shape[0] == 1
        rng = np.random.default_rng(2)
        diag, _ = state_slices(_random_roster(rng, grid, tgrid))
        assert diag.shape[0] == tgrid.steps


class TestSliceAssembly:
    """Every slice_operator output is the flux-form composition bit for bit,
    and a 2D slice reaches SuperLU with every entry, exact zeros included."""

    @settings(max_examples=80, deadline=None)
    @given(
        grid_shape=st.one_of(st.tuples(st.just(1), st.integers(8, 64)),
                             st.tuples(st.just(2), st.integers(8, 16))),
        tau=st.floats(1e-4, 1.0),
        terms=st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()),
        stack=st.sampled_from([(), (1,), (3,)]),
        anisotropic=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_parts_equal_flux_form_composition(self, grid_shape, tau, terms, stack, anisotropic,
                                               seed):
        assume(any(terms) or not stack)  # a stack is read off its coefficients
        grid = build_grid(*grid_shape)
        kw = _coefficients(np.random.default_rng(seed), grid, terms, stack, anisotropic)
        diag, offdiag = slice_operator(grid, tau, **kw)
        for j in np.ndindex(stack):
            parts = diag[j], [(upper[j], lower[j]) for upper, lower in offdiag]
            ref = reference_slice(grid, tau, **{k: None if v is None else v[j] for k, v in kw.items()})
            ref = ref.toarray().tobytes()
            assert _matrix(grid, *parts).toarray().tobytes() == ref
            if grid.dim == 1:
                continue
            # dropping an exact zero would change the minimum-degree ordering and the fill
            with mock.patch.object(spla, "splu", wraps=spla.splu) as spy:
                factor_slice(grid, *parts)
            (A,), _ = spy.call_args
            assert A.nnz == parts[0].size + sum(upper.size + lower.size for upper, lower in parts[1])
            assert A.toarray().tobytes() == ref


class TestSpaceTimeMatrix:
    # the sweep solves the block-assembled K and K^T on a time-varying
    # roster: unequal nu_k and mu_k weigh the follower blocks apart, and a
    # zero target leaves its block without a target response
    @pytest.mark.parametrize("dim,cells,nu,mu,zero_target", [
        pytest.param(1, 10, (1.0, 1.0), (20.0, 20.0), False, id="1-10-nu0"),
        pytest.param(1, 10, (1.0, 0.0), (20.0, 20.0), False, id="1-10-nu1"),
        pytest.param(2, 8, (1.0, 1.0), (20.0, 20.0), False, id="2-8-nu2"),
        pytest.param(1, 10, (0.5, 2.0), (10.0, 40.0), False, id="1-10-unequal"),
        pytest.param(1, 10, (0.5, 2.0), (10.0, 40.0), True, id="1-10-unequal-zero-target"),
        pytest.param(2, 8, (0.5, 2.0), (10.0, 40.0), True, id="2-8-unequal-zero-target"),
    ])
    def test_matches_block_assembly(self, dim, cells, nu, mu, zero_target):
        problem = make_problem(cells=cells, steps=16, dim=dim, nu=nu, mu=mu)
        if zero_target:
            zero = SpaceTimeField(problem.grid, problem.tgrid,
                                  np.zeros_like(problem.targets[0].values))
            problem = dataclasses.replace(problem, targets=(zero, problem.targets[1]))
        grid = problem.grid
        rng = np.random.default_rng(5)
        c = _random_roster(rng, grid, problem.tgrid, diagonal_B=dim == 2)
        weights = build_weights(grid, problem.tgrid, problem.focus_box())
        ctx = GramianContext(problem, weights, c, picard_tol=1e-13)
        ref = DirectContext(problem, weights, c)
        source = rng.standard_normal((problem.tgrid.n_slices, grid.n_nodes))
        source[:, grid.boundary] = 0.0
        phi_T = rng.standard_normal(grid.n_nodes)
        phi_T[grid.boundary] = 0.0
        swept_T, exact_T = ctx.solve_transposed(phi_T), ref.solve_transposed(phi_T)
        # the state y of K, and all three blocks of K^T
        swept = (ctx.solve_primal(source, data=True), swept_T.phi, *swept_T.thetas())
        exact = (ref.solve_primal(source, data=True), exact_T.phi, *exact_T.thetas())
        assert len(swept) == len(exact) == 4
        for a, b in zip(swept, exact):
            assert np.abs(a - b).max() <= 1e-10 * max(np.abs(b).max(), 1e-300)
        # the sweep's data pairing, by summation by parts, is the oracle's
        # pairing of the targets with its theta_k
        scale = max(abs(exact_T.data_pairing), 1e-300)
        assert abs(swept_T.data_pairing - exact_T.data_pairing) <= 1e-10 * scale


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
            rhs = stepped_pairing(grid, tgrid, y, r) + float(np.dot(grid.weights * y[-1], pT))
            assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs))

    def test_leader_duality_gap_on_varying_linearization(self):
        problem = make_problem(cells=24, steps=32, preset="mild-quasilinear",
                               params={"q": 1.0, "c": 1.0}, nu=(0.0, 0.0), y0_amp=0.5)
        z = solve_forward_quasilinear(problem.nl, problem.grid, problem.tgrid, problem.y0)
        ctx = linearize_at(problem, z)
        assert state_slices(ctx.c)[0].shape[0] == problem.tgrid.steps
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
        # 1 + tau f_y = 1 - 20/16 < 0, but I + tau (-Lap_h - 20) is positive
        # definite; both march on the factors of one bit-equal matrix, in 1D
        # and 2D, with and without a source
        nl = nonlinearity_preset("linear-f", a0=1.0, c1=-20.0)
        for dim, with_source in itertools.product((1, 2), (False, True)):
            grid, tgrid = build_grid(dim, 32 if dim == 1 else 8), build_time_grid(1.0, 16)
            y0 = self._sine(grid, 1.0)
            source = None
            if with_source:
                source = np.cos(3.0 * tgrid.times)[:, None] * np.sin(2.0 * np.pi * grid.x)[None, :]
            ynl = solve_forward_quasilinear(nl, grid, tgrid, y0, source)
            c = constant_coefficients(grid, tgrid, b=1.0, f0=-20.0)
            ylin = march_forward(state_factors(c), y0.values, source)
            assert ynl.values.tobytes() == ylin.tobytes(), (dim, with_source)


class TestQuasilinearBands:
    """The 1D quasi-linear march on the bands of slice_operator equals the
    march on the bands of the flux-form composition, bit for bit."""

    @pytest.mark.parametrize("preset,params", [
        ("mild-quasilinear", {"q": 1.0, "c": 1.0}),
        ("gradient-diffusion", {"c": 0.5}),
        ("heat", {}),
        ("burgers-f", {"c": 0.5}),
    ])
    @pytest.mark.parametrize("with_source", [False, True])
    def test_band_march_equals_assembled_march(self, monkeypatch, preset, params, with_source):
        grid, tgrid = build_grid(1, 24), build_time_grid(0.5, 32)
        nl = nonlinearity_preset(preset, a0=1.0, **params)
        y0 = np.sin(np.pi * grid.x)
        y0[grid.boundary] = 0.0
        source = None
        if with_source:
            source = np.cos(3.0 * tgrid.times)[:, None] * np.sin(2.0 * np.pi * grid.x)[None, :]
        bands = solve_forward_quasilinear(nl, grid, tgrid, Field(grid, y0), source)
        calls = []

        def assembled(grid, tau, b, f_adv, f0):
            # the bands of the sparse composition, read off its dense matrix
            calls.append(tau)
            A = reference_slice(grid, tau, b=b, f_adv=f_adv, f0=f0).toarray()
            return np.diag(A).copy(), ((np.diag(A, 1).copy(), np.diag(A, -1).copy()),)

        monkeypatch.setattr(solvers, "slice_operator", assembled)
        reference = solve_forward_quasilinear(nl, grid, tgrid, Field(grid, y0), source)
        assert calls
        assert bands.values.tobytes() == reference.values.tobytes()
