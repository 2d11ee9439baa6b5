"""Linear and quasi-linear marching: accuracy, transposition, failure modes."""

import dataclasses
import functools
import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgttrf, dgttrs

import hiercontrol.solvers as solvers
from hiercontrol.errors import BlowUpError, CoefficientError
from hiercontrol.grids import (
    Field,
    SpaceTimeField,
    build_grid,
    build_time_grid,
    stepped_pairing,
)
from hiercontrol.leader import GramianContext, leader_duality_gap, solve_leader
from hiercontrol.nash import coefficients_from_state
from hiercontrol.scenario import load_scenario
from hiercontrol.solvers import (
    LinearCoefficients,
    Nonlinearity,
    combine_control_source,
    constant_coefficients,
    factor_slice,
    march_adjoint,
    march_forward,
    nonlinearity_preset,
    sensitivity_factors,
    slice_operator,
    solve_forward_quasilinear,
    state_factors,
)

from conftest import scenario_path, standard_cutoffs
from reference import direct, reference_slice


def _sine_field(grid, amp=1.0, k=1):
    x = grid.nodes[:, 0]
    vals = amp * np.sin(np.pi * k * x)
    if grid.dim == 2:
        vals = vals * np.sin(np.pi * k * grid.nodes[:, 1])
    vals[grid.boundary] = 0.0
    return Field(grid, vals)


_ZERO_SECOND_DERIVATIVES = dict(
    a_yy=lambda s, eta: np.zeros_like(s),
    a_yz=lambda s, eta: np.zeros(eta.shape),
    a_zz=lambda s, eta: np.zeros(eta.shape + eta.shape[-1:]),
    f_yy=lambda s, eta: np.zeros_like(s),
    f_yz=lambda s, eta: np.zeros(eta.shape),
    f_zz=lambda s, eta: np.zeros(eta.shape + eta.shape[-1:]),
)

# every preset with every parameter away from its default
_PRESET_PARAMS = (
    ("heat", {"a0": 0.8}),
    ("linear-f", {"a0": 1.3, "c1": 0.2, "c2": 0.1}),
    ("cubic-f", {"a0": 0.9, "c": 0.7}),
    ("burgers-f", {"a0": 1.1, "c": 0.3}),
    ("gradient-diffusion", {"a0": 1.2, "c": 0.3}),
    ("mild-quasilinear", {"a0": 0.7, "q": 0.2, "c": 0.3}),
)


def _interior_noise(rng, grid, tgrid):
    arr = rng.standard_normal((tgrid.n_slices, grid.n_nodes))
    arr[:, grid.boundary] = 0.0
    return arr


class TestLinearForward:
    def test_heat_kernel(self):
        # y0 = sin(pi x) decays as exp(-pi^2 t) under pure diffusion
        g = build_grid(1, 64)
        tg = build_time_grid(0.1, 256)
        c = constant_coefficients(g, tg, b=1.0)
        y = march_forward(state_factors(c), _sine_field(g).values, None)
        exact = np.exp(-np.pi**2 * 0.1) * np.sin(np.pi * g.nodes[:, 0])
        err = np.abs(y[-1] - exact).max() / np.abs(exact).max()
        assert err < 2e-2
        assert np.abs(y).max() <= np.abs(y[0]).max() * (1.0 + 1e-12)  # maximum principle

    def test_heat_kernel_2d(self):
        g = build_grid(2, 16)
        tg = build_time_grid(0.05, 128)
        c = constant_coefficients(g, tg, b=1.0)
        y = march_forward(state_factors(c), _sine_field(g).values, None)
        exact = np.exp(-2.0 * np.pi**2 * 0.05) * (
            np.sin(np.pi * g.nodes[:, 0]) * np.sin(np.pi * g.nodes[:, 1])
        )
        err = np.abs(y[-1] - exact).max() / np.abs(exact).max()
        assert err < 3e-2
        assert np.abs(y).max() <= np.abs(y[0]).max() * (1.0 + 1e-12)  # maximum principle

    def test_max_principle_decay(self):
        g = build_grid(1, 32)
        tg = build_time_grid(1.0, 64)
        c = constant_coefficients(g, tg, b=1.0)
        y = march_forward(state_factors(c), _sine_field(g, amp=2.0).values, None)
        peaks = np.abs(y).max(axis=1)
        assert np.all(np.diff(peaks) <= 1e-14)


class TestTransposition:
    def _varying(self, g, tg, rng):
        # time- and space-varying roster so every slice gets its own factor
        x = g.nodes[:, 0]
        t = tg.times[:, None]
        b = 1.0 + 0.3 * np.sin(2.0 * np.pi * t) * x * (1.0 - x)
        f_adv = np.repeat((0.4 * np.cos(t) + 0.0 * x)[:, :, None], g.dim, axis=2)
        f0 = 0.5 * np.sin(t + x)
        return LinearCoefficients(
            grid=g, tgrid=tg, b=b, f_adv=f_adv, f0=f0, B=b.copy(), g=None, g0=None
        )

    def test_march_adjoint_is_exact_transpose(self):
        g = build_grid(1, 24)
        tg = build_time_grid(1.0, 40)
        rng = np.random.default_rng(11)
        c = self._varying(g, tg, rng)
        factors = state_factors(c)
        for _ in range(50):
            s = _interior_noise(rng, g, tg)
            r = _interior_noise(rng, g, tg)
            pT = rng.standard_normal(g.n_nodes)
            pT[g.boundary] = 0.0
            y = march_forward(factors, np.zeros(g.n_nodes), s)
            p = march_adjoint(factors, pT, r)
            lhs = stepped_pairing(g, tg, s, p)
            rhs = stepped_pairing(g, tg, y, r) + float(np.dot(g.weights * y[-1], pT))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_adjoint_of_symmetric_march_is_time_reversal(self):
        # with a constant self-adjoint operator, the adjoint march is the
        # forward march read backwards, shifted one solve
        g = build_grid(1, 32)
        tg = build_time_grid(1.0, 20)
        c = constant_coefficients(g, tg, b=1.0)
        factors = state_factors(c)
        v = _sine_field(g, amp=1.0, k=2).values
        y = march_forward(factors, v, None)
        p = march_adjoint(factors, v, None)
        for m in range(1, tg.steps + 1):
            np.testing.assert_allclose(p[m], y[tg.steps + 1 - m], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(p[0], p[1], rtol=0, atol=0)


class TestStackedMarch:
    """A (k, n) seed marches k trajectories through one solve per step."""

    def _roster(self, g, tg):
        # time- and space-varying, with advection, so every slice has its own
        # nonsymmetric factor
        x = g.nodes[:, 0]
        t = tg.times[:, None]
        b = 1.0 + 0.3 * np.sin(2.0 * np.pi * t) * x * (1.0 - x)
        f_adv = np.repeat((0.4 * np.cos(3.0 * t) + 0.2 * x)[:, :, None], g.dim, axis=2)
        return LinearCoefficients(
            grid=g, tgrid=tg, b=b, f_adv=f_adv, f0=0.5 * np.sin(t + x),
            B=b[::-1].copy(), g=0.3 * f_adv, g0=0.2 * np.cos(t + 2 * x),
        )

    def _data(self, g, tg, k, rng):
        s = rng.standard_normal((k, tg.n_slices, g.n_nodes))
        r = rng.standard_normal((k, tg.n_slices, g.n_nodes))
        seeds = rng.standard_normal((k, g.n_nodes))
        for a in (s, r, seeds):
            a[..., g.boundary] = 0.0
        return s, r, seeds

    @pytest.mark.parametrize("dim,cells,steps,rel", [(1, 24, 30, 0.0), (2, 10, 16, 1e-14)])
    @pytest.mark.parametrize("build", [state_factors, sensitivity_factors])
    def test_stack_equals_columns(self, build, dim, cells, steps, rel):
        g, tg = build_grid(dim, cells), build_time_grid(1.0, steps)
        factors = build(self._roster(g, tg))
        s, r, seeds = self._data(g, tg, 3, np.random.default_rng(5))
        y = march_forward(factors, seeds, s)
        p = march_adjoint(factors, seeds, r)
        assert y.shape == p.shape == s.shape
        for j in range(3):
            for stacked, single in ((y[j], march_forward(factors, seeds[j], s[j])),
                                    (p[j], march_adjoint(factors, seeds[j], r[j]))):
                if rel == 0.0:
                    assert stacked.tobytes() == single.tobytes()
                else:
                    assert np.abs(stacked - single).max() <= rel * np.abs(single).max()

    @pytest.mark.parametrize("dim,cells,steps", [(1, 24, 30), (2, 10, 16)])
    def test_each_column_satisfies_summation_by_parts(self, dim, cells, steps):
        g, tg = build_grid(dim, cells), build_time_grid(1.0, steps)
        factors = sensitivity_factors(self._roster(g, tg))
        s, r, pT = self._data(g, tg, 4, np.random.default_rng(6))
        y = march_forward(factors, np.zeros((4, g.n_nodes)), s)
        p = march_adjoint(factors, pT, r)
        for j in range(4):
            lhs = stepped_pairing(g, tg, s[j], p[j])
            rhs = stepped_pairing(g, tg, y[j], r[j]) + float(np.dot(g.weights * y[j, -1], pT[j]))
            assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs))

    def test_stacked_seed_checks_the_boundary(self):
        g, tg = build_grid(1, 16), build_time_grid(1.0, 16)
        factors = state_factors(constant_coefficients(g, tg))
        seeds = np.zeros((2, g.n_nodes))
        seeds[1, 0] = 1.0
        with pytest.raises(solvers.SolverError, match="Dirichlet"):
            march_forward(factors, seeds, None)


def _plain_matrix(diag, offdiag):
    """The CSC matrix of one slice from its slice_operator parts, every entry
    kept, exact zeros included: entry (p, p + e_ax) of the interior lattice
    is the upper part of axis ax at p, entry (p + e_ax, p) its lower part."""
    idx = np.arange(diag.size).reshape(diag.shape)
    rows, cols, vals = [idx.ravel()], [idx.ravel()], [diag.ravel()]
    for ax, (upper, lower) in enumerate(offdiag):
        first = idx[(slice(None),) * ax + (slice(None, -1),)].ravel()
        second = idx[(slice(None),) * ax + (slice(1, None),)].ravel()
        rows += [first, second]
        cols += [second, first]
        vals += [upper.ravel(), lower.ravel()]
    return sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(diag.size, diag.size))


def _plain_solver(grid, diag, offdiag):
    """solve(rhs, trans) of one slice, factored by scipy straight from its
    bands (1D) or its CSC matrix (2D)."""
    if grid.dim == 1:
        ((upper, lower),) = offdiag
        *lu, info = dgttrf(lower, diag, upper)
        assert info == 0
        return lambda rhs, trans: dgttrs(*lu, rhs, trans=trans)[0]
    return spla.splu(_plain_matrix(diag, offdiag), permc_spec="MMD_AT_PLUS_A").solve


def _plain_march(grid, tgrid, op, seed, sources, transpose):
    """A march written out step by step, each slice of the slice_operator
    output ``op`` factored by scipy itself."""
    diag, offdiag = op
    slice_solves = [_plain_solver(grid, d, [(upper[m], lower[m]) for upper, lower in offdiag])
                    for m, d in enumerate(diag)]
    rows = grid.interior
    out = np.zeros(seed.shape[:-1] + (tgrid.n_slices, grid.n_nodes))
    out[..., 0, :] = seed
    x = seed[..., rows]
    for m in (range(tgrid.steps, 0, -1) if transpose else range(1, tgrid.n_slices)):
        rhs = x if sources is None else x + tgrid.tau * sources[..., m, rows]
        solve = slice_solves[0] if len(slice_solves) == 1 else slice_solves[m - 1]
        x = solve(np.ascontiguousarray(rhs).T, "T" if transpose else "N").T
        out[..., m, rows] = x
    if transpose:
        out[..., 0, :] = out[..., 1, :]
    return out


class TestBoundSolves:
    """Each march step is one call of the slice's bound solve, bit for bit the
    plain per-step solve against that slice's factors."""

    @pytest.mark.parametrize("varying", [True, False])
    @pytest.mark.parametrize("sourced", [True, False])
    @pytest.mark.parametrize("k", [None, 1, 3])
    @pytest.mark.parametrize("dim,cells,steps", [(1, 24, 30), (2, 10, 16)])
    def test_marches_equal_the_plain_loop(self, dim, cells, steps, k, sourced, varying):
        g, tg = build_grid(dim, cells), build_time_grid(1.0, steps)
        if varying:
            c = TestStackedMarch()._roster(g, tg)
        else:
            c = constant_coefficients(g, tg, b=1.3, f_adv=0.4, f0=0.2, g=-0.3, g0=0.1)
        stack = () if k is None else (k,)
        rng = np.random.default_rng(dim + 2 * (k or 0))
        s = rng.standard_normal(stack + (tg.n_slices, g.n_nodes))
        seed = rng.standard_normal(stack + (g.n_nodes,))
        for a in (s, seed):
            a[..., g.boundary] = 0.0
        src = s if sourced else None
        for slices, build in ((solvers.state_slices, state_factors),
                              (solvers.sensitivity_slices, sensitivity_factors)):
            op = slices(c)
            assert (len(op[0]) == tg.steps) == varying
            factors = build(c)
            for march, transpose in ((march_forward, False), (march_adjoint, True)):
                got = march(factors, seed, src)
                want = _plain_march(g, tg, op, seed, src, transpose)
                assert got.tobytes() == want.tobytes()

    def test_solves_are_bound_once_per_direction(self):
        g, tg = build_grid(1, 16), build_time_grid(1.0, 16)
        factors = state_factors(constant_coefficients(g, tg))
        assert factors.solves() is factors.solves(transpose=False)
        assert factors.solves(transpose=True) is not factors.solves()
        # a time-constant set has one factorization, so one bound solve
        assert len(factors.solves()) == tg.steps
        assert len({id(f) for f in factors.solves()}) == 1

    def test_singular_slice_rejected(self):
        g, tg = build_grid(1, 16), build_time_grid(1.0, 16)
        with pytest.raises(solvers.SolverError, match="singular"):
            solvers.SliceFactors(g, tg, self._zeroed_slice(g, tg))

    def test_singular_2d_slice_rejected(self):
        # SuperLU's own RuntimeError would escape the CLI's error mapping
        g, tg = build_grid(2, 8), build_time_grid(1.0, 16)
        with pytest.raises(solvers.SolverError, match="singular"):
            solvers.SliceFactors(g, tg, self._zeroed_slice(g, tg))

    def _zeroed_slice(self, g, tg):
        """Heat slices 1..M with every diagonal of slice 3 zeroed."""
        diag, offdiag = slice_operator(g, tg.tau, b=np.ones((tg.steps, g.n_nodes)))
        for part in (diag, *(v for pair in offdiag for v in pair)):
            part[2] = 0.0
        return diag, offdiag


class TestSliceOrdering:
    """2D slices that reach SuperLU are factored in a fill-reducing symmetric
    ordering; both have a variable diffusion, so neither is a constant lattice."""

    def _slices(self):
        g = build_grid(2, 40)
        x, y = g.nodes[:, 0], g.nodes[:, 1]
        heat = slice_operator(g, 0.01, b=1.0 + 0.5 * x * y)
        adv = slice_operator(
            g, 0.01, b=1.0 + 0.5 * x * y,
            f_adv=np.stack([3.0 * np.cos(y), -2.0 + x], axis=-1), f0=np.sin(x),
        )
        return g, {"heat": heat, "advection": adv}

    @pytest.mark.parametrize("name", ["heat", "advection"])
    def test_fill_and_solves(self, name):
        g, slices = self._slices()
        A = _plain_matrix(*slices[name])
        lu = factor_slice(g, *slices[name])
        default = spla.splu(A)
        assert lu.L.nnz + lu.U.nnz <= 0.7 * (default.L.nnz + default.U.nnz)
        rhs = np.random.default_rng(8).standard_normal(A.shape[0])
        for trans, M in (("N", A), ("T", A.T.tocsc())):
            ref = spla.spsolve(M, rhs)
            assert np.abs(lu.solve(rhs, trans=trans) - ref).max() <= 1e-12 * np.abs(ref).max()


class TestSineSlices:
    """Slices of dimension >= 2 with one diagonal value and one off-diagonal
    value per axis are solved in the sine basis, every other one by SuperLU."""

    @pytest.mark.parametrize("kw", [
        pytest.param({"b": 1.0}, id="heat"),
        pytest.param({"b": (1.3, 0.4)}, id="anisotropic"),
        pytest.param({"b": 0.8, "f0": 2.5}, id="reaction"),
        pytest.param({}, id="identity"),
    ])
    @pytest.mark.parametrize("cells", [8, 13])
    def test_solves_equal_superlu_of_the_reference(self, kw, cells):
        g = build_grid(2, cells)
        coeffs = {}
        if "b" in kw:
            coeffs["b"] = np.broadcast_to(np.asarray(kw["b"], dtype=float),
                                          (g.n_nodes,) + np.shape(kw["b"])).copy()
        if "f0" in kw:
            coeffs["f0"] = np.full(g.n_nodes, kw["f0"])
        tau = 0.02
        with mock.patch.object(spla, "splu", wraps=spla.splu) as spy:
            lu = factor_slice(g, *slice_operator(g, tau, **coeffs))
        spy.assert_not_called()
        A = reference_slice(g, tau, **coeffs).tocsc()
        ref = spla.splu(A)
        rng = np.random.default_rng(cells)
        for k, transpose in itertools.product((1, 2), (False, True)):
            rhs = np.asfortranarray(rng.standard_normal((A.shape[0], k)))
            want = ref.solve(rhs, trans="T" if transpose else "N")
            for got in (rhs.copy(order="F"), np.ascontiguousarray(rhs[:, 0])):
                solvers.bind_solve(g, lu, transpose)(got)
                expect = want if got.ndim == 2 else want[:, 0]
                assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()

    @pytest.mark.parametrize("name,superlu", [
        ("constant-heat", False), ("perturbed-heat", True), ("constant-advection", True),
    ])
    def test_routing(self, name, superlu):
        g = build_grid(2, 10)
        diag, offdiag = slice_operator(
            g, 0.01, b=np.ones(g.n_nodes),
            f_adv=np.full((g.n_nodes, 2), 0.5) if name == "constant-advection" else None,
        )
        if name == "perturbed-heat":
            diag[3, 4] = np.nextafter(diag[3, 4], 2.0)
        with mock.patch.object(spla, "splu", wraps=spla.splu) as spy:
            lu = factor_slice(g, diag, offdiag)
        assert spy.called == superlu
        rhs = np.random.default_rng(1).standard_normal(diag.size)
        A = _plain_matrix(diag, offdiag)
        for transpose in (False, True):
            x = rhs.copy()
            solvers.bind_solve(g, lu, transpose)(x)
            assert np.abs((A.T if transpose else A) @ x - rhs).max() <= 1e-13 * np.abs(rhs).max()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_transform_is_the_kronecker_product(self, dim):
        # the transform runs over every lattice axis, so a 3D slice needs no branch
        basis = solvers._sine_basis(6)
        x = np.random.default_rng(dim).standard_normal((2,) + (5,) * dim)
        kron = functools.reduce(np.kron, [basis] * dim)
        want = x.reshape(2, -1) @ kron.T
        got = solvers._sine_transform(basis, x).reshape(2, -1)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        assert np.abs(basis @ basis - np.eye(5)).max() <= 1e-14

    def test_heat_2d_leader_matches_the_direct_oracle(self):
        s = load_scenario(scenario_path("heat_2d"))
        problem = s.build_problem()
        weights = s.build_carleman_weights(problem)
        zero = SpaceTimeField(problem.grid, problem.tgrid,
                              np.zeros((problem.tgrid.n_slices, problem.grid.n_nodes)))
        ctx = GramianContext(problem, weights, coefficients_from_state(problem.nl, zero),
                             picard_tol=1e-13)
        sol = solve_leader(ctx, s.epsilon, cg_tol=s.tolerance("cg_tol"))
        exact = solve_leader(direct(ctx), s.epsilon, cg_tol=s.tolerance("cg_tol"))
        assert leader_duality_gap(ctx, sol) <= 1e-10
        scale = np.abs(exact.u.values).max()
        assert np.abs(sol.u.values - exact.u.values).max() <= 1e-9 * scale


class TestRosterValidation:
    def test_ellipticity_rejected(self):
        g = build_grid(1, 16)
        tg = build_time_grid(1.0, 16)
        with pytest.raises(CoefficientError, match="ellipticity"):
            constant_coefficients(g, tg, b=0.0)

    def test_shape_rejected(self):
        g = build_grid(1, 16)
        tg = build_time_grid(1.0, 16)
        ok = constant_coefficients(g, tg, b=1.0)
        with pytest.raises(CoefficientError, match="shape"):
            LinearCoefficients(
                grid=g, tgrid=tg, b=ok.b[:-1], f_adv=None, f0=None, B=ok.B, g=None, g0=None
            )

    @pytest.mark.parametrize("name", ["b", "f0", "g"])
    def test_non_finite_entry_rejected(self, name):
        # a NaN reads as no ellipticity loss and as no change in time, so
        # the roster would otherwise be marched on its first slice alone
        g = build_grid(1, 16)
        tg = build_time_grid(1.0, 16)
        c = constant_coefficients(g, tg, b=1.0, f0=0.5, g=0.2)
        arr = getattr(c, name).copy()
        arr[5, 3] = np.nan
        with pytest.raises(CoefficientError, match=f"^{name} is not finite at slice 5, node 3"):
            dataclasses.replace(c, **{name: arr})


def _check_first_derivatives(nl, base, s, eta, label):
    """base_y and base_z of nl against central differences of base, sample by sample."""
    step, tol = 1e-6, 1e-5
    fn, d_y, d_z = (getattr(nl, base + sfx) for sfx in ("", "_y", "_z"))
    fd = (fn(s + step, eta) - fn(s - step, eta)) / (2 * step)
    exact = d_y(s, eta)
    assert np.all(np.abs(fd - exact) <= tol * (1.0 + np.abs(exact))), f"{label}: {base}_y"
    exact = d_z(s, eta)
    for ax, e in enumerate(np.eye(eta.shape[-1])):
        fd = (fn(s, eta + step * e) - fn(s, eta - step * e)) / (2 * step)
        assert np.all(np.abs(fd - exact[:, ax]) <= tol * (1.0 + np.abs(exact[:, ax]))), (
            f"{label}: {base}_z[{ax}]"
        )


class TestNonlinearity:
    def test_unknown_preset(self):
        with pytest.raises(CoefficientError, match="preset"):
            nonlinearity_preset("sideways-diffusion")

    def test_unread_parameter_rejected(self):
        # a misspelled q would otherwise run the default q silently
        with pytest.raises(CoefficientError, match="'qq'"):
            nonlinearity_preset("mild-quasilinear", a0=1.0, qq=5.0)
        with pytest.raises(CoefficientError, match="'c'"):
            nonlinearity_preset("heat", c=0.1)

    def test_f_origin_constraint(self):
        with pytest.raises(CoefficientError, match="f\\(0, 0\\)"):
            Nonlinearity(
                a=lambda s, eta: np.ones_like(s),
                a_y=lambda s, eta: np.zeros_like(s),
                a_z=lambda s, eta: np.zeros(eta.shape),
                f=lambda s, eta: s + 1.0,
                f_y=lambda s, eta: np.ones_like(s),
                f_z=lambda s, eta: np.zeros(eta.shape),
                **_ZERO_SECOND_DERIVATIVES,
            )

    def test_second_derivatives_required(self):
        with pytest.raises(TypeError, match="a_yy"):
            Nonlinearity(
                a=lambda s, eta: np.ones_like(s),
                a_y=lambda s, eta: np.zeros_like(s),
                a_z=lambda s, eta: np.zeros(eta.shape),
                f=lambda s, eta: np.zeros_like(s),
                f_y=lambda s, eta: np.zeros_like(s),
                f_z=lambda s, eta: np.zeros(eta.shape),
            )

    @pytest.mark.parametrize("key,wrong", [
        ("a", lambda s, eta: np.ones(eta.shape)),              # eta's shape, not s's
        ("a_z", lambda s, eta: np.zeros_like(s)),              # s's shape, not eta's
        ("f_z", lambda s, eta: np.zeros(eta.shape[:-1] + (1,))),  # right only in 1D
        ("a_zz", lambda s, eta: np.zeros(eta.shape)),          # missing the last axis
        ("f_y", lambda s, eta: np.zeros(s.shape, dtype=int)),  # not float
        ("f_yy", lambda s, eta: 0.0),                          # not an array
    ], ids=["a", "a_z", "f_z", "a_zz", "f_y", "f_yy"])
    def test_wrong_output_shape_rejected_at_construction(self, key, wrong):
        nl = nonlinearity_preset("mild-quasilinear", a0=1.0)
        with pytest.raises(CoefficientError, match=f"{key} returned"):
            dataclasses.replace(nl, **{key: wrong})

    def test_d2_analytic_vs_central_differences(self):
        # every preset's four first derivatives against central differences of
        # a and f, and its six second derivatives against central differences
        # of its first derivatives, in 1D and 2D
        h = 1e-5
        rng = np.random.default_rng(5)
        for name, params in _PRESET_PARAMS:
            nl = nonlinearity_preset(name, **params)
            for dim in (1, 2):
                s = rng.standard_normal(40)
                eta = rng.standard_normal((40, dim))
                for base in ("a", "f"):
                    _check_first_derivatives(nl, base, s, eta, f"{name} dim {dim}")
                    d_y, d_z = getattr(nl, f"{base}_y"), getattr(nl, f"{base}_z")
                    fd_yy = (d_y(s + h, eta) - d_y(s - h, eta)) / (2 * h)
                    fd_yz = (d_z(s + h, eta) - d_z(s - h, eta)) / (2 * h)
                    fd_zz = np.stack([
                        (d_z(s, eta + h * e) - d_z(s, eta - h * e)) / (2 * h) for e in np.eye(dim)
                    ], axis=-1)
                    for which, fd in (("yy", fd_yy), ("yz", fd_yz), ("zz", fd_zz)):
                        exact = getattr(nl, f"{base}_{which}")(s, eta)
                        np.testing.assert_allclose(
                            fd, exact, rtol=2e-5, atol=2e-6, err_msg=f"{name} {base}_{which} dim {dim}"
                        )

    @pytest.mark.parametrize("dim", [1, 2])
    def test_preset_values_match_the_documented_formulas(self, dim):
        # a and f of every preset, written here from docs/scenario_format.md
        rng = np.random.default_rng(11)
        s = rng.standard_normal(60)
        eta = rng.standard_normal((60, dim))
        r = s**2 + np.sum(eta**2, axis=1)
        div = np.sum(eta, axis=1)
        documented = {
            "heat": lambda p: (p["a0"] + 0 * s, 0 * s),
            "linear-f": lambda p: (p["a0"] + 0 * s, p["c1"] * s + p["c2"] * div),
            "cubic-f": lambda p: (p["a0"] + 0 * s, p["c"] * s**3),
            "burgers-f": lambda p: (p["a0"] + 0 * s, p["c"] * s * div),
            "gradient-diffusion": lambda p: (p["a0"] + p["c"] * r / (1 + r), 0 * s),
            "mild-quasilinear": lambda p: (p["a0"] + p["q"] * s**2, p["c"] * s * div),
        }
        for name, params in _PRESET_PARAMS:
            nl = nonlinearity_preset(name, **params)
            a, f = documented[name](params)
            np.testing.assert_allclose(nl.a(s, eta), a, rtol=1e-13, atol=0, err_msg=f"{name} a")
            np.testing.assert_allclose(nl.f(s, eta), f, rtol=1e-13, atol=0, err_msg=f"{name} f")

    def test_preset_alias_normalization(self):
        nl = nonlinearity_preset("Mild_Quasilinear", q=0.1)
        assert nl.name == "mild-quasilinear"


class TestQuasilinearForward:
    def test_lagged_vs_refreshed_agree(self, monkeypatch):
        g = build_grid(1, 64)
        tg = build_time_grid(0.5, 256)
        nl = nonlinearity_preset("mild-quasilinear", a0=1.0, q=0.1, c=0.5)
        y0 = _sine_field(g, amp=0.5)
        monkeypatch.setattr(solvers, "REFRESHES", 0)
        lagged = solve_forward_quasilinear(nl, g, tg, y0)
        monkeypatch.setattr(solvers, "REFRESHES", 4)
        fresh = solve_forward_quasilinear(nl, g, tg, y0)
        assert np.abs(lagged.values - fresh.values).max() < 1e-4

    def test_grid_self_convergence(self):
        nl = nonlinearity_preset("mild-quasilinear", a0=1.0, q=0.3, c=0.5)

        def run(cells, steps):
            g = build_grid(1, cells)
            tg = build_time_grid(0.25, steps)
            return solve_forward_quasilinear(nl, g, tg, _sine_field(g, amp=0.5)).values[-1]

        coarse, mid, ref = run(16, 32), run(32, 64), run(64, 128)
        err_c = np.abs(coarse - ref[::4]).max()
        err_m = np.abs(mid - ref[::2]).max()
        assert err_c / err_m >= 1.8

    def test_heat_preset_matches_linear_solver(self):
        # both march on the factors of one bit-equal slice matrix, in 1D and
        # 2D, with and without a source, under heat and under linear-f
        cases = (
            ("heat", {"a0": 1.0}, {"b": 1.0}),
            ("linear-f", {"a0": 1.0, "c1": 0.5, "c2": 0.3}, {"b": 1.0, "f_adv": 0.3, "f0": 0.5}),
        )
        for (name, params, coefficients), dim, with_source in itertools.product(
            cases, (1, 2), (False, True)
        ):
            g = build_grid(dim, 32 if dim == 1 else 8)
            tg = build_time_grid(0.5, 64)
            y0 = _sine_field(g)
            source = _interior_noise(np.random.default_rng(dim), g, tg) if with_source else None
            ynl = solve_forward_quasilinear(nonlinearity_preset(name, **params), g, tg, y0, source)
            c = constant_coefficients(g, tg, **coefficients)
            ylin = march_forward(state_factors(c), y0.values, source)
            assert ynl.values.tobytes() == ylin.tobytes(), (name, dim, with_source)

    @staticmethod
    def _refresh_passes(preset, dim, cells):
        # one call of the diffusion callback per refresh pass
        g, tg = build_grid(dim, cells), build_time_grid(0.5, 16)
        nl = nonlinearity_preset(preset, a0=1.0)
        calls = []

        def counted(s, eta):
            calls.append(1)
            return nl.a(s, eta)

        counted_nl = dataclasses.replace(nl, a=counted)
        calls.clear()  # construction probes every callback once per dimension
        solve_forward_quasilinear(counted_nl, g, tg, _sine_field(g, amp=0.5))
        return len(calls), tg.steps

    @pytest.mark.parametrize("preset,per_step", [("heat", 3), ("mild-quasilinear", 3)])
    def test_refreshes_stop_at_a_fixed_point(self, preset, per_step):
        # every step makes the frozen pass and all REFRESHES refreshes, also
        # under the heat preset, whose first refresh returns its input
        assert solvers.REFRESHES + 1 == per_step
        passes, steps = self._refresh_passes(preset, 1, 32)
        assert passes == per_step * steps

    @pytest.mark.parametrize("preset,per_step", [("heat", 3), ("mild-quasilinear", 3)])
    def test_refreshes_stop_at_a_fixed_point_2d(self, preset, per_step):
        passes, steps = self._refresh_passes(preset, 2, 8)
        assert passes == per_step * steps

    def test_blowup_reports_slice(self):
        # focusing nonlinearity: f = -c y^3 with large c feeds energy back
        g = build_grid(1, 32)
        tg = build_time_grid(1.0, 16)
        nl = nonlinearity_preset("cubic-f", a0=1.0, c=-100.0)
        with pytest.raises(BlowUpError) as exc:
            solve_forward_quasilinear(nl, g, tg, _sine_field(g, amp=10.0))
        assert exc.value.slice_index >= 1

    def test_non_finite_refresh_is_a_blowup_at_its_slice(self):
        # growth f = -20 y on a sine (rate about 20 - pi^2) crosses |y| = 3
        # within the horizon; above that f reads inf, so the refresh at the
        # first slice whose iterate crosses it cannot be solved
        g, tg = build_grid(1, 32), build_time_grid(1.0, 16)
        lin = nonlinearity_preset("linear-f", a0=1.0, c1=-20.0)
        y0 = _sine_field(g)
        ref = solve_forward_quasilinear(lin, g, tg, y0).values
        crossed = np.flatnonzero(np.abs(ref).max(axis=1) > 3.0)
        assert crossed.size and crossed[0] >= 2

        def f(s, eta):
            return np.where(np.abs(s) > 3.0, np.inf, lin.f(s, eta))

        nl = dataclasses.replace(lin, f=f, name="capped")
        with pytest.raises(BlowUpError, match="non-finite") as exc:
            solve_forward_quasilinear(nl, g, tg, y0)
        assert exc.value.slice_index == crossed[0]

    def test_ellipticity_loss_reports_node(self):
        nl = nonlinearity_preset("mild-quasilinear", a0=1.0, q=-2.0, c=0.0)
        g = build_grid(1, 32)
        tg = build_time_grid(1.0, 16)
        with pytest.raises(CoefficientError, match="ellipticity"):
            solve_forward_quasilinear(nl, g, tg, _sine_field(g, amp=2.0))


def _refreshed(nl):
    """nl with a callback no preset builds, so the march runs its refreshes."""
    return dataclasses.replace(nl, a=lambda s, eta: nl.a(s, eta))


class TestStateIndependentMarch:
    """heat and linear-f march as the linear equation they are: one factorization."""

    @staticmethod
    def _case(dim, with_source):
        g = build_grid(dim, 32 if dim == 1 else 8)
        tg = build_time_grid(0.5, 16)
        source = None
        if with_source:
            source = _interior_noise(np.random.default_rng(dim), g, tg)
        return g, tg, _sine_field(g, amp=0.5), source

    @pytest.mark.parametrize("with_source", [False, True])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_heat_equals_the_refresh_loop_bit_for_bit(self, dim, with_source):
        g, tg, y0, source = self._case(dim, with_source)
        nl = nonlinearity_preset("heat", a0=0.8)
        assert nl.state_independent and not _refreshed(nl).state_independent
        y = solve_forward_quasilinear(nl, g, tg, y0, source).values
        ref = solve_forward_quasilinear(_refreshed(nl), g, tg, y0, source).values
        assert y.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("with_source", [False, True])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_linear_f_agrees_with_the_refresh_loop(self, dim, with_source):
        # the refreshes add the residual f - f_y y - f_z . grad y, 0 up to rounding
        g, tg, y0, source = self._case(dim, with_source)
        nl = nonlinearity_preset("linear-f", a0=1.3, c1=-4.0, c2=0.7)
        y = solve_forward_quasilinear(nl, g, tg, y0, source).values
        ref = solve_forward_quasilinear(_refreshed(nl), g, tg, y0, source).values
        assert np.abs(y - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_predicate_marks_exactly_the_linear_presets(self):
        for name, params in _PRESET_PARAMS:
            nl = nonlinearity_preset(name, **params)
            assert nl.state_independent == (name in ("heat", "linear-f")), name
        assert nonlinearity_preset("linear-f").state_independent  # c1 = c2 = 0

    @pytest.mark.parametrize("name,params", [("heat", {"a0": 0.8}), ("linear-f", {"c1": 0.2})])
    def test_any_replaced_callback_clears_the_predicate(self, name, params):
        nl = nonlinearity_preset(name, **params)
        for key, _ in solvers._CALLBACK_AXES:
            fn = getattr(nl, key)
            replaced = dataclasses.replace(nl, **{key: lambda s, eta: fn(s, eta)})
            assert not replaced.state_independent, key

    def test_a_mixed_structure_is_not_state_independent(self):
        # the callbacks of two presets, each constant or linear, that do not
        # make one linear equation: heat's f_y with linear-f's f
        heat = nonlinearity_preset("heat")
        lin = nonlinearity_preset("linear-f", c1=0.5)
        assert not dataclasses.replace(heat, f=lin.f).state_independent

    @pytest.mark.parametrize("name,params", [("heat", {}), ("linear-f", {"c1": 0.5, "c2": 0.3})])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_at_most_one_gradient_per_march(self, monkeypatch, dim, name, params):
        g, tg, y0, source = self._case(dim, True)
        calls = []
        real = solvers.gradient
        monkeypatch.setattr(solvers, "gradient", lambda *args: calls.append(1) or real(*args))
        solve_forward_quasilinear(nonlinearity_preset(name, **params), g, tg, y0, source)
        assert len(calls) <= 1

    def test_indefinite_step_is_a_blowup_at_slice_1(self):
        # diagonal 1 + tau (2 a0 / h^2 + c1) = 1 + (128 - 200) / 16 < 0
        g, tg = build_grid(1, 8), build_time_grid(1.0, 16)
        nl = nonlinearity_preset("linear-f", a0=1.0, c1=-200.0)
        with pytest.raises(BlowUpError, match="positivity") as exc:
            solve_forward_quasilinear(nl, g, tg, _sine_field(g))
        assert exc.value.slice_index == 1

    @pytest.mark.parametrize("strict", [False, True], ids=["warnings", "warnings-as-errors"])
    def test_first_diverging_slice_is_reported(self, strict):
        # growth c1 = -100 outruns diffusion (rate about 100 - pi^2); the
        # values at slice 222 are finite, only the jump's pairing overflows,
        # and that overflow must neither escape as a warning nor stop the
        # march at another slice
        g, tg = build_grid(1, 8), build_time_grid(4.0, 452)
        nl = nonlinearity_preset("linear-f", a0=1.0, c1=-100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error" if strict else "default")
            with pytest.raises(BlowUpError, match="diverged at slice 222") as exc:
                solve_forward_quasilinear(nl, g, tg, _sine_field(g))
        assert exc.value.slice_index == 222

    def test_diffusion_below_the_floor_is_rejected(self):
        g, tg = build_grid(1, 16), build_time_grid(1.0, 16)
        nl = nonlinearity_preset("heat", a0=0.5 * solvers.RHO0)
        with pytest.raises(CoefficientError, match="ellipticity at slice 1"):
            solve_forward_quasilinear(nl, g, tg, _sine_field(g))


class TestControlSource:
    def test_all_absent_is_none(self, grid16, tgrid32):
        cut = standard_cutoffs(grid16)
        assert combine_control_source(cut, None, None, None) is None

    def test_masked_sum(self, grid16, tgrid32):
        from hiercontrol.grids import SpaceTimeField

        cut = standard_cutoffs(grid16)
        rng = np.random.default_rng(2)
        u = SpaceTimeField(grid16, tgrid32, _interior_noise(rng, grid16, tgrid32))
        v1 = SpaceTimeField(grid16, tgrid32, _interior_noise(rng, grid16, tgrid32))
        out = combine_control_source(cut, u, v1, None)
        expected = cut["leader"].values[None, :] * u.values
        expected = expected + cut["follower1"].values[None, :] * v1.values
        np.testing.assert_allclose(out, expected, rtol=0, atol=0)
