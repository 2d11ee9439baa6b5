"""Grids, quadrature, difference operators, cutoffs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiercontrol import grids
from hiercontrol.errors import CoefficientError, GeometryError, GridMismatchError
from hiercontrol.grids import (
    CutoffRegion,
    Field,
    SpaceTimeField,
    add_divergence,
    assemble_divergence_operator,
    box_mask,
    boxes_intersect,
    build_cutoff,
    build_grid,
    build_time_grid,
    gradient,
    gradient_matrices,
    smoothstep,
    spatial_pairing,
    stepped_norm2,
    stepped_pairing,
)
from reference import reference_gradient


class TestBuildGrid:
    def test_1d_counts(self):
        g = build_grid(1, 16)
        assert g.n_nodes == 17
        assert g.boundary.sum() == 2
        assert g.interior_idx.size == 15
        assert np.isclose(g.h, 1.0 / 16)

    def test_2d_counts(self):
        g = build_grid(2, 8)
        assert g.n_nodes == 81
        assert g.boundary.sum() == 32
        assert g.interior_idx.size == 49

    @pytest.mark.parametrize("dim", [1, 2])
    def test_node_order_follows_strides(self, dim):
        g = build_grid(dim, 8)
        assert g.strides == ((9, 1) if dim == 2 else (1,))
        # node index ix * (cells + 1) + iy in 2D
        idx = sum(k * s for k, s in zip((3, 5), g.strides))
        assert np.allclose(g.nodes[idx], [3 / 8, 5 / 8][:dim])
        for ax, s in enumerate(g.strides):
            # every node that is not last along ax has its successor s indices on
            i = np.flatnonzero(g.nodes[:, ax] < 1.0)
            assert i.size == g.n_nodes * 8 // 9
            step = np.zeros(dim)
            step[ax] = g.h
            assert np.allclose(g.nodes[i + s] - g.nodes[i], step, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_boundary_and_interior_index_are_read_only(self, dim):
        g = build_grid(dim, 8)
        assert g.boundary.dtype == bool and g.interior_idx.dtype == np.int64
        with pytest.raises(ValueError):
            g.boundary[0] = False
        with pytest.raises(ValueError):
            g.interior_idx[0] = 0

    def test_rejects_bad_dim_and_cells(self):
        with pytest.raises(GeometryError):
            build_grid(3, 16)
        with pytest.raises(GeometryError):
            build_grid(1, 4)

    def test_dim_message_names_admitted_dims(self, monkeypatch):
        with pytest.raises(GeometryError, match="dim must be 1 or 2, got 3"):
            build_grid(3, 16)
        # the message is built from the tuple, so a new dimension edits only it
        monkeypatch.setattr(grids, "ADMITTED_DIMS", (1,))
        with pytest.raises(GeometryError, match="dim must be 1, got 2"):
            build_grid(2, 16)

    def test_time_grid(self):
        tg = build_time_grid(2.0, 32)
        assert tg.tau == pytest.approx(2.0 / 32)
        assert tg.n_slices == 33
        with pytest.raises(GeometryError):
            build_time_grid(-1.0, 32)
        with pytest.raises(GeometryError):
            build_time_grid(1.0, 8)


class TestQuadrature:
    def test_trapezoid_weights_sum_to_measure(self):
        for dim, cells in ((1, 16), (2, 8)):
            g = build_grid(dim, cells)
            assert g.weights.sum() == pytest.approx(1.0)

    def test_quadratic_integral(self):
        g = build_grid(1, 64)
        # int_0^1 x^2 = 1/3, trapezoid error O(h^2)
        assert float(np.dot(g.weights, g.x**2)) == pytest.approx(1 / 3, abs=1e-4)

    def test_stepped_pairing_skips_slice_zero(self):
        g = build_grid(1, 16)
        tg = build_time_grid(1.0, 32)
        a = np.zeros((tg.n_slices, g.n_nodes))
        a[0] = 1e6  # never integrated
        assert stepped_norm2(g, tg, a) == 0.0

    def test_stepped_pairing_constant(self):
        g = build_grid(1, 16)
        tg = build_time_grid(1.0, 32)
        a = np.ones((tg.n_slices, g.n_nodes))
        assert stepped_pairing(g, tg, a, a) == pytest.approx(1.0)

    @pytest.mark.parametrize("dim,cells", [(1, 16), (2, 8)])
    @pytest.mark.parametrize("masked", [False, True])
    def test_spatial_pairing_of_a_stack(self, dim, cells, masked):
        g = build_grid(dim, cells)
        tg = build_time_grid(1.0, 16)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((tg.n_slices, g.n_nodes))
        b = rng.standard_normal((tg.n_slices, g.n_nodes))
        mask = g.nodes[:, 0] > 0.5 if masked else None
        stack = spatial_pairing(g, a, b, mask=mask)
        slices = [spatial_pairing(g, a[m], b[m], mask=mask) for m in range(tg.n_slices)]
        assert type(slices[0]) is float
        assert np.array_equal(stack, slices)
        # the stepped rule is tau times the sum over slices 1..M
        assert stepped_pairing(g, tg, a, b, mask=mask) == pytest.approx(
            tg.tau * sum(slices[1:]), rel=1e-13
        )

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_pairing_bilinear(self, s, t):
        g = build_grid(1, 8)
        tg = build_time_grid(1.0, 16)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((tg.n_slices, g.n_nodes))
        b = rng.standard_normal((tg.n_slices, g.n_nodes))
        c = rng.standard_normal((tg.n_slices, g.n_nodes))
        lhs = stepped_pairing(g, tg, s * a + t * b, c)
        rhs = s * stepped_pairing(g, tg, a, c) + t * stepped_pairing(g, tg, b, c)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestDifferenceOperators:
    def test_gradient_linear_exact(self):
        g = build_grid(1, 16)
        f = Field(g, 2.0 * g.x + 1.0)
        assert np.allclose(gradient(g, f.values)[:, 0], 2.0)

    def test_gradient_2d_plane_exact(self):
        g = build_grid(2, 8)
        f = Field(g, 3.0 * g.nodes[:, 0] - 2.0 * g.nodes[:, 1])
        gr = gradient(g, f.values)
        assert np.allclose(gr[:, 0], 3.0)
        assert np.allclose(gr[:, 1], -2.0)

    @pytest.mark.parametrize("dim,cells", [(1, 16), (2, 9)])
    def test_gradient_of_a_stack_equals_each_slice(self, dim, cells):
        g = build_grid(dim, cells)
        rng = np.random.default_rng(4)
        stack = rng.standard_normal((3, 17, g.n_nodes))
        stack[0, 0] = -0.0
        whole = gradient(g, stack)
        assert whole.shape == (3, 17, g.n_nodes, dim)
        for k in range(3):
            traj = gradient(g, stack[k])
            assert traj.tobytes() == whole[k].tobytes()
            for m in range(17):
                assert gradient(g, stack[k, m]).tobytes() == whole[k, m].tobytes()

    @pytest.mark.parametrize("dim,cells", [(1, 16), (2, 9)])
    def test_gradient_equals_the_per_axis_slicing_reference(self, dim, cells):
        g = build_grid(dim, cells)
        stack = np.random.default_rng(5).standard_normal((2, 7, g.n_nodes))
        assert gradient(g, stack).tobytes() == reference_gradient(g, stack).tobytes()

    @pytest.mark.parametrize("dim,cells", [(1, 16), (2, 9)])
    def test_add_divergence_adds_the_gradient_columns_in_axis_order(self, dim, cells):
        g = build_grid(dim, cells)
        rng = np.random.default_rng(6)
        field = rng.standard_normal((3, g.n_nodes, dim))
        want = rng.standard_normal((3, g.n_nodes))
        got = want.copy()
        for ax in range(dim):
            want += gradient(g, field[..., ax])[..., ax]
        add_divergence(g, field, got)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim,cells", [(1, 16), (2, 9)])
    def test_gradient_matches_gradient_matrices_inside(self, dim, cells):
        # two independent central differences: the nodal stencils and the
        # interior-restricted matrices; they agree on interior rows of a field
        # that is zero on the boundary
        g = build_grid(dim, cells)
        v = np.random.default_rng(7).standard_normal(g.n_nodes)
        v[g.boundary] = 0.0
        nodal = gradient(g, v)
        ii = g.interior_idx
        for ax, D in enumerate(gradient_matrices(g)):
            np.testing.assert_allclose(nodal[ii, ax], (D @ v)[ii], rtol=1e-13, atol=0)

    def test_gradient_rejects_a_foreign_node_count(self):
        with pytest.raises(GridMismatchError):
            gradient(build_grid(1, 16), np.zeros((4, 16)))

    def test_divergence_operator_symmetric(self):
        g = build_grid(1, 16)
        b = 1.0 + g.x  # variable coefficient
        A = assemble_divergence_operator(g, b[:, None]).toarray()
        ii = g.interior_idx
        assert np.allclose(A[np.ix_(ii, ii)], A[np.ix_(ii, ii)].T)

    def test_divergence_flux_form_values(self):
        # -(d/dx)((1+x) d/dx): off-diagonals -(1 + x_k +- h/2)/h^2
        g = build_grid(1, 16)
        h = g.h
        A = assemble_divergence_operator(g, (1.0 + g.x)[:, None]).toarray()
        k = 5
        assert A[k, k + 1] == pytest.approx(-(1.0 + g.x[k] + h / 2) / h**2)
        assert A[k, k - 1] == pytest.approx(-(1.0 + g.x[k] - h / 2) / h**2)

    def test_divergence_2d_constant_is_laplacian(self):
        g = build_grid(2, 8)
        A = assemble_divergence_operator(g, np.ones((g.n_nodes, 2)))
        f = np.sin(np.pi * g.nodes[:, 0]) * np.sin(np.pi * g.nodes[:, 1])
        lap = A @ f
        ii = g.interior_idx
        # 5-point stencil of the product sine: eigenvalue 2(1-cos(pi h))/h^2 per axis
        lam = 2.0 * (1.0 - np.cos(np.pi * g.h)) / g.h**2
        assert np.allclose(lap[ii], 2.0 * lam * f[ii], rtol=1e-10)


class TestFields:
    def test_field_rejects_nonfinite(self):
        g = build_grid(1, 16)
        v = np.zeros(g.n_nodes)
        v[3] = np.nan
        with pytest.raises(CoefficientError):
            Field(g, v)

    def test_spacetime_shape_check(self):
        g = build_grid(1, 16)
        tg = build_time_grid(1.0, 32)
        with pytest.raises(GridMismatchError):
            SpaceTimeField(g, tg, np.zeros((5, g.n_nodes)))


class TestCutoffs:
    def test_smoothstep_endpoints_and_midpoint(self):
        assert smoothstep(np.array([0.0]))[0] == 0.0
        assert smoothstep(np.array([1.0]))[0] == 1.0
        assert smoothstep(np.array([0.5]))[0] == pytest.approx(0.5)

    def test_cutoff_plateau_and_support(self):
        g = build_grid(1, 64)
        c = build_cutoff(g, (0.4, 0.6), (0.3, 0.7))
        assert isinstance(c, CutoffRegion)
        inner = box_mask(g, c.inner)
        assert np.all(c.values[inner] == 1.0)
        outside = (g.x < 0.3) | (g.x > 0.7)
        assert np.all(c.values[outside] == 0.0)
        assert np.all((0.0 <= c.values) & (c.values <= 1.0))

    def test_cutoff_requires_strict_inclusion(self):
        g = build_grid(1, 64)
        with pytest.raises(GeometryError):
            build_cutoff(g, (0.3, 0.6), (0.3, 0.7))
        with pytest.raises(GeometryError):
            build_cutoff(g, (0.2, 0.8), (0.3, 0.7))

    def test_box_mask_strict_interior(self):
        g = build_grid(1, 16)
        m = box_mask(g, (0.25, 0.5))
        xs = g.x[m]
        assert xs.min() > 0.25 - 1e-12 and xs.max() < 0.5 + 1e-12
        assert not m[g.boundary].any()

    def test_boxes_intersect(self):
        assert boxes_intersect(1, ((0.2, 0.5),), ((0.4, 0.8),))
        assert not boxes_intersect(1, ((0.2, 0.3),), ((0.4, 0.8),))
        assert boxes_intersect(2, ((0.2, 0.5), (0.2, 0.5)), ((0.4, 0.8), (0.1, 0.25)))

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(0.05, 0.3),
        st.floats(0.35, 0.45),
        st.floats(0.05, 0.2),
    )
    def test_cutoff_bounds_property(self, lo, hi, pad):
        g = build_grid(1, 32)
        c = build_cutoff(g, (lo, hi), (max(lo - pad, 0.0), min(hi + pad, 1.0) if hi + pad < 1 else 0.99))
        assert np.all((0.0 <= c.values) & (c.values <= 1.0))
