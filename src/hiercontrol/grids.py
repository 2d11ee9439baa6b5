"""Grids, fields, quadrature, difference operators and cutoff functions.

The package discretizes the unit interval (dim=1) or unit square (dim=2)
with a uniform node lattice, homogeneous Dirichlet boundary, and backward
Euler in time.  Everything downstream (solvers, Nash iterations, the
weighted control Gramian) is built from the operators assembled here, so
two properties are enforced exactly rather than approximately:

* the divergence-form diffusion operator is assembled in flux form with
  arithmetic-mean face coefficients, which makes the matrix equal to its
  own transpose bit for bit;
* first-order terms use the central-difference matrix restricted to
  interior rows and columns, which is exactly antisymmetric, so the
  discrete adjoint of an advective term is the matching divergence-form
  term with flipped sign.

The interior-only sparsity pattern of a slice matrix I + tau L, with the
data slot of every diagonal and neighbour entry, is built here once per
grid shape (``slice_pattern``); the solvers fill its values.

Fields carry their values on the full node set; boundary entries of a
Dirichlet field are zero and all solve paths only ever touch interior
unknowns.  Spatial quadrature is the tensor trapezoid rule.  Because the
trapezoid weight is the constant h^dim at every interior node, weighted
adjoint identities reduce to plain matrix transposition on the interior
subspace.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from .errors import CoefficientError, GeometryError, GridMismatchError


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SpatialGrid:
    """Uniform node lattice on the unit interval or unit square.

    Attributes
    ----------
    dim : 1 or 2.
    cells : number of cells per axis (nodes per axis = cells + 1).
    h : mesh width, 1 / cells.
    nodes : (n_nodes, dim) node coordinates, lexicographic by (x, y).
    boundary : boolean mask of boundary nodes.
    weights : trapezoid quadrature weight per node (tensor product).
    """

    dim: int
    cells: int
    h: float
    nodes: np.ndarray
    boundary: np.ndarray
    weights: np.ndarray
    interior_idx: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_interior(self) -> int:
        return self.interior_idx.shape[0]

    @property
    def x(self) -> np.ndarray:
        """Coordinates along the first axis (all nodes)."""
        return self.nodes[:, 0]

    def axis_coords(self) -> np.ndarray:
        """The shared 1D coordinate array of one axis."""
        return np.linspace(0.0, 1.0, self.cells + 1)

    def shape(self) -> tuple[int, ...]:
        return (self.cells + 1,) * self.dim

    def same_as(self, other: "SpatialGrid") -> bool:
        return self.dim == other.dim and self.cells == other.cells


def build_grid(dim: int, cells: int) -> SpatialGrid:
    """Build a uniform grid with Dirichlet boundary bookkeeping.

    Requires dim in {1, 2} and cells >= 8 so that every shipped region can
    contain at least one interior node.
    """
    if dim not in (1, 2):
        raise GeometryError(f"dim must be 1 or 2, got {dim}")
    if cells < 8:
        raise GeometryError(f"cells must be >= 8, got {cells}")
    axis = np.linspace(0.0, 1.0, cells + 1)
    h = 1.0 / cells
    w1 = np.full(cells + 1, h)
    w1[0] = w1[-1] = h / 2.0
    if dim == 1:
        nodes = axis[:, None]
        boundary = np.zeros(cells + 1, dtype=bool)
        boundary[0] = boundary[-1] = True
        weights = w1
    else:
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        nodes = np.column_stack([X.ravel(), Y.ravel()])
        bx = np.zeros(cells + 1, dtype=bool)
        bx[0] = bx[-1] = True
        BX, BY = np.meshgrid(bx, bx, indexing="ij")
        boundary = (BX | BY).ravel()
    if dim == 2:
        weights = np.outer(w1, w1).ravel()
    interior_idx = np.flatnonzero(~boundary)
    return SpatialGrid(
        dim=dim,
        cells=cells,
        h=h,
        nodes=_frozen(nodes),
        boundary=boundary.copy(),
        weights=_frozen(weights),
        interior_idx=interior_idx.copy(),
    )


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Uniform partition of [0, T] with M steps (M + 1 slices)."""

    T: float
    steps: int
    tau: float
    times: np.ndarray

    @property
    def n_slices(self) -> int:
        return self.steps + 1

    def same_as(self, other: "TimeGrid") -> bool:
        return self.steps == other.steps and abs(self.T - other.T) < 1e-14 * max(1.0, self.T)


def build_time_grid(T: float, steps: int) -> TimeGrid:
    if not (T > 0):
        raise GeometryError(f"horizon T must be positive, got {T}")
    if steps < 16:
        raise GeometryError(f"time steps must be >= 16, got {steps}")
    tau = T / steps
    times = np.linspace(0.0, T, steps + 1)
    return TimeGrid(T=float(T), steps=int(steps), tau=tau, times=_frozen(times))


@dataclass(frozen=True, eq=False)
class Field:
    """A scalar function sampled on every grid node.  Immutable."""

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_nodes,):
            raise GridMismatchError(
                f"field shape {v.shape} does not match grid with {self.grid.n_nodes} nodes"
            )
        if not np.all(np.isfinite(v)):
            raise CoefficientError("field contains non-finite values")
        object.__setattr__(self, "values", _frozen(v))

    def norm(self) -> float:
        return float(np.sqrt(space_inner(self, self)))


@dataclass(frozen=True, eq=False)
class SpaceTimeField:
    """A trajectory: one spatial field per time slice (steps + 1 rows)."""

    grid: SpatialGrid
    tgrid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        want = (self.tgrid.n_slices, self.grid.n_nodes)
        if v.shape != want:
            raise GridMismatchError(f"trajectory shape {v.shape}, expected {want}")
        if not np.all(np.isfinite(v)):
            raise CoefficientError("trajectory contains non-finite values")
        object.__setattr__(self, "values", _frozen(v))

    def slice(self, m: int) -> Field:
        return Field(self.grid, self.values[m])

    def norm(self) -> float:
        return float(np.sqrt(spacetime_inner(self, self)))


def zero_field(grid: SpatialGrid) -> Field:
    return Field(grid, np.zeros(grid.n_nodes))


def zero_trajectory(grid: SpatialGrid, tgrid: TimeGrid) -> SpaceTimeField:
    return SpaceTimeField(grid, tgrid, np.zeros((tgrid.n_slices, grid.n_nodes)))


# ---------------------------------------------------------------------------
# quadrature


def space_inner(f: Field, g: Field) -> float:
    """Trapezoid L2(Omega) inner product."""
    if not f.grid.same_as(g.grid):
        raise GridMismatchError("inner product of fields on different grids")
    return float(np.dot(f.grid.weights * f.values, g.values))


def spacetime_inner(f: SpaceTimeField, g: SpaceTimeField) -> float:
    """Trapezoid-in-time, trapezoid-in-space L2(Q) inner product."""
    if not (f.grid.same_as(g.grid) and f.tgrid.same_as(g.tgrid)):
        raise GridMismatchError("inner product of trajectories on different grids")
    per_slice = (f.values * g.values) @ f.grid.weights
    tw = np.full(f.tgrid.n_slices, f.tgrid.tau)
    tw[0] = tw[-1] = f.tgrid.tau / 2.0
    return float(np.dot(tw, per_slice))


def inner_product(f, g) -> float:
    """Trapezoid inner product over Omega (fields) or Q (trajectories)."""
    if isinstance(f, Field):
        return space_inner(f, g)
    if isinstance(f, SpaceTimeField):
        return spacetime_inner(f, g)
    raise TypeError(f"inner_product expects Field or SpaceTimeField, got {type(f)!r}")


def stepped_pairing(
    grid: SpatialGrid,
    tgrid: TimeGrid,
    a: np.ndarray,
    b: np.ndarray,
    mask: np.ndarray | None = None,
) -> float:
    """Duality pairing tau * sum_{m=1..M} <a^m, b^m>_Omega.

    The time rule matches the implicit Euler stepping (sources live on
    slices 1..M), which is what makes the discrete optimality systems and
    transposition identities exact.  ``mask`` optionally restricts the
    spatial integral to a node subset (plain indicator, full node weight).
    """
    w = grid.weights if mask is None else grid.weights * mask
    per_slice = (a[1:] * b[1:]) @ w
    return float(tgrid.tau * per_slice.sum())


def stepped_norm2(grid, tgrid, a, mask=None) -> float:
    return stepped_pairing(grid, tgrid, a, a, mask=mask)


# ---------------------------------------------------------------------------
# difference operators


def gradient_matrices(grid: SpatialGrid) -> list[sp.csr_matrix]:
    """Central-difference matrix per axis, interior rows and columns only.

    Boundary rows and boundary columns are identically zero, so on the
    Dirichlet subspace each matrix is exactly antisymmetric.  Used for the
    first-order terms of every evolution operator.
    """
    n1 = grid.cells + 1
    e = np.ones(n1)
    D1 = sp.diags([e[:-1] / (2 * grid.h), -e[:-1] / (2 * grid.h)], [1, -1], format="lil")
    D1[0, :] = 0.0
    D1[-1, :] = 0.0
    D1[:, 0] = 0.0
    D1[:, -1] = 0.0
    D1 = D1.tocsr()
    if grid.dim == 1:
        return [D1]
    I1 = sp.identity(n1, format="csr")
    mask = sp.diags((~grid.boundary).astype(float))
    Dx = mask @ sp.kron(D1, I1, format="csr") @ mask
    Dy = mask @ sp.kron(I1, D1, format="csr") @ mask
    return [Dx.tocsr(), Dy.tocsr()]


def gradient(f: Field) -> np.ndarray:
    """Pointwise gradient, (n_nodes, dim): central inside, one-sided on the boundary."""
    g = f.grid
    h = g.h
    if g.dim == 1:
        v = f.values
        out = np.empty((g.n_nodes, 1))
        out[1:-1, 0] = (v[2:] - v[:-2]) / (2 * h)
        out[0, 0] = (v[1] - v[0]) / h
        out[-1, 0] = (v[-1] - v[-2]) / h
        return out
    n1 = g.cells + 1
    v = f.values.reshape(n1, n1)
    out = np.empty((g.n_nodes, 2))
    gx = np.empty_like(v)
    gx[1:-1, :] = (v[2:, :] - v[:-2, :]) / (2 * h)
    gx[0, :] = (v[1, :] - v[0, :]) / h
    gx[-1, :] = (v[-1, :] - v[-2, :]) / h
    gy = np.empty_like(v)
    gy[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2 * h)
    gy[:, 0] = (v[:, 1] - v[:, 0]) / h
    gy[:, -1] = (v[:, -1] - v[:, -2]) / h
    out[:, 0] = gx.ravel()
    out[:, 1] = gy.ravel()
    return out


def trajectory_gradient(y: SpaceTimeField) -> np.ndarray:
    """Gradient of every slice, shape (M+1, n_nodes, dim)."""
    out = np.empty((y.tgrid.n_slices, y.grid.n_nodes, y.grid.dim))
    for m in range(y.tgrid.n_slices):
        out[m] = gradient(Field(y.grid, y.values[m]))
    return out


def _as_diag_coeff(grid: SpatialGrid, b: np.ndarray) -> np.ndarray:
    """Normalize a diffusion coefficient to shape (n_nodes, dim).

    Scalar per-node fields are treated as isotropic.  Full off-diagonal
    tensors are not supported by the flux-form assembly and are rejected.
    """
    b = np.asarray(b, dtype=float)
    if b.shape == (grid.n_nodes,):
        return np.repeat(b[:, None], grid.dim, axis=1)
    if b.shape == (grid.n_nodes, grid.dim):
        return b
    raise CoefficientError(
        "diffusion coefficient must be (n_nodes,) scalar or (n_nodes, dim) diagonal; "
        f"got shape {b.shape}"
    )


def assemble_divergence_operator(grid: SpatialGrid, diffusion: np.ndarray) -> sp.csr_matrix:
    """Assemble -div(b grad .) in conservative flux form.

    One axis at a time: row k of the 1D building block is
    -(1/h^2) * [ b_{k+1/2} (y_{k+1} - y_k) - b_{k-1/2} (y_k - y_{k-1}) ]
    with arithmetic-mean face coefficients b_{k±1/2} = (b_k + b_{k±1})/2.
    Boundary rows and columns are zero: the matrix is the Dirichlet
    restriction of the operator embedded at full size, and it is exactly
    symmetric because each face coefficient is shared by its two rows.
    """
    bd = _as_diag_coeff(grid, diffusion)
    n = grid.n_nodes
    h2 = grid.h * grid.h
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    stride = 1 if grid.dim == 1 else grid.cells + 1
    strides = (stride,) if grid.dim == 1 else (grid.cells + 1, 1)
    interior = ~grid.boundary
    for ax in range(grid.dim):
        s = strides[ax]
        bax = bd[:, ax]
        idx = np.arange(n)
        # faces between node k and node k+s along this axis
        if grid.dim == 1:
            has_right = idx < n - 1
        else:
            n1 = grid.cells + 1
            ix, iy = np.divmod(idx, n1)
            along = ix if ax == 0 else iy
            has_right = along < n1 - 1
        k = idx[has_right]
        face = 0.5 * (bax[k] + bax[k + s]) / h2
        # face contributes to rows k and k+s; keep only interior rows/cols
        for r, c, sign in ((k, k, 1.0), (k, k + s, -1.0), (k + s, k + s, 1.0), (k + s, k, -1.0)):
            keep = interior[r] & interior[c]
            rows.append(r[keep])
            cols.append(c[keep])
            vals.append(sign * face[keep])
    A = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    A.sum_duplicates()
    return A


@dataclass(frozen=True, eq=False)
class SlicePattern:
    """Interior-only CSR sparsity of a slice matrix  I + tau L  on one grid shape.

    Rows and columns are the interior unknowns in ``interior_idx`` order.
    Row r holds the diagonal and, for every axis, the neighbours r -/+ stride
    that are interior nodes.  ``rows[p]`` is the row of data slot p and
    ``diag[r]`` the data slot of (r, r);
    ``neighbours`` holds one (axis, stride, side, rows, slots) entry per axis
    and side, +1 before -1, where ``rows`` are the interior rows whose
    neighbour on that side is interior and ``slots`` the data slots of those
    entries.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    rows: np.ndarray
    diag: np.ndarray
    neighbours: tuple

    @property
    def nnz(self) -> int:
        return self.indices.size

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))


def slice_pattern(grid: SpatialGrid) -> SlicePattern:
    """The slice pattern of the grid's shape, built once per (dim, cells)."""
    return _slice_pattern(grid.dim, grid.cells)


@functools.lru_cache(maxsize=8)
def _slice_pattern(dim: int, cells: int) -> SlicePattern:
    grid = build_grid(dim, cells)
    ii = grid.interior_idx
    ni = ii.size
    pos = np.full(grid.n_nodes, -1)
    pos[ii] = np.arange(ni)
    strides = (1,) if dim == 1 else (cells + 1, 1)
    rows, cols, sides = [np.arange(ni)], [np.arange(ni)], []
    for ax, s in enumerate(strides):
        for side in (1, -1):
            nb = pos[ii + side * s]
            ok = np.flatnonzero(nb >= 0)
            sides.append((ax, s, side, ok))
            rows.append(ok)
            cols.append(nb[ok])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((cols, rows))
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size)
    neighbours = []
    start = ni
    for ax, s, side, ok in sides:
        neighbours.append((ax, s, side, _frozen_int(ok), _frozen_int(slot[start:start + ok.size])))
        start += ok.size
    return SlicePattern(
        n=ni,
        indptr=_frozen_int(np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=ni))])),
        indices=_frozen_int(cols[order]),
        rows=_frozen_int(rows[order]),
        diag=_frozen_int(slot[:ni]),
        neighbours=tuple(neighbours),
    )


def _frozen_int(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.int32)
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# cutoff functions


def smoothstep(t: np.ndarray) -> np.ndarray:
    """Quintic smoothstep 6t^5 - 15t^4 + 10t^3 clamped to [0, 1]; C^2 at both ends."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _axis_bump(x: np.ndarray, outer: tuple[float, float], inner: tuple[float, float]) -> np.ndarray:
    a_out, b_out = outer
    a_in, b_in = inner
    up = smoothstep((x - a_out) / (a_in - a_out))
    down = smoothstep((b_out - x) / (b_out - b_in))
    return np.minimum(up, down)


@dataclass(frozen=True, eq=False)
class CutoffRegion:
    """A smooth indicator xi with 1 on the inner region and 0 outside the outer one.

    Regions are open intervals (dim=1) or axis-aligned open rectangles
    (dim=2, one interval per axis).  ``values`` samples xi on the grid;
    ``inner_mask`` / ``outer_mask`` are strict-interior node indicators of
    the two regions, used for restricted quadratures.
    """

    grid: SpatialGrid
    inner: tuple
    outer: tuple
    values: np.ndarray
    inner_mask: np.ndarray
    outer_mask: np.ndarray

    @property
    def field(self) -> Field:
        return Field(self.grid, self.values)


def _normalize_box(dim: int, iv) -> tuple:
    iv = tuple(iv)
    if dim == 1:
        if len(iv) == 2 and np.isscalar(iv[0]):
            return ((float(iv[0]), float(iv[1])),)
    box = tuple((float(a), float(b)) for a, b in iv)
    if len(box) != dim:
        raise GeometryError(f"region needs {dim} interval(s), got {iv!r}")
    return box


def boxes_intersect(dim: int, a, b) -> bool:
    """Open-box intersection test, per axis."""
    A, B = _normalize_box(dim, a), _normalize_box(dim, b)
    return all(max(x[0], y[0]) < min(x[1], y[1]) for x, y in zip(A, B))


def box_mask(grid: SpatialGrid, box) -> np.ndarray:
    """Indicator of nodes strictly inside an open box."""
    B = _normalize_box(grid.dim, box)
    mask = np.ones(grid.n_nodes, dtype=bool)
    for ax, (a, b) in enumerate(B):
        c = grid.nodes[:, ax]
        mask &= (c > a) & (c < b)
    return mask


def build_cutoff(grid: SpatialGrid, inner, outer) -> CutoffRegion:
    """Build a quintic-smoothstep cutoff for closure(inner) strictly inside outer.

    Raises GeometryError when the strict inclusion fails on any axis or when
    a transition band collapses.
    """
    In = _normalize_box(grid.dim, inner)
    Out = _normalize_box(grid.dim, outer)
    for ax, ((ai, bi), (ao, bo)) in enumerate(zip(In, Out)):
        if not (0.0 <= ao < ai < bi < bo <= 1.0):
            raise GeometryError(
                f"cutoff axis {ax}: need 0 <= outer_lo < inner_lo < inner_hi < outer_hi <= 1, "
                f"got outer=({ao}, {bo}) inner=({ai}, {bi})"
            )
    vals = np.ones(grid.n_nodes)
    for ax in range(grid.dim):
        vals *= _axis_bump(grid.nodes[:, ax], Out[ax], In[ax])
    return CutoffRegion(
        grid=grid,
        inner=In,
        outer=Out,
        values=_frozen(vals),
        inner_mask=box_mask(grid, In),
        outer_mask=box_mask(grid, Out),
    )


def axis_profiles(region: CutoffRegion) -> list[np.ndarray]:
    """Per-axis 1D cutoff profile on the axis coordinate array (diagnostics)."""
    x = region.grid.axis_coords()
    return [
        _axis_bump(x, region.outer[ax], region.inner[ax]) for ax in range(region.grid.dim)
    ]
