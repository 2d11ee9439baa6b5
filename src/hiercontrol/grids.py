"""Grids, fields, quadrature, difference operators and cutoff functions.

The package discretizes the unit interval or square (``ADMITTED_DIMS``)
with a uniform node lattice, homogeneous Dirichlet boundary, and backward
Euler in time.  ``SpatialGrid.strides`` owns the node order, and every
per-node construction here is written once over the axes with it.
Everything downstream (solvers, Nash iterations, the weighted control
Gramian) is built from the operators assembled here, so two properties
are enforced exactly rather than approximately:

* the divergence-form diffusion operator is assembled in flux form with
  arithmetic-mean face coefficients, which makes the matrix equal to its
  own transpose bit for bit;
* first-order terms use the central-difference matrix restricted to
  interior rows and columns, which is exactly antisymmetric, so the
  discrete adjoint of an advective term is the matching divergence-form
  term with flipped sign.

``solvers.slice_operator`` computes every slice matrix I + tau L on slices
of the node lattice, equal to the composition of these two operators bit
for bit.

Fields carry their values on the full node set; boundary entries of a
Dirichlet field are zero and all solve paths only ever touch interior
unknowns.  Spatial quadrature is the tensor trapezoid rule.  Because the
trapezoid weight is the constant h^dim at every interior node, weighted
adjoint identities reduce to plain matrix transposition on the interior
subspace.

The whole quadrature lives here: the trapezoid rule in space and, in time,
tau sum_{m=1..M}, the rule backward Euler's summation by parts makes exact.
No other module reads the node weights; the step itself is in ``solvers``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import CoefficientError, GeometryError, GridMismatchError


ADMITTED_DIMS = (1, 2)  # the spatial dimensions the package discretizes


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SpatialGrid:
    """Uniform node lattice on the unit interval or unit square; every array read-only.

    Attributes
    ----------
    dim : 1 or 2.
    cells : number of cells per axis (nodes per axis = cells + 1).
    h : mesh width, 1 / cells.
    nodes : (n_nodes, dim) node coordinates, in the order of ``strides``.
    boundary : boolean mask of boundary nodes.
    weights : trapezoid quadrature weight per node (tensor product).
    interior_idx : indices of the interior nodes, ascending.
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

    @property
    def strides(self) -> tuple[int, ...]:
        """The node order: node i sits at (i // strides[ax]) % (cells + 1) on axis ax."""
        return tuple((self.cells + 1) ** (self.dim - 1 - ax) for ax in range(self.dim))

    @property
    def interior(self):
        """Interior unknowns of a full-grid array's last axis: a slice in 1D,
        so that the selected blocks stay views, else ``interior_idx``."""
        return slice(1, -1) if self.dim == 1 else self.interior_idx

    def same_as(self, other: "SpatialGrid") -> bool:
        return self.dim == other.dim and self.cells == other.cells


def build_grid(dim: int, cells: int) -> SpatialGrid:
    """Build a uniform grid with Dirichlet boundary bookkeeping.

    Requires dim in ADMITTED_DIMS and cells >= 8 so that every shipped
    region can contain at least one interior node.
    """
    if dim not in ADMITTED_DIMS:
        raise GeometryError(f"dim must be {' or '.join(map(str, ADMITTED_DIMS))}, got {dim}")
    if cells < 8:
        raise GeometryError(f"cells must be >= 8, got {cells}")
    axis = np.linspace(0.0, 1.0, cells + 1)
    h = 1.0 / cells
    b1 = (axis == 0.0) | (axis == 1.0)
    w1 = np.where(b1, h / 2.0, h)
    nodes = np.column_stack([X.ravel() for X in np.meshgrid(*[axis] * dim, indexing="ij")])
    boundary = functools.reduce(np.logical_or.outer, [b1] * dim).ravel()
    weights = functools.reduce(np.multiply.outer, [w1] * dim).ravel()
    return SpatialGrid(
        dim=dim,
        cells=cells,
        h=h,
        nodes=_frozen(nodes),
        boundary=_frozen(boundary),
        weights=_frozen(weights),
        interior_idx=_frozen(np.flatnonzero(~boundary)),
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


# ---------------------------------------------------------------------------
# quadrature


def spatial_pairing(
    grid: SpatialGrid,
    a: np.ndarray,
    b: np.ndarray,
    mask: np.ndarray | None = None,
) -> float | np.ndarray:
    """Trapezoid pairing <a, b>_Omega: a float for two fields, the array of
    slice pairings for two (slices, n_nodes) stacks.  Each is np.dot(w * a,
    b), so a stack's pairings equal those of its slices alone bit for bit.
    ``mask`` restricts the integral as in ``stepped_pairing``."""
    w = grid.weights if mask is None else grid.weights * mask
    wa = w * a
    if wa.ndim == 1:
        return float(np.dot(wa, b))
    return np.array([np.dot(x, y) for x, y in zip(wa, b)])


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


def stepped_vector(grid: SpatialGrid, tgrid: TimeGrid, a: np.ndarray) -> np.ndarray:
    """Slices 1..M of ``a`` (or of a stack of trajectories) scaled by the
    square root of the stepped weights tau * w_i and flattened, so that its
    squared 2-norm is the stepped norm of ``stepped_pairing``."""
    return (a[..., 1:, :] * np.sqrt(tgrid.tau * grid.weights)).ravel()


# ---------------------------------------------------------------------------
# difference operators


def gradient_matrices(grid: SpatialGrid) -> list[sp.csr_matrix]:
    """Central-difference matrix per axis, interior rows and columns only.

    Boundary rows and boundary columns are identically zero, so on the
    Dirichlet subspace each matrix is exactly antisymmetric.  With
    ``assemble_divergence_operator`` it composes the reference evolution
    operator that ``solvers.slice_operator`` equals bit for bit.
    """
    e = np.full(grid.cells, 1.0 / (2 * grid.h))
    D1 = sp.diags([e, -e], [1, -1], format="csr")
    I1 = sp.identity(grid.cells + 1, format="csr")
    mask = sp.diags((~grid.boundary).astype(float))
    # D1 on axis ax, the identity on the others; the mask zeroes boundary rows/columns
    chains = (functools.reduce(sp.kron, [D1 if k == ax else I1 for k in range(grid.dim)])
              for ax in range(grid.dim))
    return [(mask @ D @ mask).tocsr() for D in chains]


def gradient(grid: SpatialGrid, values: np.ndarray) -> np.ndarray:
    """Pointwise gradient of nodal values: central inside, one-sided on the boundary.

    ``values`` has shape (..., n_nodes): one field (n_nodes,), a trajectory
    (M+1, n_nodes) or any stack of them.  The result has shape
    (..., n_nodes, dim), and every slice of a stack equals the gradient of
    that slice alone bit for bit.  Each entry is one subtraction and one
    division, read off stencil tables cached per grid shape.
    """
    v = np.asarray(values, dtype=float)
    if v.shape[-1:] != (grid.n_nodes,):
        raise GridMismatchError(
            f"values of shape {v.shape} do not end in the grid's {grid.n_nodes} nodes"
        )
    plus, minus, width = _gradient_stencil(grid.dim, grid.cells)
    out = v.take(plus, axis=-1)
    out -= v.take(minus, axis=-1)
    out /= width
    return out


def add_divergence(grid: SpatialGrid, field: np.ndarray, acc: np.ndarray) -> None:
    """Add sum_ax d_ax field[..., ax] to ``acc`` (..., n_nodes) in place, in
    axis order, for ``field`` (..., n_nodes, dim); term ax equals column ax
    of ``gradient(grid, field[..., ax])`` bit for bit, computed alone."""
    plus, minus, width = _gradient_stencil(grid.dim, grid.cells)
    for ax in range(grid.dim):
        f = field[..., ax]
        d = f.take(plus[:, ax], axis=-1)
        d -= f.take(minus[:, ax], axis=-1)
        d /= width[:, ax]
        acc += d


@functools.lru_cache(maxsize=8)
def _gradient_stencil(dim: int, cells: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n_nodes, dim) tables of ``gradient``: d_ax v at node i is (v[plus] -
    v[minus]) / width, with i +/- stride over 2h inside and, at either end
    of the axis, i itself in place of the missing neighbour over h."""
    grid = build_grid(dim, cells)
    idx = np.arange(grid.n_nodes)[:, None]
    s = np.array(grid.strides)
    along = (idx // s) % (cells + 1)  # (n_nodes, dim) position on each axis
    first, last = along == 0, along == cells
    plus = np.where(last, idx, idx + s)
    minus = np.where(first, idx, idx - s)
    width = np.where(first | last, grid.h, 2 * grid.h)
    return tuple(map(_frozen, (plus, minus, width)))


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
    interior = ~grid.boundary
    idx = np.arange(n)
    for ax, s in enumerate(grid.strides):
        bax = bd[:, ax]
        # faces between node k and node k+s along this axis
        k = idx[(idx // s) % (grid.cells + 1) < grid.cells]
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
    ``inner_mask`` / ``outer_mask`` are read-only strict-interior node
    indicators of the two regions, used for restricted quadratures.
    """

    grid: SpatialGrid
    inner: tuple
    outer: tuple
    values: np.ndarray
    inner_mask: np.ndarray
    outer_mask: np.ndarray


def _normalize_box(dim: int, iv) -> tuple:
    iv = tuple(iv)
    if dim == 1 and len(iv) == 2 and np.isscalar(iv[0]):
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
    masks = box_mask(grid, In), box_mask(grid, Out)
    for mask in masks:
        mask.setflags(write=False)
    return CutoffRegion(
        grid=grid,
        inner=In,
        outer=Out,
        values=_frozen(vals),
        inner_mask=masks[0],
        outer_mask=masks[1],
    )
