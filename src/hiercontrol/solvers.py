"""Implicit parabolic solvers: forward, adjoint, quasi-linear.

Time stepping is backward Euler throughout.  A forward problem

    y_t + L^m y = s,   L^m y = -div(b grad y) + f_adv . grad y + f0 y,

advances through (I + tau L^m) y^m = y^{m-1} + tau s^m for m = 1..M, with the
operator and source sampled at the target slice.  The backward march is the
exact discrete adjoint of the forward march.  The recursion
(I + tau (L^m)^T) p^m = p^{m+1} + tau r^m runs down from a seed at m = M and
solves against the transposed factorization of the same slice matrices, so
the summation-by-parts identity

    <y^M, seed> - <y^0, p^1> = tau sum_{m=1..M} ( <s^m, p^m> - <y^m, r^m> )

holds to rounding.  The returned trajectory stores the multiplier at slices
1..M and repeats slice 1 at slice 0 (the value the identity pairs with the
initial datum).

This module owns the step; ``grids`` owns the quadrature the identity
holds in.  Outside ``grids`` only the step and the independent KKT oracle
read tau.

Both marches also carry a stack of k trajectories through one set of
factors: a seed of shape (k, n) with sources of shape (k, M+1, n) returns
(k, M+1, n), and each step is one solve with k right-hand sides.  Column j
of a stacked march is the march of seed j and source j; in 1D it equals
that single march bit for bit, in 2D to rounding, and the identity above
holds column by column.

Every slice matrix I + tau L^m, in every dimension, comes from one
function: ``slice_operator`` computes its diagonal and one (upper, lower)
off-diagonal pair per axis on slices of the node lattice, as arrays of the
interior lattice, with vectorised arithmetic straight from the coefficient
arrays, equal bit for bit to the flux-form composition of
``assemble_divergence_operator`` and ``gradient_matrices``.  The linear
marches (``state_factors``, ``sensitivity_factors``) assemble a whole
stack of slices in one call, and a roster family that does not change in
time is assembled and factored once; each quasi-linear refresh assembles
its one slice.  Every slice matrix is factored by ``factor_slice`` from
those parts and solved by the one solve ``bind_solve`` binds on the
factors: in 1D LAPACK dgttrf/dgttrs on the three bands, whose transposed
solve on the same factors keeps the adjoint march exact.  In 2D a slice
whose diagonal is one value and whose off-diagonal parts along each axis
are one value, compared exactly (constant coefficients without
advection: every slice of a heat or constant-reaction roster), is
diagonal in the discrete sine basis and is solved by transforms with the
cached sine matrix S (S X S, a scaling by the reciprocal eigenvalues,
S X S again); the matrix is symmetric, so one solve serves both
directions, and it inverts the same matrix as an LU would, to rounding.
Every other 2D slice goes to SuperLU on a CSC matrix laid out from cached
interior-lattice coordinates, with the minimum-degree ordering of
A^T + A, which suits the structurally symmetric slice matrix and leaves
about 0.6x the fill of the default COLAMD ordering.  A march step is one
call of that solve on a contiguous slot, solved in place.

The quasi-linear forward solver freezes the diffusion a(y, grad y) at the
current iterate and linearizes f around it, with REFRESHES within-step
refreshes.
A nonlinearity whose coefficients do not depend on the state (constant a,
f_y and f_z and f = f_y y + f_z . grad y: the heat and linear-f presets)
is marched as the linear equation it is, on one factorization, with no
refresh and on the step loop of the linear marches; for constant a and
f = 0 every step equals the linear heat step bit for bit.  a and f come
as a ``Nonlinearity``: twelve callbacks, the values and the first and
second derivatives, whose output shapes are checked once when it is
built, so this module, the follower and leader linearizations and the
second-order check use the outputs as they come.
Every diffusion, frozen or linearized, must stay at or above one floor,
RHO0.

``anderson`` is the one fixed-point loop of the package: the outer
linearize-and-control iteration, the follower equilibrium and the coupled
block Gauss-Seidel sweep all run through it, with Anderson mixing and one
relative stop in the stepped weighted norm.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import BlowUpError, CoefficientError, SolverError
from .grids import (
    ADMITTED_DIMS,
    CutoffRegion,
    Field,
    SpaceTimeField,
    SpatialGrid,
    TimeGrid,
    gradient,
    spatial_pairing,
    stepped_vector,
)

RHO0 = 0.1           # ellipticity floor of every diffusion coefficient
BLOWUP_FACTOR = 10.0
REFRESHES = 2        # within-step refreshes of the quasi-linear march
ANDERSON_DEPTH = 5   # difference window of the fixed-point mixing


# ---------------------------------------------------------------------------
# coefficient containers


@dataclass(frozen=True, eq=False)
class LinearCoefficients:
    """Frozen coefficient roster of one linearized hierarchic system.

    The state equation uses (b, f_adv, f0):   y_t - div(b grad y)
    + f_adv . grad y + f0 y.  The follower adjoint equations use
    (B, g, g0):   p_t + div(B grad p) + g . grad p + g0 p = r, whose
    formal-adjoint forward form is  w_t - div(B grad w) + div(g w) - g0 w.
    All arrays are sampled per slice: leading axis M+1.  Both diffusions
    must stay at or above RHO0.
    """

    grid: SpatialGrid
    tgrid: TimeGrid
    b: np.ndarray
    f_adv: np.ndarray | None
    f0: np.ndarray | None
    B: np.ndarray
    g: np.ndarray | None
    g0: np.ndarray | None

    def __post_init__(self):
        M1, n, dim = self.tgrid.n_slices, self.grid.n_nodes, self.grid.dim
        for name in ("b", "B"):
            arr = getattr(self, name)
            if arr.shape not in ((M1, n), (M1, n, dim)):
                raise CoefficientError(f"{name} has shape {arr.shape}, expected ({M1}, {n}[, dim])")
        for name in ("f_adv", "g"):
            arr = getattr(self, name)
            if arr is not None and arr.shape != (M1, n, dim):
                raise CoefficientError(f"{name} has shape {arr.shape}, expected ({M1}, {n}, dim)")
        for name in ("f0", "g0"):
            arr = getattr(self, name)
            if arr is not None and arr.shape != (M1, n):
                raise CoefficientError(f"{name} has shape {arr.shape}, expected ({M1}, {n})")
        # a NaN compares False against RHO0 and against every change in time,
        # so it would pass the ellipticity check and _time_constant unseen
        for name in ("b", "f_adv", "f0", "B", "g", "g0"):
            arr = getattr(self, name)
            finite = True if arr is None else np.isfinite(arr)
            if not np.all(finite):
                k = int(finite.argmin())
                m, node = self._slice_node(arr, k)
                raise CoefficientError(
                    f"{name} is not finite at slice {m}, node {node}: {arr.flat[k]}"
                )
        for name in ("b", "B"):
            arr = getattr(self, name)
            if float(arr.min()) < RHO0:
                m, node = self._slice_node(arr, int(arr.argmin()))
                raise CoefficientError(
                    f"ellipticity violated for {name}: min {arr.min():.6g} < rho0={RHO0} "
                    f"at slice {m}, node {node}"
                )

    def _slice_node(self, arr: np.ndarray, k: int) -> tuple[int, int]:
        """(slice, node) of flat index k of a roster array."""
        m, rest = divmod(k, arr[0].size)
        return m, rest if arr.ndim == 2 else rest // self.grid.dim


def constant_coefficients(
    grid: SpatialGrid,
    tgrid: TimeGrid,
    b=1.0,
    f_adv=None,
    f0=None,
    B=None,
    g=None,
    g0=None,
) -> LinearCoefficients:
    """Broadcast scalars / per-node arrays to full slice-sampled rosters.

    B defaults to b (self-adjoint principal part), g and g0 default to the
    state-side first/zero order families being absent.
    """
    M1, n, dim = tgrid.n_slices, grid.n_nodes, grid.dim

    def scal(v):
        if v is None:
            return None
        v = np.asarray(v, dtype=float)
        if v.ndim == 0:
            return np.full((M1, n), float(v))
        if v.shape == (n,):
            return np.broadcast_to(v, (M1, n)).copy()
        return v

    def vec(v):
        if v is None:
            return None
        v = np.asarray(v, dtype=float)
        if v.ndim == 0:
            return np.full((M1, n, dim), float(v))
        if v.shape == (dim,):
            return np.broadcast_to(v, (M1, n, dim)).copy()
        if v.shape == (n, dim):
            return np.broadcast_to(v, (M1, n, dim)).copy()
        return v

    bb = scal(b)
    return LinearCoefficients(
        grid=grid,
        tgrid=tgrid,
        b=bb,
        f_adv=vec(f_adv),
        f0=scal(f0),
        B=scal(B) if B is not None else bb.copy(),
        g=vec(g),
        g0=scal(g0),
    )


# ---------------------------------------------------------------------------
# slice operators and factorizations


def slice_operator(
    grid: SpatialGrid,
    tau: float,
    b: np.ndarray | None = None,
    f_adv: np.ndarray | None = None,
    f_div: np.ndarray | None = None,
    f0: np.ndarray | None = None,
) -> tuple:
    """I + tau L on the interior unknowns as diagonals of the interior lattice.

    L = -div(b grad .) + f_adv . grad + div(f_div .) + f0 restricted to the
    interior unknowns; every term is optional.  Coefficients are per node,
    b as (..., n) isotropic or (..., n, dim) diagonal, f_adv and f_div as
    (..., n, dim), f0 as (..., n); leading axes stack slices, the same for
    every given coefficient.

    Returns ``(diag, offdiag)`` on the interior lattice, cells - 1 nodes
    per axis, whose C order is the order of ``interior_idx``.  ``diag`` has
    the lattice shape; ``offdiag`` holds one (upper, lower) pair per axis:
    the entries from each interior node to its neighbour one step up,
    resp. down, that axis, with the last, resp. first, index along the axis
    dropped, where that neighbour is a boundary node.  In 1D the three are
    the bands of a tridiagonal matrix.

    Everything is computed on slices of the node lattice.  Each face
    (b_k + b_{k+1}) / 2 / h^2 is computed once per axis.  The diagonal sums
    right + left face per axis, in axis order, then f0, and is 1 + tau
    diag; an off-diagonal entry is tau (-face + f_adv (+-c) + (+-c) f_div
    at the neighbour), c = 1/(2h).  That is the summation order of the
    flux-form composition assemble_divergence_operator + diag(f_adv) D +
    D diag(f_div) + diag(f0), so every entry equals it bit for bit.
    """
    dim = grid.dim
    lattice = (grid.cells + 1,) * dim
    h2 = grid.h * grid.h
    c = 1.0 / (2 * grid.h)
    interior, axes = _lattice_cuts(dim)

    def nodes(v):
        """Per-node values (..., n) on the node lattice."""
        return v.reshape(v.shape[:-1] + lattice)

    isotropic = b is not None and b.shape[-1] == grid.n_nodes
    if isotropic:
        b_ax = nodes(b)
    diag = None
    offdiag = []
    for ax, (below, above, right, left, between, up, down) in enumerate(axes):
        upper = lower = None
        if b is not None:
            if not isotropic:
                b_ax = nodes(b[..., ax])
            face = 0.5 * (b_ax[below] + b_ax[above]) / h2
            diag = face[right] if diag is None else diag + face[right]
            diag = diag + face[left]
            upper = lower = -face[between]
        if f_adv is not None:
            adv = nodes(f_adv[..., ax])
            upper = _plus(upper, adv[up] * c)
            lower = _plus(lower, adv[down] * (-c))
        if f_div is not None:
            div = nodes(f_div[..., ax])
            upper = _plus(upper, c * div[down])
            lower = _plus(lower, (-c) * div[up])
        if upper is None:  # no term couples neighbours: f0 alone, if anything
            lead = () if f0 is None else f0.shape[:-1]
            upper = lower = np.zeros(lead + tuple(grid.cells - 1 - (k == ax) for k in range(dim)))
        offdiag.append((tau * upper, tau * lower))
    if f0 is not None:
        diag = _plus(diag, nodes(f0)[interior])
    if diag is None:  # no b, no f0: the identity's diagonal
        given = f_adv if f_adv is not None else f_div
        diag = np.zeros((() if given is None else given.shape[:-2]) + (grid.cells - 1,) * dim)
    return 1.0 + tau * diag, tuple(offdiag)


def _plus(acc, term):
    return term if acc is None else acc + term


@functools.lru_cache(maxsize=None)
def _lattice_cuts(dim: int) -> tuple:
    """The index tuples ``slice_operator`` reads the node lattice and the
    face lattice with: the interior nodes, then per axis the two nodes of
    every face on a lattice line through interior nodes (below, above),
    the faces right and left of each interior node and the faces between
    two interior nodes (right, left, between), and the interior nodes with
    an interior neighbour up, resp. down, the axis (up, down)."""
    inner, every = slice(1, -1), slice(None)

    def cut(ax, part, rest):
        return (Ellipsis,) + (rest,) * ax + (part,) + (rest,) * (dim - 1 - ax)

    return (Ellipsis,) + (inner,) * dim, tuple(
        (cut(ax, slice(None, -1), inner), cut(ax, slice(1, None), inner),
         cut(ax, slice(1, None), every), cut(ax, slice(None, -1), every), cut(ax, inner, every),
         cut(ax, slice(1, -2), inner), cut(ax, slice(2, -1), inner))
        for ax in range(dim)
    )


@functools.lru_cache(maxsize=8)
def _csc_layout(dim: int, cells: int) -> tuple:
    """(order, indices, indptr) of the CSC matrix of a 2D slice: entry k of
    the column-major data is entry order[k] of the concatenated
    ``slice_operator`` parts diag, upper_0, lower_0, upper_1, lower_1, ...,
    read off the interior-lattice coordinates of each part."""
    lattice = (cells - 1,) * dim
    idx = np.arange(np.prod(lattice)).reshape(lattice)
    rows, cols = [idx.ravel()], [idx.ravel()]
    for ax in range(dim):
        below = idx[(slice(None),) * ax + (slice(None, -1),)].ravel()
        above = idx[(slice(None),) * ax + (slice(1, None),)].ravel()
        rows += [below, above]  # upper: (p, p + e_ax); lower: (p + e_ax, p)
        cols += [above, below]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((rows, cols))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=idx.size))])
    layout = tuple(a.astype(np.int32) for a in (order, rows[order], indptr))
    for a in layout:
        a.setflags(write=False)
    return layout


@functools.lru_cache(maxsize=8)
def _sine_basis(cells: int) -> np.ndarray:
    """S = sqrt(2/N) sin(pi i j / N), i, j = 1..N-1, N = cells: the
    orthonormal, symmetric eigenvector matrix of every constant tridiagonal
    matrix on N - 1 nodes (S S = I), cached per size and read-only."""
    i = np.arange(1, cells)
    basis = np.sqrt(2.0 / cells) * np.sin(np.pi * np.outer(i, i) / cells)
    basis.setflags(write=False)
    return basis


class _SineFactors(NamedTuple):
    """A constant symmetric lattice slice, diagonal in the sine basis:
    the basis S and 1/lambda on the interior lattice."""

    basis: np.ndarray
    inverse: np.ndarray


def _sine_factors(grid: SpatialGrid, diag: np.ndarray, offdiag) -> _SineFactors | None:
    """The sine-basis factors of a slice whose diagonal is one value d and
    whose upper and lower parts along each axis are one value c_ax, compared
    exactly, or None for any other slice.  Its eigenvalues are lambda_k =
    d + 2 sum_ax c_ax cos(pi k_ax / N) on the interior lattice."""
    if np.ptp(diag) != 0:
        return None
    n = grid.cells
    cos = np.cos(np.pi * np.arange(1, n) / n)
    lam = np.full(diag.shape, diag.flat[0])
    for ax, (upper, lower) in enumerate(offdiag):
        c = upper.flat[0] if upper.size else 0.0
        if not ((upper == c).all() and (lower == c).all()):
            return None
        lam += 2.0 * c * cos.reshape((-1,) + (1,) * (grid.dim - 1 - ax))
    if not lam.all():
        raise SolverError("slice matrix is singular (a zero eigenvalue in the sine basis)")
    return _SineFactors(_sine_basis(n), 1.0 / lam)


def _sine_transform(basis: np.ndarray, x: np.ndarray, out: np.ndarray | None = None):
    """x, of shape (k,) + interior lattice, with ``basis`` applied along
    every lattice axis: S X S in 2D."""
    n = len(basis)
    for p in range(1, x.ndim - 1):
        x = np.matmul(basis, x.reshape(-1, n, n ** (x.ndim - 1 - p))).reshape(x.shape)
    return np.matmul(x, basis, out=out)


def factor_slice(grid: SpatialGrid, diag: np.ndarray, offdiag):
    """The factors of one slice matrix from its ``slice_operator`` parts.

    1D slices are tridiagonal: LAPACK dgttrf on (lower, diag, upper)
    returns (dl, d, du, du2, ipiv).  A slice of dimension >= 2 whose
    diagonal is one value d and whose upper and lower parts along each axis
    are one value c_ax (compared exactly: constant coefficients without
    advection, the identity included) is d I + sum_ax c_ax (shift up + shift
    down along ax), diagonal in the discrete sine basis (fast
    diagonalization, Lynch, Rice & Thomas 1964); its factors are the cached
    basis S and the reciprocals of the eigenvalues d + 2 sum_ax c_ax
    cos(pi k_ax / N).  They invert the same matrix SuperLU would, to
    rounding.  Every other slice of dimension >= 2 goes to SuperLU as a CSC
    matrix laid out by ``_csc_layout``, which keeps the entries that are
    exactly zero, and it returns its factor object, with the column
    ordering MMD_AT_PLUS_A, minimum degree on the pattern of A^T + A (Liu,
    ACM TOMS 1985).  The slice matrix is structurally symmetric, advection
    included, so that ordering cuts the fill to about 0.6x that of the
    default COLAMD; SuperLU keeps its partial pivoting.  A singular slice
    raises SolverError on every path.
    """
    if grid.dim > 1:
        sine = _sine_factors(grid, diag, offdiag)
        if sine is not None:
            return sine
        order, indices, indptr = _csc_layout(grid.dim, grid.cells)
        data = np.concatenate([diag, *(v for pair in offdiag for v in pair)], axis=None)[order]
        A = sp.csc_matrix((data, indices, indptr), shape=(diag.size, diag.size))
        try:
            return spla.splu(A, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SolverError(f"slice matrix is singular ({exc})") from exc
    ((upper, lower),) = offdiag
    *lu, info = dgttrf(lower, diag, upper)
    if info > 0:
        raise SolverError(f"slice matrix is singular (zero pivot {info})")
    return lu


def bind_solve(grid: SpatialGrid, lu, transpose: bool = False):
    """The in-place solve of one slice from its ``factor_slice`` factors.

    It takes an interior block b, one contiguous vector (n_interior,) or a
    Fortran-ordered (n_interior, k) block whose k columns are solved at
    once, and overwrites it with (I + tau L)^{-1} b, or with the inverse
    transpose under ``transpose``: one call into dgttrs in 1D, into
    SuperLU otherwise, each on the same factors in both directions.  Sine
    factors bind one solve for both directions, since their matrix is
    symmetric: the block, viewed as (k,) + interior lattice, is transformed
    by S along every lattice axis, scaled by 1/lambda and transformed back
    into place.
    """
    if isinstance(lu, _SineFactors):
        basis, inverse = lu
        lattice = (-1,) + inverse.shape

        def solve(b):
            x = b.T.reshape(lattice, copy=False)
            y = _sine_transform(basis, x)
            y *= inverse
            _sine_transform(basis, y, out=x)

        return solve
    trans = "T" if transpose else "N"
    if grid.dim > 1:
        solve_lu = lu.solve

        def solve(b):
            b[...] = solve_lu(b, trans)

        return solve
    dl, d, du, du2, ipiv = lu

    def solve(b):
        dgttrs(dl, d, du, du2, ipiv, b, trans, 1)

    return solve


class SliceFactors:
    """Factorizations of (I + tau L^m) on the interior unknowns, one per slice.

    ``op`` is the ``slice_operator`` output of slices 1..M, one stacked row
    each, or of a single row shared by every slice, whose one
    factorization serves them all.  Each row is one ``factor_slice``.

    ``solves(transpose)`` lists the solve of slice m at m - 1, each bound
    once per factor set and direction by ``bind_solve``; ``transpose=True``
    applies the inverse transpose with the same factors, which is what
    keeps forward/adjoint pairs exactly dual (a slice factored in the sine
    basis is symmetric, and its two solves are the same).  A march makes
    one such call per step.
    """

    def __init__(self, grid: SpatialGrid, tgrid: TimeGrid, op: tuple):
        self.grid = grid
        self.tgrid = tgrid
        diag, offdiag = op
        self._lu = [factor_slice(grid, d, [(upper[m], lower[m]) for upper, lower in offdiag])
                    for m, d in enumerate(diag)]
        self._solves: dict[bool, list] = {}

    def solves(self, transpose: bool = False) -> list:
        """The in-place solve of slice m at m - 1, m = 1..M (see the class docstring)."""
        if transpose not in self._solves:
            bound = [bind_solve(self.grid, lu, transpose) for lu in self._lu]
            self._solves[transpose] = bound * self.tgrid.steps if len(bound) == 1 else bound
        return self._solves[transpose]


def _time_constant(*arrays) -> bool:
    """True when every given roster array repeats exactly over slices 1..M."""
    for arr in arrays:
        if arr is not None and arr[1:].size and np.ptp(arr[1:], axis=0).max() > 0.0:
            return False
    return True


def _roster_slices(c: LinearCoefficients, b, f_adv=None, f_div=None, f0=None):
    """``slice_operator`` of I + tau L at slices 1..M of a roster family.

    A time-constant family is assembled once and returned as one row.
    """
    fams = (b, f_adv, f_div, f0)
    sel = slice(1, 2) if _time_constant(*fams) else slice(1, None)
    return slice_operator(c.grid, c.tgrid.tau, *(None if a is None else a[sel] for a in fams))


def state_slices(c: LinearCoefficients) -> tuple:
    """I + tau L_y at slices 1..M, L_y = -div(b grad .) + f_adv . grad + f0."""
    return _roster_slices(c, c.b, f_adv=c.f_adv, f0=c.f0)


def sensitivity_slices(c: LinearCoefficients) -> tuple:
    """I + tau L_p at slices 1..M, L_p = -div(B grad .) + div(g .) - g0."""
    return _roster_slices(c, c.B, f_div=c.g, f0=None if c.g0 is None else -c.g0)


def state_factors(c: LinearCoefficients) -> SliceFactors:
    """Factorizations of the forward state operator at slices 1..M."""
    return SliceFactors(c.grid, c.tgrid, state_slices(c))


def sensitivity_factors(c: LinearCoefficients) -> SliceFactors:
    """Factorizations of the linearized-state operator at slices 1..M.

    The operator is  -div(B grad .) + div(g .) - g0 . , the formal adjoint of
    the follower backward operator; its transposed solves implement the
    follower adjoint marches exactly.
    """
    return SliceFactors(c.grid, c.tgrid, sensitivity_slices(c))


# ---------------------------------------------------------------------------
# marches


def _check_dirichlet(grid: SpatialGrid, v: np.ndarray, what: str) -> None:
    """Raise unless ``v``, one state (n,) or a stack (k, n), vanishes on the boundary."""
    bad = np.abs(v[..., grid.boundary])
    if bad.size and bad.max() != 0.0:
        raise SolverError(f"{what} violates the Dirichlet boundary (max |value| = {bad.max():.3e})")


def _interior_block(
    traj: np.ndarray, grid: SpatialGrid, tgrid: TimeGrid, sources: np.ndarray | None
) -> np.ndarray:
    """The interior of slices 1..M of the trajectory ``traj`` a march fills,
    time axis first: (M, n_interior) for one trajectory, (M, k, n_interior)
    for a stack of k.

    It holds tau s^m, m = 1..M, gathered once, and each step overwrites its
    own slot, block[m - 1], with its solution, so every slot is one
    contiguous array the slice solve works on in place.  For one 1D
    trajectory the interior is a slice of each row, so the block is a view
    of ``traj``; otherwise it is a separate array, which the march scatters
    into ``traj`` once, after its last step.
    """
    rows = grid.interior
    if isinstance(rows, slice) and traj.ndim == 2:
        block = traj[1:, rows]
        if sources is not None:
            np.multiply(sources[1:, rows], tgrid.tau, out=block)
        return block
    block = np.empty((tgrid.steps,) + traj.shape[:-2] + (grid.n_interior,))
    if sources is None:
        return block
    if isinstance(rows, slice):
        np.multiply(np.moveaxis(sources[..., 1:, rows], -2, 0), tgrid.tau, out=block)
        return block
    # a gather by index, one trajectory at a time, since take copies a
    # strided input whole; the indices are in range, and mode "clip" writes
    # into a contiguous out directly where the default mode would buffer it
    for j in np.ndindex(traj.shape[:-2]):
        np.take(sources[j][1:], rows, axis=-1, out=block[(slice(None),) + j], mode="clip")
    block *= tgrid.tau
    return block


def _march(solves, block: np.ndarray, x: np.ndarray, sourced: bool) -> None:
    """Fill the slots of ``block`` in the order of ``solves`` from the seed x.

    Each step adds the previous solution to its slot (or copies it there
    when the march has no sources) and solves the slot in place: one call
    to the bound slice solve per step.
    """
    for solve, slot in zip(solves, block):
        if sourced:
            slot += x
        else:
            slot[...] = x
        solve(slot.T)
        x = slot


def march_forward(
    factors: SliceFactors, y0: np.ndarray, sources: np.ndarray | None
) -> np.ndarray:
    """Backward Euler from y0: (I + tau L^m) y^m = y^{m-1} + tau s^m.

    ``y0`` is one state (n,) with sources (M+1, n), or a stack (k, n) with
    sources (k, M+1, n); the trajectory has the shape of the sources, and
    each step solves all k columns at once.  The march works on one
    interior block (``_interior_block``): the sources are gathered into it
    once, before the first step, and it reaches the trajectory at most
    once, after the last, so boundary values stay zero.  Each step is one
    call of the slice's bound solve (``SliceFactors.solves``).
    """
    grid, tgrid = factors.grid, factors.tgrid
    _check_dirichlet(grid, y0, "initial state")
    rows = grid.interior
    y = np.zeros(y0.shape[:-1] + (tgrid.n_slices, grid.n_nodes))
    y[..., 0, :] = y0
    block = _interior_block(y, grid, tgrid, sources)
    _march(factors.solves(), block, y0[..., rows], sources is not None)
    if block.base is not y:
        y[..., 1:, rows] = np.moveaxis(block, 0, -2)
    if not np.all(np.isfinite(y)):
        raise SolverError("forward march produced non-finite values")
    return y


def march_adjoint(
    factors: SliceFactors, terminal: np.ndarray, sources: np.ndarray | None
) -> np.ndarray:
    """Exact transpose of march_forward; see the module docstring for the identity.

    ``terminal`` is (n,) or a stack (k, n), with sources shaped as in
    ``march_forward``.  The steps run from slice M down to slice 1, each
    one call of the slice's bound transposed solve.
    """
    grid, tgrid = factors.grid, factors.tgrid
    _check_dirichlet(grid, terminal, "terminal state")
    rows = grid.interior
    p = np.zeros(terminal.shape[:-1] + (tgrid.n_slices, grid.n_nodes))
    block = _interior_block(p, grid, tgrid, sources)
    _march(reversed(factors.solves(transpose=True)), block[::-1], terminal[..., rows],
           sources is not None)
    if block.base is not p:
        p[..., 1:, rows] = np.moveaxis(block, 0, -2)
    p[..., 0, :] = p[..., 1, :]
    if not np.all(np.isfinite(p)):
        raise SolverError("adjoint march produced non-finite values")
    return p


# ---------------------------------------------------------------------------
# nonlinearity


# callback -> number of trailing dim axes its output adds to the shape of s
_CALLBACK_AXES = (
    ("a", 0), ("a_y", 0), ("a_z", 1), ("f", 0), ("f_y", 0), ("f_z", 1),
    ("a_yy", 0), ("a_yz", 1), ("a_zz", 2), ("f_yy", 0), ("f_yz", 1), ("f_zz", 2),
)


@dataclass(frozen=True, eq=False)
class Nonlinearity:
    """Isotropic quasi-linear structure  y_t - div(a(y, grad y) grad y) + f(y, grad y).

    The contract: every callback takes (s, eta), s of any shape S and eta
    of shape S + (dim,), and returns a float ndarray of shape S (a, f and
    their y-derivatives a_y, f_y, a_yy, f_yy), S + (dim,) (the
    zeta-gradients a_z, f_z, a_yz, f_yz) or S + (dim, dim) (the Hessians
    a_zz, f_zz).  Construction checks it once, on a stacked probe with
    S = (2, 3) in dim 1 and in dim 2, and raises CoefficientError naming
    the first callback that returns anything else; every caller then uses
    the outputs as they come, with no reshaping.  f(0, 0) = 0 is required
    so the secant linearization is exact.  The second derivatives feed the
    curvature terms of the second-order check.  A diffusion a below RHO0
    is rejected where the state equation evaluates it.

    ``state_independent`` is derived from the callbacks, never set: it
    holds when a, f_y and f_z are constants and f = f_y y + f_z . grad y,
    the linear equation that ``solve_forward_quasilinear`` marches on one
    factorization.
    """

    a: Callable
    a_y: Callable
    a_z: Callable
    f: Callable
    f_y: Callable
    f_z: Callable
    a_yy: Callable
    a_yz: Callable
    a_zz: Callable
    f_yy: Callable
    f_yz: Callable
    f_zz: Callable
    name: str = "custom"

    def __post_init__(self):
        s = np.linspace(-0.5, 0.5, 6).reshape(2, 3)
        for dim in ADMITTED_DIMS:
            eta = np.linspace(-0.3, 0.7, 6 * dim).reshape(2, 3, dim)
            for key, axes in _CALLBACK_AXES:
                out = getattr(self, key)(s, eta)
                want = s.shape + (dim,) * axes
                if not (isinstance(out, np.ndarray) and out.dtype == float and out.shape == want):
                    got = (f"a {out.dtype} array of shape {out.shape}"
                           if isinstance(out, np.ndarray) else type(out).__name__)
                    raise CoefficientError(
                        f"nonlinearity {self.name}: {key} returned {got} for s of shape "
                        f"{s.shape} and eta of shape {eta.shape}; expected a float array "
                        f"of shape {want}"
                    )
        z = np.zeros(1)
        z2 = np.zeros((1, 2))
        f00 = float(self.f(z, z2)[0])
        if abs(f00) > 1e-14:
            raise CoefficientError(f"nonlinearity must satisfy f(0, 0) = 0, got {f00}")

    @property
    def state_independent(self) -> bool:
        """True when every callback is the family constant or linear callback
        of a state-independent structure: a, f_y, f_z constant, f = f_y y +
        f_z . grad y and every other derivative 0.

        Only ``nonlinearity_preset`` builds those callbacks (for the heat
        and linear-f presets), so a hand-built Nonlinearity, or a preset
        with any callback replaced, reads False.
        """
        if not all(isinstance(getattr(self, key), _Affine) for key in ("a", "f_y", "f_z")):
            return False
        fy, fz = self.f_y.c0, self.f_z.c0
        want = {
            "a": _Affine(0, self.a.c0),
            "f": _Affine(0, c_y=fy, c_z=fz),
            "f_y": _Affine(0, fy),
            "f_z": _Affine(1, fz),
        }
        return all(getattr(self, key) == want.get(key, _Affine(axes)) for key, axes in _CALLBACK_AXES)


# preset -> {parameter: (default, family coefficient it sets)}; the presets
# read no other parameter
PRESETS = {
    "heat": {"a0": (1.0, "a0")},
    "linear-f": {"a0": (1.0, "a0"), "c1": (0.0, "c1"), "c2": (0.0, "c2")},
    "cubic-f": {"a0": (1.0, "a0"), "c": (1.0, "c3")},
    "burgers-f": {"a0": (1.0, "a0"), "c": (0.1, "c4")},
    "gradient-diffusion": {"a0": (1.0, "a0"), "c": (0.1, "c_a")},
    "mild-quasilinear": {"a0": (1.0, "a0"), "q": (0.05, "q"), "c": (0.1, "c4")},
}


@dataclass(frozen=True)
class _Affine:
    """A family callback that does not read the state: the constant ``c0``
    in the contract shape (``axes`` trailing dim axes), or, with a slope
    set, the linear f = c_y s + c_z sum_j eta_j (then c0 = 0 and axes = 0).

    It carries its coefficients, and instances compare by them, so
    ``Nonlinearity.state_independent`` can read the structure from the
    callbacks themselves.
    """

    axes: int
    c0: float = 0.0
    c_y: float = 0.0
    c_z: float = 0.0

    def __call__(self, s, eta):
        if self.c_y or self.c_z:
            return self.c_y * s + self.c_z * eta.sum(axis=-1)
        shape = s.shape + eta.shape[-1:] * self.axes
        if not self.c0:  # np.zeros leaves the pages of an unwritten array unmapped
            return np.zeros(shape)
        return np.full(shape, self.c0)


def _family_terms(q=0.0, c_a=0.0, c1=0.0, c2=0.0, c3=0.0, c4=0.0):
    """The terms of the family with a non-zero coefficient, each as
    {callback name: its contribution}, listing only non-zero derivatives."""

    def dr(s, eta):  # first and second derivatives of c_a r / (1 + r) in r
        r = s * s + (eta * eta).sum(axis=-1)
        return c_a / (1.0 + r) ** 2, -2.0 * c_a / (1.0 + r) ** 3

    terms = (
        (q, {
            "a": lambda s, eta: q * s * s,
            "a_y": lambda s, eta: 2.0 * q * s,
            "a_yy": _Affine(0, 2.0 * q),
        }),
        (c_a, {
            # denominator (1 + y^2) + |grad y|^2, which rounds apart from 1 + r
            "a": lambda s, eta: c_a * (s * s + (eta * eta).sum(axis=-1))
            / (1.0 + s * s + (eta * eta).sum(axis=-1)),
            "a_y": lambda s, eta: dr(s, eta)[0] * 2.0 * s,
            "a_z": lambda s, eta: dr(s, eta)[0][..., None] * 2.0 * eta,
            "a_yy": lambda s, eta: dr(s, eta)[1] * 4.0 * s * s + 2.0 * dr(s, eta)[0],
            "a_yz": lambda s, eta: (dr(s, eta)[1] * 2.0 * s)[..., None] * 2.0 * eta,
            "a_zz": lambda s, eta: dr(s, eta)[1][..., None, None]
            * 4.0 * eta[..., :, None] * eta[..., None, :]
            + 2.0 * dr(s, eta)[0][..., None, None] * np.eye(eta.shape[-1]),
        }),
        (c1 or c2, {
            "f": _Affine(0, c_y=c1, c_z=c2),
            "f_y": _Affine(0, c1),
            "f_z": _Affine(1, c2),
        }),
        (c3, {
            "f": lambda s, eta: c3 * s**3,
            "f_y": lambda s, eta: 3.0 * c3 * s**2,
            "f_yy": lambda s, eta: 6.0 * c3 * s,
        }),
        (c4, {
            "f": lambda s, eta: c4 * s * eta.sum(axis=-1),
            "f_y": lambda s, eta: c4 * eta.sum(axis=-1),
            "f_z": lambda s, eta: c4 * np.repeat(s[..., None], eta.shape[-1], axis=-1),
            "f_yz": _Affine(1, c4),
        }),
    )
    return [term for coefficient, term in terms if coefficient]


def _summed(parts, axes, start=None):
    """One callback: ``start`` plus the sum of ``parts``.

    A lone part with no start is returned as it is, not wrapped; with no
    part the callback is the constant ``start``, or 0, in the contract
    shape (``axes`` trailing dim axes).
    """
    if start is None and len(parts) == 1:
        return parts[0]
    if not parts:
        return _Affine(axes, 0.0 if start is None else start)

    def total(s, eta):
        out = start
        for part in parts:
            out = part(s, eta) if out is None else out + part(s, eta)
        return out

    return total


def nonlinearity_preset(name: str, **params) -> Nonlinearity:
    """Named quasi-linear structures used by scenarios and benchmarks.

    Every preset is one member of the family

        a = a0 + q y^2 + c_a r / (1 + r),  r = y^2 + |grad y|^2,
        f = c1 y + c2 sum_j d_j y + c3 y^3 + c4 y sum_j d_j y,

    with the coefficients its parameters set in PRESETS and every other
    coefficient 0:

    heat                  a = a0, f = 0
    linear-f              a = a0, f = c1 y + c2 sum_j d_j y
    cubic-f               a = a0, f = c y^3
    burgers-f             a = a0, f = c y sum_j d_j y
    gradient-diffusion    a = a0 + c r / (1 + r), f = 0
    mild-quasilinear      a = a0 + q y^2, f = c y sum_j d_j y

    ``params`` may name only the preset's parameters in PRESETS.  A term
    whose coefficient is 0 is left out of every callback.
    """
    key = name.replace("_", "-").lower()
    if key not in PRESETS:
        raise CoefficientError(f"unknown nonlinearity preset {name!r}")
    takes = PRESETS[key]
    for p in params:
        if p not in takes:
            raise CoefficientError(
                f"preset {key!r} has no parameter {p!r}; it takes {', '.join(takes)}"
            )
    coef = {family: float(params.get(p, default)) for p, (default, family) in takes.items()}
    a0 = coef.pop("a0")
    terms = _family_terms(**coef)
    return Nonlinearity(
        **{cb: _summed([t[cb] for t in terms if cb in t], axes, a0 if cb == "a" else None)
           for cb, axes in _CALLBACK_AXES},
        name=key,
    )


# ---------------------------------------------------------------------------
# quasi-linear forward solver


def combine_control_source(
    cutoffs: dict[str, CutoffRegion],
    u: SpaceTimeField | None,
    v1: SpaceTimeField | None,
    v2: SpaceTimeField | None,
) -> np.ndarray | None:
    """Source  xi0 u + xi1 v1 + xi2 v2  as a raw (M+1, n) array."""
    parts = []
    for key, traj in (("leader", u), ("follower1", v1), ("follower2", v2)):
        if traj is not None:
            parts.append(cutoffs[key].values[None, :] * traj.values)
    if not parts:
        return None
    out = parts[0].copy()
    for p in parts[1:]:
        out += p
    return out


def _frozen_step(nl: Nonlinearity, grid: SpatialGrid, tau: float, m: int, w, gw):
    """f_y, f_z and the step matrix (``slice_operator``) of slice m at (w, grad w).

    Raises CoefficientError when a falls below RHO0 and BlowUpError when
    the step matrix has a diagonal entry <= 0, each naming slice m.
    """
    a_vals = nl.a(w, gw)
    if float(a_vals.min()) < RHO0:
        node = int(a_vals.argmin())
        raise CoefficientError(
            f"quasi-linear diffusion lost ellipticity at slice {m}, node {node}: "
            f"a = {a_vals.min():.6g} < rho0 = {RHO0}"
        )
    fy = nl.f_y(w, gw)
    fz = nl.f_z(w, gw)
    op = slice_operator(grid, tau, b=a_vals, f_adv=fz, f0=fy)
    d = op[0].ravel()
    if float(d.min()) <= 0.0:
        k = int(d.argmin())
        raise BlowUpError(
            f"quasi-linear step matrix lost positivity at slice {m}, node {grid.interior_idx[k]}: "
            f"diagonal 1 + tau (diffusion + f_y) = {d[k]:.3g} <= 0",
            slice_index=m,
        )
    return fy, fz, op


def _check_blowup(grid: SpatialGrid, m: int, new: np.ndarray, prev=None, norm0: float = 0.0):
    """Raise BlowUpError at the first slice of ``new`` that diverged.

    ``new`` is one iterate (slice m) or, with ``prev`` holding the slice
    before each, slices m, m+1, ... of a march, one row each.  A slice
    diverged when it is not finite or when it jumps (``_check_jump``).
    """
    first = None
    if not np.isfinite(new).all():
        first = int(np.argmin(np.isfinite(new).all(axis=-1)))
    if prev is not None:  # a jump before the first non-finite slice comes first
        _check_jump(grid, m, new[:first], prev[:first], norm0)
    if first is not None:
        raise BlowUpError(f"quasi-linear step produced non-finite values at slice {m + first}",
                          slice_index=m + first)


def _check_jump(grid: SpatialGrid, m: int, new: np.ndarray, prev: np.ndarray, norm0: float):
    """Raise BlowUpError at the first slice of ``new`` (slice m, or slices
    m, m+1, ..., one row each) whose jump |new - prev| from the slice before
    it exceeds BLOWUP_FACTOR (1 + max(norm0, |prev|)) in the spatial
    pairing norm.  Past the point of divergence the pairings may overflow;
    an overflow reads inf, which counts as a jump and raises no
    floating-point warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        step = new - prev
        jump = np.sqrt(spatial_pairing(grid, step, step))
        scale = 1.0 + np.maximum(norm0, np.sqrt(spatial_pairing(grid, prev, prev)))
        bad = jump > BLOWUP_FACTOR * scale
    if not bad.any():
        return
    k = int(np.flatnonzero(bad)[0])
    raise BlowUpError(
        f"quasi-linear step diverged at slice {m + k}: relative jump "
        f"{np.ravel(jump)[k] / np.ravel(scale)[k]:.3g} exceeds {BLOWUP_FACTOR}",
        slice_index=m + k,
    )


def solve_forward_quasilinear(
    nl: Nonlinearity,
    grid: SpatialGrid,
    tgrid: TimeGrid,
    y0: Field,
    source: np.ndarray | None = None,
) -> SpaceTimeField:
    """Semi-implicit march for the quasi-linear state equation.

    Each step freezes a at the previous slice and linearizes f there, then
    refreshes both at the new iterate REFRESHES times.  A refresh works on
    the raw iterate: one nodal gradient, the four nonlinearity callbacks
    and the step matrix from ``slice_operator``, which ``factor_slice`` and
    ``bind_solve`` factor and solve, as they do every linear march step.
    Each refresh checks that its solve is finite, so each step only checks
    its jump.

    A nonlinearity with ``state_independent`` set (the heat and linear-f
    presets) is the linear equation y_t - div(a grad y) + f_y y + f_z .
    grad y = s with constant coefficients, and is marched as one: a, f_y
    and f_z are evaluated once, the step matrix is checked, built and
    factored once, before the first step, and ``_march`` runs every step on
    that one bound solve.  The linearization residual f - f_y y - f_z .
    grad y that a refresh adds is 0 in exact arithmetic, and under the heat
    preset 0 bit for bit, so heat trajectories equal the refreshed march's.

    CoefficientError, with slice and node, reports a diffusion a below
    RHO0.  BlowUpError, with the slice index, marks the point where the
    trust region of the local model is gone and no further slice would be
    meaningful: a refresh whose solve is not finite, a relative jump larger
    than BLOWUP_FACTOR in one step (``_check_jump``), or a frozen step
    matrix I + tau L with a diagonal entry <= 0.  That entry is 1 + tau
    (diffusion + f_y) at its node; when it is <= 0, so is e_k^T (I + tau L)
    e_k, and the step matrix is not positive definite: the frozen reaction
    outgrows diffusion within one step, faster than the implicit step can
    follow.  A state-independent march reports both coefficient checks at
    slice 1 and checks every slice after its last step, reporting the first
    that diverged.
    """
    _check_dirichlet(grid, y0.values, "initial state")
    tau = tgrid.tau
    rows = grid.interior
    y = np.zeros((tgrid.n_slices, grid.n_nodes))
    y[0] = y0.values
    norm0 = np.sqrt(spatial_pairing(grid, y0.values, y0.values))
    if nl.state_independent:
        zero = np.zeros(grid.n_nodes)  # the callbacks read only the shape of the state
        _, _, op = _frozen_step(nl, grid, tau, 1, zero, np.zeros((grid.n_nodes, grid.dim)))
        block = _interior_block(y, grid, tgrid, source)
        solve = bind_solve(grid, factor_slice(grid, *op))
        _march([solve] * tgrid.steps, block, y0.values[rows], source is not None)
        if block.base is not y:
            y[1:, rows] = block
        _check_blowup(grid, 1, y[1:], y[:-1], norm0)
        return SpaceTimeField(grid, tgrid, y)
    for m in range(1, tgrid.n_slices):
        prev = y[m - 1]
        s_m = 0.0 if source is None else source[m]
        w = prev
        for _ in range(REFRESHES + 1):
            gw = gradient(grid, w)
            fy, fz, op = _frozen_step(nl, grid, tau, m, w, gw)
            rhs = prev + tau * (s_m - (nl.f(w, gw) - fy * w - (fz * gw).sum(axis=1)))
            x = np.ascontiguousarray(rhs[rows])
            bind_solve(grid, factor_slice(grid, *op))(x)
            _check_blowup(grid, m, x)
            w = np.zeros(grid.n_nodes)
            w[rows] = x
        _check_jump(grid, m, w, prev, norm0)  # w is finite: a refresh checked it
        y[m] = w
    return SpaceTimeField(grid, tgrid, y)


# ---------------------------------------------------------------------------
# fixed-point iteration


def _relative(f: np.ndarray, g: np.ndarray) -> float:
    """|f| / |g| for scaled vectors; 0 when f = 0, even when g = 0 too."""
    num = float(f @ f)
    if num == 0.0:
        return 0.0
    den = float(g @ g)
    return float(np.sqrt(num / den)) if den > 0.0 else float("inf")


def fixed_point_residual(grid: SpatialGrid, tgrid: TimeGrid, x: np.ndarray, g: np.ndarray) -> float:
    """Relative residual |g - x| / |g| of g = Phi(x) in the stepped weighted norm.

    The residual ``anderson`` stops on; ``x`` and ``g`` may be stacks of
    trajectories, whose norm sums over the stack.
    """
    return _relative(stepped_vector(grid, tgrid, g - x), stepped_vector(grid, tgrid, g))


def anderson(phi, x0: np.ndarray, grid: SpatialGrid, tgrid: TimeGrid, tol: float, max_iter: int):
    """Anderson-mixed fixed-point iteration x = Phi(x) from x0.

    ``phi(x)`` returns ``(g, aux)`` with g = Phi(x) shaped like x: one
    trajectory or a stack of them.  Each evaluation is checked first: the
    loop stops when f = g - x satisfies |f| <= tol |g| in the stepped
    weighted norm (slices 1..M), and a zero residual stops even at g = 0,
    so zero data stops at the first evaluation.  Otherwise the next iterate
    is type-II Anderson mixing over the last ANDERSON_DEPTH differences,

        x_next = g - sum_j gamma_j dg_j,   gamma = argmin |f - sum_j gamma_j df_j|,

    with the least squares in the same weighted norm; the first step is the
    plain x_next = g.  On a linear map the mixing is essentially GMRES on
    (I - Phi) x = Phi(0) (Walker & Ni, SINUM 2011), so it converges where
    the plain iteration diverges.

    Returns ``(g, aux, history, converged)`` from the last of at most
    ``max_iter`` >= 1 evaluations; ``history`` holds every relative
    residual, and ``converged`` is ``history[-1] <= tol``.  Non-convergence
    is returned, not raised: each caller decides what it means.
    """
    history: list[float] = []
    df: list[np.ndarray] = []
    dg: list[np.ndarray] = []
    x = x0
    f_prev = g_prev = None
    for _ in range(max_iter):
        aux = None  # the last evaluation's aux is not kept alive through this one
        g, aux = phi(x)
        f = stepped_vector(grid, tgrid, g - x)
        history.append(_relative(f, stepped_vector(grid, tgrid, g)))
        if history[-1] <= tol:
            return g, aux, history, True
        if f_prev is not None:
            df.append(f - f_prev)
            dg.append(g - g_prev)
            del df[:-ANDERSON_DEPTH], dg[:-ANDERSON_DEPTH]
        f_prev, g_prev = f, g
        x = g
        if df:
            gamma = np.linalg.lstsq(np.stack(df, axis=1), f, rcond=None)[0]
            for c, d in zip(gamma, dg):
                x = x - c * d
    return g, aux, history, False


def contraction(history: list[float]) -> float:
    """The largest ratio |r_k| / |r_{k-1}| of an ``anderson`` residual history.

    NaN below two entries, where no ratio exists.
    """
    if len(history) < 2:
        return float("nan")
    return max(b / a for a, b in zip(history, history[1:]))
