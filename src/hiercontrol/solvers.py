"""Implicit parabolic solvers: forward, backward (two modes), quasi-linear.

Time stepping is backward Euler throughout.  A forward problem

    y_t + L^m y = s,   L^m y = -div(b grad y) + f_adv . grad y + f0 y,

advances through (I + tau L^m) y^m = y^{m-1} + tau s^m for m = 1..M, with the
operator and source sampled at the target slice.  The backward solver has two
modes:

* ``adjoint``: the exact discrete adjoint of the forward march.  The
  recursion (I + tau (L^m)^T) p^m = p^{m+1} + tau r^m runs down from a seed
  at m = M and solves against the transposed factorization of the same slice
  matrices, so the summation-by-parts identity

      <y^M, seed> - <y^0, p^1> = tau sum_{m=1..M} ( <s^m, p^m> - <y^m, r^m> )

  holds to rounding.  The returned trajectory stores the multiplier at
  slices 1..M and repeats slice 1 at slice 0 (the value the identity pairs
  with the initial datum).

* ``continuous``: the literal backward equation p_t + div(B grad p) + g . grad p
  + g0 p = r marched as (I - tau Ltilde^m) p^m = p^{m+1} - tau r^m with the
  operator at the solved slice.  With matching coefficient rosters the two
  modes assemble identical slice matrices and differ only in their time
  alignment conventions.

Every slice matrix I + tau L^m comes from one assembly path.  The grid
shape fixes an interior-only CSR pattern (``grids.slice_pattern``, built
once per shape); ``slice_operator`` writes the values of one slice or of a
whole stack of slices into it with vectorised arithmetic straight from the
coefficient arrays, equal bit for bit to the flux-form composition of
``assemble_divergence_operator`` and ``gradient_matrices``.  The linear
marches (``state_factors``, ``sensitivity_factors``, the continuous mode),
the quasi-linear march and the leader's space-time matrix all use it, and a
roster family that does not change in time is assembled and factored once.
``factor_slice`` factors a slice: in 1D the matrix is tridiagonal and goes
to LAPACK dgttrf/dgttrs, whose transposed solve on the same factors keeps
the adjoint march exact; in 2D it goes to SuperLU.

The quasi-linear forward solver freezes the diffusion a(y, grad y) at the
current iterate and linearizes f around it, with a configurable number of
within-step refreshes; for constant a and f = 0 every step reduces bit for
bit to the linear heat step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import BlowUpError, CoefficientError, SolverError
from .grids import (
    CutoffRegion,
    Field,
    SpaceTimeField,
    SpatialGrid,
    TimeGrid,
    gradient,
    slice_pattern,
)

DEFAULT_RHO0 = 0.1


# ---------------------------------------------------------------------------
# coefficient containers


@dataclass(frozen=True, eq=False)
class LinearCoefficients:
    """Frozen coefficient roster of one linearized hierarchic system.

    The state equation uses (b, f_adv, f0):   y_t - div(b grad y)
    + f_adv . grad y + f0 y.  The follower adjoint equations use
    (B, g, g0):   p_t + div(B grad p) + g . grad p + g0 p = r, whose
    formal-adjoint forward form is  w_t - div(B grad w) + div(g w) - g0 w.
    All arrays are sampled per slice: leading axis M+1.
    """

    grid: SpatialGrid
    tgrid: TimeGrid
    b: np.ndarray
    f_adv: np.ndarray | None
    f0: np.ndarray | None
    B: np.ndarray
    g: np.ndarray | None
    g0: np.ndarray | None
    rho0: float = DEFAULT_RHO0

    def __post_init__(self):
        M1, n = self.tgrid.n_slices, self.grid.n_nodes
        for name in ("b", "B"):
            arr = getattr(self, name)
            if arr.shape not in ((M1, n), (M1, n, self.grid.dim)):
                raise CoefficientError(f"{name} has shape {arr.shape}, expected ({M1}, {n}[, dim])")
            if float(arr.min()) < self.rho0:
                m, rest = divmod(int(arr.argmin()), arr[0].size)
                node = rest if arr.ndim == 2 else rest // self.grid.dim
                raise CoefficientError(
                    f"ellipticity violated for {name}: min {arr.min():.6g} < rho0={self.rho0} "
                    f"at slice {m}, node {node}"
                )
        for name in ("f_adv", "g"):
            arr = getattr(self, name)
            if arr is not None and arr.shape != (M1, n, self.grid.dim):
                raise CoefficientError(f"{name} has shape {arr.shape}, expected ({M1}, {n}, dim)")
        for name in ("f0", "g0"):
            arr = getattr(self, name)
            if arr is not None and arr.shape != (M1, n):
                raise CoefficientError(f"{name} has shape {arr.shape}, expected ({M1}, {n})")

    def budget(self) -> dict[str, float]:
        """Sup norms of every coefficient family plus their sum (the size of the roster)."""
        out = {}
        for name in ("b", "B", "f_adv", "g", "f0", "g0"):
            arr = getattr(self, name)
            out[name] = float(np.abs(arr).max()) if arr is not None else 0.0
        out["total"] = float(sum(out.values()))
        return out


def constant_coefficients(
    grid: SpatialGrid,
    tgrid: TimeGrid,
    b=1.0,
    f_adv=None,
    f0=None,
    B=None,
    g=None,
    g0=None,
    rho0: float = DEFAULT_RHO0,
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
        rho0=rho0,
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
) -> np.ndarray:
    """Values of  I + tau L  on the grid's slice pattern, one slice or a stack.

    L = -div(b grad .) + f_adv . grad + div(f_div .) + f0 restricted to the
    interior unknowns; every term is optional.  Coefficients are per node,
    b as (..., n) isotropic or (..., n, dim) diagonal, f_adv and f_div as
    (..., n, dim), f0 as (..., n); leading axes stack slices and the result
    has shape (..., nnz).  The diffusion part uses arithmetic-mean faces
    (b_k + b_{k+s}) / 2 and the first-order parts the central difference
    +-1/(2h), summed per entry in the order of the flux-form composition
    assemble_divergence_operator + diag(f_adv) D + D diag(f_div) + diag(f0),
    so the values equal that composition bit for bit.
    """
    pat = slice_pattern(grid)
    ii = grid.interior_idx
    h2 = grid.h * grid.h
    c = 1.0 / (2 * grid.h)
    diag = None
    entries = []
    for ax, s, side, rows, slots in pat.neighbours:
        nb = ii + side * s
        val = None
        if b is not None:
            bax = b if b.shape[-1] == grid.n_nodes else b[..., ax]
            left = ii if side > 0 else nb
            face = 0.5 * (bax[..., left] + bax[..., left + s]) / h2
            diag = face if diag is None else diag + face
            val = -face
        if f_adv is not None:
            val = _plus(val, f_adv[..., ii, ax] * (side * c))
        if f_div is not None:
            val = _plus(val, (side * c) * f_div[..., nb, ax])
        if val is not None:
            entries.append((slots, tau * val[..., rows]))
    if f0 is not None:
        diag = _plus(diag, f0[..., ii])
    shapes = [v.shape[:-1] for _, v in entries]
    if diag is not None:
        shapes.append(diag.shape[:-1])
    data = np.zeros(np.broadcast_shapes(*shapes) + (pat.nnz,))
    data[..., pat.diag] = 1.0 if diag is None else 1.0 + tau * diag
    for slots, v in entries:
        data[..., slots] = v
    return data


def _plus(acc, term):
    return term if acc is None else acc + term


class _Tridiagonal:
    """LAPACK dgttrf factors of one tridiagonal slice matrix."""

    def __init__(self, pattern, data: np.ndarray):
        upper, lower = (slots for *_, slots in pattern.neighbours)
        *self._lu, info = dgttrf(data[lower], data[pattern.diag], data[upper])
        if info > 0:
            raise SolverError(f"slice matrix is singular (zero pivot {info})")

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        return dgttrs(*self._lu, rhs, trans=trans)[0]


def factor_slice(grid: SpatialGrid, data: np.ndarray):
    """LU factors of one slice matrix from its pattern values.

    1D slices are tridiagonal and go to LAPACK dgttrf; 2D slices to SuperLU.
    Both return an object whose ``solve(rhs, trans)`` applies the inverse
    (trans="N") or the inverse transpose (trans="T") with the same factors.
    """
    pat = slice_pattern(grid)
    if grid.dim == 1:
        return _Tridiagonal(pat, data)
    return spla.splu(pat.csr(data).tocsc())


class SliceFactors:
    """Factorizations of (I + tau L^m) on the interior subspace, one per slice.

    ``data`` holds the pattern values of slices first, first+1, ... (one row
    each), or a single row shared by every slice.  ``solve(m, rhs)`` applies
    (I + tau L^m)^{-1}; ``transpose=True`` applies the inverse transpose with
    the same factors, which is what keeps forward/adjoint pairs exactly dual.
    Factors are computed on first use.
    """

    def __init__(self, grid: SpatialGrid, tgrid: TimeGrid, data: np.ndarray, first: int = 1):
        self.grid = grid
        self.tgrid = tgrid
        self.ii = grid.interior_idx
        self.data = data
        self.first = first
        self._lu: dict[int, object] = {}

    def _factor(self, m: int):
        k = 0 if self.data.shape[0] == 1 else m - self.first
        lu = self._lu.get(k)
        if lu is None:
            lu = factor_slice(self.grid, self.data[k])
            self._lu[k] = lu
        return lu

    def solve(self, m: int, rhs_full: np.ndarray, transpose: bool = False) -> np.ndarray:
        out = np.zeros(self.grid.n_nodes)
        out[self.ii] = self._factor(m).solve(
            np.ascontiguousarray(rhs_full[self.ii]), trans="T" if transpose else "N"
        )
        return out


def _time_constant(*arrays, lo: int = 1, hi: int | None = None) -> bool:
    """True when every given roster array repeats exactly over slices lo..hi-1."""
    for arr in arrays:
        if arr is not None and arr[lo:hi].size and np.ptp(arr[lo:hi], axis=0).max() > 0.0:
            return False
    return True


def _neg(arr):
    return None if arr is None else -arr


def _roster_slices(c: LinearCoefficients, b, f_adv=None, f_div=None, f0=None, first: int = 1):
    """Pattern values of I + tau L at slices first..first+M-1 of a roster family.

    A time-constant family is assembled once and returned as one row.
    """
    fams = (b, f_adv, f_div, f0)
    hi = first + c.tgrid.steps
    sel = slice(first, first + 1) if _time_constant(*fams, lo=first, hi=hi) else slice(first, hi)
    return slice_operator(c.grid, c.tgrid.tau, *(None if a is None else a[sel] for a in fams))


def state_slices(c: LinearCoefficients) -> np.ndarray:
    """I + tau L_y at slices 1..M, L_y = -div(b grad .) + f_adv . grad + f0."""
    return _roster_slices(c, c.b, f_adv=c.f_adv, f0=c.f0)


def sensitivity_slices(c: LinearCoefficients) -> np.ndarray:
    """I + tau L_p at slices 1..M, L_p = -div(B grad .) + div(g .) - g0."""
    return _roster_slices(c, c.B, f_div=c.g, f0=_neg(c.g0))


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
    bad = np.abs(v[grid.boundary])
    if bad.size and bad.max() != 0.0:
        raise SolverError(f"{what} violates the Dirichlet boundary (max |value| = {bad.max():.3e})")


def march_forward(
    factors: SliceFactors, y0: np.ndarray, sources: np.ndarray | None
) -> np.ndarray:
    grid, tgrid = factors.grid, factors.tgrid
    _check_dirichlet(grid, y0, "initial state")
    y = np.zeros((tgrid.n_slices, grid.n_nodes))
    y[0] = y0
    for m in range(1, tgrid.n_slices):
        rhs = y[m - 1] if sources is None else y[m - 1] + tgrid.tau * sources[m]
        y[m] = factors.solve(m, rhs)
    if not np.all(np.isfinite(y)):
        raise SolverError("forward march produced non-finite values")
    return y


def march_adjoint(
    factors: SliceFactors, terminal: np.ndarray, sources: np.ndarray | None
) -> np.ndarray:
    """Exact transpose of march_forward; see the module docstring for the identity."""
    grid, tgrid = factors.grid, factors.tgrid
    _check_dirichlet(grid, terminal, "terminal state")
    p = np.zeros((tgrid.n_slices, grid.n_nodes))
    carry = terminal
    for m in range(tgrid.steps, 0, -1):
        rhs = carry if sources is None else carry + tgrid.tau * sources[m]
        p[m] = factors.solve(m, rhs, transpose=True)
        carry = p[m]
    p[0] = p[1]
    if not np.all(np.isfinite(p)):
        raise SolverError("adjoint march produced non-finite values")
    return p


def _continuous_factors(c: LinearCoefficients) -> SliceFactors:
    data = _roster_slices(c, c.B, f_adv=_neg(c.g), f0=_neg(c.g0), first=0)
    return SliceFactors(c.grid, c.tgrid, data, first=0)


def march_backward_continuous(
    c: LinearCoefficients, terminal: np.ndarray, sources: np.ndarray | None
) -> np.ndarray:
    """March  p_t + div(B grad p) + g . grad p + g0 p = r  down from p(T)."""
    grid, tgrid = c.grid, c.tgrid
    _check_dirichlet(grid, terminal, "terminal state")
    factors = _continuous_factors(c)
    p = np.zeros((tgrid.n_slices, grid.n_nodes))
    p[tgrid.steps] = terminal
    for m in range(tgrid.steps - 1, -1, -1):
        rhs = p[m + 1] if sources is None else p[m + 1] - tgrid.tau * sources[m]
        p[m] = factors.solve(m, rhs)
    if not np.all(np.isfinite(p)):
        raise SolverError("backward march produced non-finite values")
    return p


# ---------------------------------------------------------------------------
# public linear solvers


def solve_forward_linear(
    c: LinearCoefficients, source: SpaceTimeField | None, y0: Field
) -> SpaceTimeField:
    """Implicit Euler for the state equation; pure-diffusion runs assert the max principle."""
    src = None if source is None else source.values
    y = march_forward(state_factors(c), y0.values, src)
    if c.f_adv is None and c.f0 is None and (src is None or not src.any()):
        m0 = float(np.abs(y0.values).max())
        worst = float(np.abs(y).max())
        if worst > m0 * (1.0 + 1e-12) + 1e-300:
            raise SolverError(
                f"discrete maximum principle violated: max |y| = {worst:.6g} > {m0:.6g}"
            )
    return SpaceTimeField(c.grid, c.tgrid, y)


def solve_backward_linear(
    c: LinearCoefficients,
    source: SpaceTimeField | None,
    terminal: Field,
    form: str = "adjoint",
) -> SpaceTimeField:
    """Backward solve in one of two modes (see module docstring).

    ``adjoint`` solves  -p_t + L^T p = r  against the state roster (b, f_adv,
    f0); ``continuous`` solves  p_t + div(B grad p) + g . grad p + g0 p = r
    against the adjoint roster.
    """
    src = None if source is None else source.values
    if form == "adjoint":
        p = march_adjoint(state_factors(c), terminal.values, src)
    elif form == "continuous":
        p = march_backward_continuous(c, terminal.values, src)
    else:
        raise ValueError(f"unknown backward form {form!r}; use 'adjoint' or 'continuous'")
    return SpaceTimeField(c.grid, c.tgrid, p)


# ---------------------------------------------------------------------------
# nonlinearity


def _fd_check(fn, dfn_y, dfn_z, rng, dim, label):
    step, tol = 1e-6, 1e-5
    for _ in range(20):
        s = float(rng.normal(scale=0.8))
        eta = rng.normal(scale=0.8, size=dim)
        fy = float(dfn_y(np.array([s]), eta[None, :])[0])
        fd = (fn(np.array([s + step]), eta[None, :])[0] - fn(np.array([s - step]), eta[None, :])[0]) / (
            2 * step
        )
        if abs(fd - fy) > tol * (1.0 + abs(fy)):
            raise CoefficientError(f"{label}: d/dy inconsistent at (s={s:.4g}): {fd} vs {fy}")
        fz = np.atleast_2d(dfn_z(np.array([s]), eta[None, :]))[0]
        for ax in range(dim):
            ep = eta.copy()
            ep[ax] += step
            em = eta.copy()
            em[ax] -= step
            fd = (fn(np.array([s]), ep[None, :])[0] - fn(np.array([s]), em[None, :])[0]) / (2 * step)
            if abs(fd - fz[ax]) > tol * (1.0 + abs(fz[ax])):
                raise CoefficientError(
                    f"{label}: d/dzeta[{ax}] inconsistent at (s={s:.4g}): {fd} vs {fz[ax]}"
                )


@dataclass(frozen=True, eq=False)
class Nonlinearity:
    """Isotropic quasi-linear structure  y_t - div(a(y, grad y) grad y) + f(y, grad y).

    ``a`` and ``f`` take (s, eta) with s of shape (...,) and eta of shape
    (..., dim) and return (...,); the zeta-gradients return (..., dim).
    f(0, 0) = 0 is required so the secant linearization is exact.  Optional
    second derivatives feed the curvature terms of the second-order cost
    analysis; when absent they are approximated by central differences of
    the first derivatives.
    """

    a: Callable
    a_y: Callable
    a_z: Callable
    f: Callable
    f_y: Callable
    f_z: Callable
    rho0: float = DEFAULT_RHO0
    a_yy: Callable | None = None
    a_yz: Callable | None = None
    a_zz: Callable | None = None
    f_yy: Callable | None = None
    f_yz: Callable | None = None
    f_zz: Callable | None = None
    name: str = "custom"

    def __post_init__(self):
        z = np.zeros(1)
        z2 = np.zeros((1, 2))
        f00 = float(self.f(z, z2)[0])
        if abs(f00) > 1e-14:
            raise CoefficientError(f"nonlinearity must satisfy f(0, 0) = 0, got {f00}")

    def self_check(self, seed: int = 0, dim: int = 1) -> None:
        """Spot-check the declared first derivatives by central differences."""
        rng = np.random.default_rng(seed)
        _fd_check(self.a, self.a_y, self.a_z, rng, dim, f"nonlinearity {self.name}: a")
        _fd_check(self.f, self.f_y, self.f_z, rng, dim, f"nonlinearity {self.name}: f")

    # second-derivative access with FD fallback ------------------------------
    def d2(self, which: str, s: np.ndarray, eta: np.ndarray) -> np.ndarray:
        fn = getattr(self, which)
        if fn is not None:
            return np.asarray(fn(s, eta), dtype=float)
        step = 1e-5
        base, var = which.split("_")[0], which.split("_")[1]
        first = getattr(self, f"{base}_{var[0]}")
        if var[1] == "y":
            up = np.asarray(first(s + step, eta), dtype=float)
            dn = np.asarray(first(s - step, eta), dtype=float)
            return (up - dn) / (2 * step)
        dim = eta.shape[-1]
        outs = []
        for ax in range(dim):
            ep = eta.copy()
            ep[..., ax] += step
            em = eta.copy()
            em[..., ax] -= step
            outs.append(
                (np.asarray(first(s, ep), dtype=float) - np.asarray(first(s, em), dtype=float))
                / (2 * step)
            )
        return np.stack(outs, axis=-1)


def _zero_scalar(s, eta):
    return np.zeros_like(s)


def _zero_vec(s, eta):
    return np.zeros(eta.shape)


def _zero_mat(s, eta):
    return np.zeros(eta.shape + (eta.shape[-1],))


def nonlinearity_preset(name: str, **params) -> Nonlinearity:
    """Named quasi-linear structures used by scenarios and benchmarks.

    heat                  a = a0, f = 0
    linear-f              a = a0, f = c1 y + c2 sum_j d_j y
    cubic-f               a = a0, f = c y^3
    burgers-f             a = a0, f = c y sum_j d_j y
    gradient-diffusion    a = a0 + c r / (1 + r), r = y^2 + |grad y|^2, f = 0
    mild-quasilinear      a = a0 + q y^2, f = c y sum_j d_j y
    """
    key = name.replace("_", "-").lower()
    a0 = float(params.get("a0", 1.0))

    def const_a(s, eta):
        return np.full_like(s, a0)

    if key == "heat":
        nl = Nonlinearity(const_a, _zero_scalar, _zero_vec, _zero_scalar, _zero_scalar, _zero_vec,
                          a_yy=_zero_scalar, a_yz=_zero_vec, a_zz=_zero_mat,
                          f_yy=_zero_scalar, f_yz=_zero_vec, f_zz=_zero_mat,
                          name=key)
    elif key == "linear-f":
        c1 = float(params.get("c1", 0.0))
        c2 = float(params.get("c2", 0.0))
        nl = Nonlinearity(
            const_a, _zero_scalar, _zero_vec,
            lambda s, eta: c1 * s + c2 * eta.sum(axis=-1),
            lambda s, eta: np.full_like(s, c1),
            lambda s, eta: np.full(eta.shape, c2),
            a_yy=_zero_scalar, a_yz=_zero_vec, a_zz=_zero_mat,
            f_yy=_zero_scalar, f_yz=_zero_vec, f_zz=_zero_mat, name=key,
        )
    elif key == "cubic-f":
        c = float(params.get("c", 1.0))
        nl = Nonlinearity(
            const_a, _zero_scalar, _zero_vec,
            lambda s, eta: c * s**3,
            lambda s, eta: 3.0 * c * s**2,
            _zero_vec,
            a_yy=_zero_scalar, a_yz=_zero_vec, a_zz=_zero_mat,
            f_yy=lambda s, eta: 6.0 * c * s, f_yz=_zero_vec, f_zz=_zero_mat, name=key,
        )
    elif key == "burgers-f":
        c = float(params.get("c", 0.1))
        nl = Nonlinearity(
            const_a, _zero_scalar, _zero_vec,
            lambda s, eta: c * s * eta.sum(axis=-1),
            lambda s, eta: c * eta.sum(axis=-1),
            lambda s, eta: c * np.repeat(s[..., None], eta.shape[-1], axis=-1),
            a_yy=_zero_scalar, a_yz=_zero_vec, a_zz=_zero_mat,
            f_yy=_zero_scalar,
            f_yz=lambda s, eta: np.full(eta.shape, c), f_zz=_zero_mat, name=key,
        )
    elif key == "gradient-diffusion":
        c = float(params.get("c", 0.1))

        def r_terms(s, eta):
            r = s * s + (eta * eta).sum(axis=-1)
            return r, c / (1.0 + r) ** 2, -2.0 * c / (1.0 + r) ** 3

        nl = Nonlinearity(
            lambda s, eta: a0 + c * (s * s + (eta * eta).sum(axis=-1)) / (1.0 + s * s + (eta * eta).sum(axis=-1)),
            lambda s, eta: r_terms(s, eta)[1] * 2.0 * s,
            lambda s, eta: r_terms(s, eta)[1][..., None] * 2.0 * eta,
            _zero_scalar, _zero_scalar, _zero_vec,
            a_yy=lambda s, eta: r_terms(s, eta)[2] * 4.0 * s * s + 2.0 * r_terms(s, eta)[1],
            a_yz=lambda s, eta: (r_terms(s, eta)[2] * 2.0 * s)[..., None] * 2.0 * eta,
            a_zz=lambda s, eta: r_terms(s, eta)[2][..., None, None]
            * 4.0 * eta[..., :, None] * eta[..., None, :]
            + 2.0 * r_terms(s, eta)[1][..., None, None] * np.eye(eta.shape[-1]),
            f_yy=_zero_scalar, f_yz=_zero_vec, f_zz=_zero_mat, name=key,
        )
    elif key == "mild-quasilinear":
        q = float(params.get("q", 0.05))
        c = float(params.get("c", 0.1))
        nl = Nonlinearity(
            lambda s, eta: a0 + q * s * s,
            lambda s, eta: 2.0 * q * s,
            _zero_vec,
            lambda s, eta: c * s * eta.sum(axis=-1),
            lambda s, eta: c * eta.sum(axis=-1),
            lambda s, eta: c * np.repeat(s[..., None], eta.shape[-1], axis=-1),
            a_yy=lambda s, eta: np.full_like(s, 2.0 * q),
            a_yz=_zero_vec,
            a_zz=_zero_mat,
            f_yy=_zero_scalar,
            f_yz=lambda s, eta: np.full(eta.shape, c), f_zz=_zero_mat, name=key,
        )
    else:
        raise CoefficientError(f"unknown nonlinearity preset {name!r}")
    return nl


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


def solve_forward_quasilinear(
    nl: Nonlinearity,
    grid: SpatialGrid,
    tgrid: TimeGrid,
    y0: Field,
    source: np.ndarray | None = None,
    refreshes: int = 2,
    blowup_factor: float = 10.0,
) -> SpaceTimeField:
    """Semi-implicit march for the quasi-linear state equation.

    Each step freezes a at the previous slice and linearizes f there, then
    optionally refreshes both at the new iterate.  Each frozen step is one
    tridiagonal LAPACK solve in 1D and one SuperLU solve in 2D; a step
    matrix equal to the previous one, as under constant coefficients such
    as the heat preset, reuses its factors.  BlowUpError,
    with the slice index, marks the point where the trust region of the
    local model is gone and no further slice would be meaningful: either a
    relative jump larger than ``blowup_factor`` in one step, or a frozen
    step matrix I + tau L with a diagonal entry <= 0.  That entry is
    1 + tau (diffusion + f_y) at its node; when it is <= 0, so is
    e_k^T (I + tau L) e_k, and the step matrix is not positive definite:
    the frozen reaction outgrows diffusion within one step, faster than the
    implicit step can follow.
    """
    _check_dirichlet(grid, y0.values, "initial state")
    interior = (~grid.boundary).astype(float)
    y = np.zeros((tgrid.n_slices, grid.n_nodes))
    y[0] = y0.values
    ii = grid.interior_idx
    diag = slice_pattern(grid).diag
    norm0 = np.sqrt(grid.weights @ y0.values**2)
    A_prev = lu = None
    for m in range(1, tgrid.n_slices):
        prev = y[m - 1]
        w = prev
        for _ in range(refreshes + 1):
            wf = Field(grid, w)
            gw = gradient(wf)
            a_vals = nl.a(w, gw)
            if float(a_vals.min()) < nl.rho0:
                node = int(a_vals.argmin())
                raise CoefficientError(
                    f"quasi-linear diffusion lost ellipticity at slice {m}, node {node}: "
                    f"a = {a_vals.min():.6g} < rho0 = {nl.rho0}"
                )
            fy = nl.f_y(w, gw)
            fz = np.atleast_2d(nl.f_z(w, gw))
            if fz.shape != (grid.n_nodes, grid.dim):
                fz = fz.reshape(grid.n_nodes, grid.dim)
            f_val = nl.f(w, gw)
            A = slice_operator(grid, tgrid.tau, b=a_vals, f_adv=fz, f0=fy)
            d = A[diag]
            if float(d.min()) <= 0.0:
                k = int(d.argmin())
                raise BlowUpError(
                    f"quasi-linear step matrix lost positivity at slice {m}, node {ii[k]}: "
                    f"diagonal 1 + tau (diffusion + f_y) = {d[k]:.3g} <= 0",
                    slice_index=m,
                )
            rhs = prev + tgrid.tau * (
                (0.0 if source is None else source[m])
                - interior * (f_val - fy * w - (fz * gw).sum(axis=1))
            )
            if lu is None or not np.array_equal(A, A_prev):
                lu, A_prev = factor_slice(grid, A), A
            new = np.zeros(grid.n_nodes)
            new[ii] = lu.solve(np.ascontiguousarray(rhs[ii]))
            w = new
        jump = np.sqrt(grid.weights @ (w - prev) ** 2)
        scale = 1.0 + max(norm0, np.sqrt(grid.weights @ prev**2))
        if not np.all(np.isfinite(w)) or jump > blowup_factor * scale:
            raise BlowUpError(
                f"quasi-linear step diverged at slice {m}: relative jump "
                f"{jump / scale:.3g} exceeds {blowup_factor}",
                slice_index=m,
            )
        y[m] = w
    return SpaceTimeField(grid, tgrid, y)
