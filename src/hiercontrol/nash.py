"""Follower level: Nash quasi-equilibrium of the two tracking games, and the
linearization of the quasi-linear operator at a trajectory.

For a frozen leader control u each follower k minimizes

    J_k(v1, v2; u) = (mu_k / 2) |v_k|^2_{omega_k x (0,T)}
                   + (nu_k / 2) int_Q xi_* |y - y_{k,d}|^2,

subject to the quasi-linear state equation driven by xi0 u + xi1 v1
+ xi2 v2.  Stationarity of the discrete cost identifies the equilibrium
with the fixed point

    v_k = (1/mu_k) xi_k p_k,

where p_k solves the adjoint of the state linearization with source
-nu_k xi_* (y - y_{k,d}) and vanishing terminal datum
(``follower_controls``).  ``compute_nash`` iterates that map on the stacked
pair (v1, v2) through ``solvers.anderson``, from zero or from a given pair;
every adjoint solve reuses one factorization per slice through transposed
triangular solves, so the stationarity identity holds at the level of
rounding once the iteration has converged.

Cost functionals and duality pairings use the right-endpoint rule
tau * sum_{m=1..M}: backward Euler's summation-by-parts identity is exact
for that rule and for no other, and the fixed-point identity above then
holds node-wise at every slice instead of acquiring endpoint artifacts.

``coefficients_from_state`` is the one linearization of the operator at a
trajectory: the state side the leader problem freezes and the follower side
the adjoint and sensitivity marches use.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonConvergenceError, ValidationError
from .grids import (
    CutoffRegion,
    Field,
    SpaceTimeField,
    SpatialGrid,
    TimeGrid,
    add_divergence,
    boxes_intersect,
    gradient,
    stepped_pairing,
    stepped_norm2,
)
from .solvers import (
    LinearCoefficients,
    Nonlinearity,
    combine_control_source,
    march_adjoint,
    march_forward,
    anderson,
    contraction,
    fixed_point_residual,
    sensitivity_factors,
    solve_forward_quasilinear,
)

CUTOFF_KEYS = ("leader", "follower1", "follower2", "tracking")
NASH_MAX_ITER = 80
FIRST_ORDER_DIRECTIONS = 10   # random directions per follower in gateaux_residual

_GAUSS_S, _GAUSS_W = np.polynomial.legendre.leggauss(8)
_GAUSS_S = 0.5 * (_GAUSS_S + 1.0)   # nodes mapped from [-1, 1] to [0, 1]
_GAUSS_W = 0.5 * _GAUSS_W


@dataclass(frozen=True, eq=False)
class HierarchicProblem:
    """Geometry, weights and data of one Stackelberg–Nash instance.

    ``cutoffs`` maps the four region names (leader, follower1, follower2,
    tracking) to their smooth plateau cutoffs; the tracking cutoff is the
    weight xi_* of both follower costs.  The leader's inner plateau must
    meet the tracking plateau: their intersection is the focus region
    where the Carleman weight concentrates.
    """

    grid: SpatialGrid
    tgrid: TimeGrid
    nl: Nonlinearity
    cutoffs: dict[str, CutoffRegion]
    mu: tuple[float, float]
    nu: tuple[float, float]
    y0: Field
    targets: tuple[SpaceTimeField, SpaceTimeField]
    name: str = "problem"

    def __post_init__(self):
        for key in CUTOFF_KEYS:
            if key not in self.cutoffs:
                raise ValidationError(f"cutoffs missing region {key!r}")
            if not self.cutoffs[key].grid.same_as(self.grid):
                raise ValidationError(f"cutoff {key!r} lives on a different grid")
        if len(self.mu) != 2 or any(m <= 0 for m in self.mu):
            raise ValidationError(f"follower weights mu must be two positive numbers, got {self.mu}")
        if len(self.nu) != 2 or any(n < 0 for n in self.nu):
            raise ValidationError(f"tracking weights nu must be two nonnegative numbers, got {self.nu}")
        if not boxes_intersect(self.grid.dim, self.cutoffs["leader"].inner, self.cutoffs["tracking"].inner):
            raise ValidationError(
                "leader plateau and tracking plateau do not intersect; "
                "the weight construction has no focus region"
            )
        if len(self.targets) != 2:
            raise ValidationError("two follower targets are required")
        for k, t in enumerate(self.targets):
            if not t.grid.same_as(self.grid) or t.tgrid.n_slices != self.tgrid.n_slices:
                raise ValidationError(f"target {k + 1} does not match the problem discretization")
            trace = float(np.abs(t.values[:, self.grid.boundary]).max()) if self.grid.boundary.any() else 0.0
            if trace > 1e-12:
                warnings.warn(
                    f"target {k + 1} has nonzero boundary trace ({trace:.3g}); "
                    "only its values inside the tracking region matter",
                    stacklevel=2,
                )
        if not self.y0.grid.same_as(self.grid):
            raise ValidationError("initial state lives on a different grid")

    # geometry helpers -------------------------------------------------------
    def focus_box(self) -> tuple[tuple[float, float], ...]:
        """Intersection of the leader and tracking plateaus (per-axis intervals)."""
        a = self.cutoffs["leader"].inner
        b = self.cutoffs["tracking"].inner
        return tuple((max(al, bl), min(ah, bh)) for (al, ah), (bl, bh) in zip(a, b))

    def follower_mask(self, k: int) -> np.ndarray:
        """Nodes of omega_k, the outer control box of follower k (1-based); read-only."""
        return self.cutoffs[f"follower{k}"].outer_mask

    def xi(self, key: str) -> np.ndarray:
        return self.cutoffs[key].values


@dataclass(frozen=True, eq=False)
class NashSolution:
    """Equilibrium triple with its adjoint states and iteration record.

    ``first_order_residuals`` stays None until a caller attaches the
    stationarity check (see ``with_first_order_residuals``); the relative
    residuals of the fixed-point loop, then of the consistency pass, are in
    ``residuals``.  ``picard_contraction`` is the largest ratio of
    successive residuals of the loop alone (``solvers.contraction``).
    """

    y: SpaceTimeField
    v1: SpaceTimeField
    v2: SpaceTimeField
    p1: SpaceTimeField
    p2: SpaceTimeField
    picard_iterations: int
    picard_contraction: float
    final_update_norm: float
    residuals: tuple[float, ...]
    converged: bool
    costs: dict[str, float]
    first_order_residuals: tuple[float, float] | None = None


# ---------------------------------------------------------------------------
# linearization at a trajectory


def coefficients_from_state(
    nl: Nonlinearity,
    state: SpaceTimeField,
) -> LinearCoefficients:
    """The whole frozen roster of the quasi-linear operator at the trajectory z.

    State side (b, f_adv, f0) = (a, F2, F1): a(z, grad z) and the averages
    F1 = int_0^1 f_y(s z, s grad z) ds and F2 = int_0^1 grad_zeta f(s z,
    s grad z) ds by node-wise 8-point Gauss-Legendre quadrature in s (exact
    up to degree 15), which reproduce f(z, grad z) = F1 z + F2 . grad z
    since f(0, 0) = 0.
    Follower side (B, g, g0) = (A, e, d0): A = a + (grad z . partial_zeta a)
    on the diagonal (the symmetrized curvature of the flux),
    e = -a_y grad z + partial_zeta f, and d0 = -f_y + div(partial_zeta f
    sampled along the trajectory), the divergence taken discretely.
    Gradient-dependent diffusion is only admitted in one dimension, where
    the symmetrized correction stays diagonal.  One nodal gradient serves
    every family; each callback runs once at (z, grad z), and f_y, f_z once
    more per quadrature node.
    """
    grid, tgrid = state.grid, state.tgrid
    M1, n, dim = tgrid.n_slices, grid.n_nodes, grid.dim
    y = state.values
    gy = gradient(grid, y)

    # state side first: the quadrature's temporaries then coexist with no
    # follower-side array, which keeps the peak memory of a roster down
    a = nl.a(y, gy)
    F1 = np.zeros((M1, n))
    F2 = np.zeros((M1, n, dim))
    for s, w in zip(_GAUSS_S, _GAUSS_W):
        F1 += w * nl.f_y(s * y, s * gy)
        F2 += w * nl.f_z(s * y, s * gy)

    a_y = nl.a_y(y, gy)
    a_z = nl.a_z(y, gy)
    if dim > 1 and float(np.abs(a_z).max()) > 0.0:
        raise ValidationError(
            "gradient-dependent diffusion is restricted to one dimension: "
            "the symmetrized flux correction would leave the diagonal"
        )

    A = np.empty((M1, n, dim))
    for ax in range(dim):
        A[:, :, ax] = a + gy[:, :, ax] * a_z[:, :, ax]

    f_y = nl.f_y(y, gy)
    f_z = nl.f_z(y, gy)
    e = f_z - a_y[:, :, None] * gy

    # discrete divergence of the sampled zeta-gradient field, all slices at once
    div_fz = np.zeros((M1, n))
    add_divergence(grid, f_z, div_fz)
    g0 = -f_y + div_fz

    return LinearCoefficients(grid, tgrid, b=a, f_adv=F2, f0=F1, B=A, g=e, g0=g0)


# ---------------------------------------------------------------------------
# cost evaluation


def evaluate_cost(
    problem: HierarchicProblem,
    u: SpaceTimeField | None,
    v1: SpaceTimeField,
    v2: SpaceTimeField,
    k: int | None = None,
    state: SpaceTimeField | None = None,
):
    """Follower costs at (v1, v2) under leader control u.

    Solves the quasi-linear state once unless ``state`` is supplied.
    With ``k`` in {1, 2} returns that follower's scalar cost; otherwise a
    dict with both costs split into control and tracking parts.
    """
    y = state if state is not None else _state(problem, u, v1, v2)
    out = {}
    xi_star = problem.xi("tracking")
    for j, vj in ((1, v1), (2, v2)):
        mask = problem.follower_mask(j)
        control = stepped_norm2(problem.grid, problem.tgrid, vj.values, mask=mask)
        diff = y.values - problem.targets[j - 1].values
        tracking = stepped_pairing(problem.grid, problem.tgrid, xi_star[None, :] * diff, diff)
        mu_j, nu_j = problem.mu[j - 1], problem.nu[j - 1]
        out[f"control{j}"] = 0.5 * mu_j * control
        out[f"tracking{j}"] = 0.5 * nu_j * tracking
        out[f"J{j}"] = out[f"control{j}"] + out[f"tracking{j}"]
    if k is not None:
        return out[f"J{k}"]
    return out


def _state(problem: HierarchicProblem, u, v1, v2) -> SpaceTimeField:
    src = combine_control_source(problem.cutoffs, u, v1, v2)
    return solve_forward_quasilinear(
        problem.nl, problem.grid, problem.tgrid, problem.y0, source=src
    )


# ---------------------------------------------------------------------------
# the equilibrium iteration


def follower_controls(
    problem: HierarchicProblem,
    y: np.ndarray,
    factors,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The follower pair v_k = (1/mu_k) xi_k p_k of the state y.

    p_k solves the follower adjoint on the sensitivity ``factors`` from a
    zero terminal datum with source -nu_k xi_* (y - y_{k,d}); both adjoints
    march as one two-column stack, and a follower with nu_k = 0 has p_k = 0.
    Returns the stacked pair (2, M+1, n) and the adjoints [p1, p2].
    """
    M1, n = problem.tgrid.n_slices, problem.grid.n_nodes
    xi_star = problem.xi("tracking")
    live = [k for k in (0, 1) if problem.nu[k] != 0.0]
    src = np.empty((len(live), M1, n))
    for j, k in enumerate(live):
        np.subtract(y, problem.targets[k].values, out=src[j])
        src[j] *= -problem.nu[k] * xi_star
    marched = iter(march_adjoint(factors, np.zeros((len(live), n)), src) if live else ())
    ps = [next(marched) if k in live else np.zeros((M1, n)) for k in (0, 1)]
    v = np.stack([problem.xi(f"follower{k + 1}")[None, :] * ps[k] / problem.mu[k] for k in (0, 1)])
    return v, ps


def compute_nash(
    problem: HierarchicProblem,
    u: SpaceTimeField | None = None,
    tol: float = 1e-11,
    start: np.ndarray | None = None,
) -> NashSolution:
    """Fixed point of  v_k <- (1/mu_k) xi_k p_k[v]  from the pair ``start``.

    ``start`` is the stacked follower pair (2, M+1, n) the iteration begins
    at, zero when None.  ``solvers.anderson`` iterates the map on the
    stacked pair (v1, v2) and stops when its relative residual
    |vhat - v| / |vhat| reaches ``tol``; NonConvergenceError is raised after
    NASH_MAX_ITER evaluations.  The equilibrium does not depend on where
    the loop starts, only the number of evaluations does:
    ``picard_iterations`` counts the evaluations from ``start``, and a
    start the map returns within ``tol`` stops at the first, where
    ``picard_contraction`` has no ratio and is NaN.  The accepted controls
    are the last map output, and one consistency pass recomputes the state
    and adjoints there, so the returned fields are mutually consistent.
    Each map evaluation builds one set of sensitivity factors, and the
    consistency pass one more.  The two follower adjoints share those
    factors, so each evaluation marches them as one two-column stack
    (``follower_controls``).

    ``final_update_norm`` is the relative residual of that consistency pass:
    one unmixed map application past the accepted controls, not the residual
    the stop was taken on.  Where the map expands it can exceed ``tol``.
    """
    grid, tgrid = problem.grid, problem.tgrid
    M1, n = tgrid.n_slices, grid.n_nodes

    def fixed_point_map(v):
        yf = _state(
            problem,
            u,
            SpaceTimeField(grid, tgrid, v[0]),
            SpaceTimeField(grid, tgrid, v[1]),
        )
        factors = sensitivity_factors(coefficients_from_state(problem.nl, yf))
        vhat, ps = follower_controls(problem, yf.values, factors)
        return vhat, (yf, ps)

    x0 = np.zeros((2, M1, n)) if start is None else start
    v, _, residuals, converged = anderson(fixed_point_map, x0, grid, tgrid, tol, NASH_MAX_ITER)
    if not converged:
        raise NonConvergenceError(
            f"Nash iteration did not reach tol={tol:.1e} in {NASH_MAX_ITER} iterations "
            f"(last residual {residuals[-1]:.3e})",
            history=residuals,
        )
    iterations = len(residuals)
    rate = contraction(residuals)

    # one consistency pass at the accepted controls
    vhat, (y_field, (p1, p2)) = fixed_point_map(v)
    final_res = fixed_point_residual(grid, tgrid, v, vhat)
    residuals.append(final_res)

    v1f = SpaceTimeField(grid, tgrid, v[0])
    v2f = SpaceTimeField(grid, tgrid, v[1])
    costs = evaluate_cost(problem, u, v1f, v2f, state=y_field)
    return NashSolution(
        y=y_field,
        v1=v1f,
        v2=v2f,
        p1=SpaceTimeField(grid, tgrid, p1),
        p2=SpaceTimeField(grid, tgrid, p2),
        picard_iterations=iterations,
        picard_contraction=rate,
        final_update_norm=final_res,
        residuals=tuple(residuals),
        converged=True,
        costs=costs,
    )


# ---------------------------------------------------------------------------
# stationarity checks


def random_directions(
    problem: HierarchicProblem,
    k: int,
    count: int,
    seed: int = 0,
) -> list[np.ndarray]:
    """Unit-norm space-time directions supported on omega_k, slices 1..M."""
    grid, tgrid = problem.grid, problem.tgrid
    rng = np.random.default_rng(seed)
    mask = problem.follower_mask(k)
    dirs = []
    for _ in range(count):
        w = np.zeros((tgrid.n_slices, grid.n_nodes))
        w[1:, mask] = rng.standard_normal((tgrid.steps, int(mask.sum())))
        w /= np.sqrt(stepped_norm2(grid, tgrid, w))
        dirs.append(w)
    return dirs


def sensitivity_states(factors, xi_k: np.ndarray, dirs: list[np.ndarray]) -> np.ndarray:
    """Sensitivity states y_s[w] from zero, driven by xi_k w: one stacked march over dirs."""
    n = factors.grid.n_nodes
    src = np.empty((len(dirs), factors.tgrid.n_slices, n))
    for j, w in enumerate(dirs):
        np.multiply(w, xi_k, out=src[j])
    return march_forward(factors, np.zeros((len(dirs), n)), src)


def gateaux_residual(
    problem: HierarchicProblem,
    solution: NashSolution,
    seed: int = 0,
) -> tuple[float, float]:
    """First-order residuals (r1, r2) of both costs at the equilibrium.

    The directional derivative of J_k along w is assembled from the
    linearized sensitivity state driven by xi_k w:

        dJ_k[w] = mu_k <v_k, w>_{omega_k} + nu_k <xi_* (y - y_{k,d}), y_s>,

    with every inner product the stepped space-time quadrature.  The
    derivative is linear in w; r_k is the worst |dJ_k| over
    FIRST_ORDER_DIRECTIONS generated unit-norm directions, normalized by
    1 + |J_k|.  The sensitivity states of one follower's directions come
    from one stacked march, and each follower's are released before the
    other's are marched.  The leader control enters through ``solution.y``.
    """
    factors = sensitivity_factors(coefficients_from_state(problem.nl, solution.y))
    return (_worst_derivative(problem, solution, factors, 1, seed),
            _worst_derivative(problem, solution, factors, 2, seed))


def _worst_derivative(
    problem: HierarchicProblem,
    solution: NashSolution,
    factors,
    k: int,
    seed: int,
) -> float:
    """Follower k's worst |dJ_k| over its directions, normalized by 1 + |J_k|."""
    grid, tgrid = problem.grid, problem.tgrid
    dirs = random_directions(problem, k, FIRST_ORDER_DIRECTIONS, seed + k)
    mu_k, nu_k = problem.mu[k - 1], problem.nu[k - 1]
    vk = (solution.v1 if k == 1 else solution.v2).values
    mask = problem.follower_mask(k)
    diff = problem.xi("tracking")[None, :] * (solution.y.values - problem.targets[k - 1].values)
    if nu_k != 0.0:
        y_s = sensitivity_states(factors, problem.xi(f"follower{k}"), dirs)
    worst = 0.0
    for j, w in enumerate(dirs):
        deriv = mu_k * stepped_pairing(grid, tgrid, vk, w, mask=mask)
        if nu_k != 0.0:
            deriv += nu_k * stepped_pairing(grid, tgrid, diff, y_s[j])
        worst = max(worst, abs(deriv))
    return worst / (1.0 + abs(solution.costs[f"J{k}"]))


def with_first_order_residuals(
    problem: HierarchicProblem,
    solution: NashSolution,
    seed: int = 0,
) -> NashSolution:
    """Copy of ``solution`` with the stationarity residuals filled in."""
    r = gateaux_residual(problem, solution, seed=seed)
    return replace(solution, first_order_residuals=r)


def fd_gateaux_residual(
    problem: HierarchicProblem,
    u: SpaceTimeField | None,
    solution: NashSolution,
    n_dirs: int = 3,
    eps: float = 1e-4,
    seed: int = 0,
) -> dict[str, float]:
    """Directional-derivative residual of both costs by central differences.

    Every probe re-solves the full quasi-linear state, so this check shares
    no code path with the adjoint representation used by ``compute_nash``
    or by ``gateaux_residual``.  Directions are unit-norm, supported on
    omega_k and on slices 1..M.  Returns the worst |dJ_k| per follower,
    normalized by 1 + |J_k|.
    """
    grid, tgrid = problem.grid, problem.tgrid
    base = {1: solution.v1.values, 2: solution.v2.values}
    out = {}
    for k in (1, 2):
        worst = 0.0
        for w in random_directions(problem, k, n_dirs, seed + k):
            vals = {}
            for sgn in (+1.0, -1.0):
                vk = base[k] + sgn * eps * w
                pair = {1: (vk, base[2]), 2: (base[1], vk)}[k]
                v1f = SpaceTimeField(grid, tgrid, pair[0])
                v2f = SpaceTimeField(grid, tgrid, pair[1])
                vals[sgn] = evaluate_cost(problem, u, v1f, v2f, k=k)
            deriv = (vals[1.0] - vals[-1.0]) / (2.0 * eps)
            ref = 1.0 + abs(vals[1.0] + vals[-1.0]) / 2.0
            worst = max(worst, abs(deriv) / ref)
        out[f"follower{k}"] = worst
    return out
