"""Quasi-linear outer loop: linearize, control, update, repeat.

The controllability construction freezes the quasi-linear coefficients at a
trajectory z, solves the resulting linear leader problem exactly, and feeds
the controlled state back in as the next linearization point.  The state
equation frozen at z carries the averaged lower-order families

    F1 = int_0^1 f_y(s z, s grad z) ds,
    F2 = int_0^1 grad_zeta f(s z, s grad z) ds,

which reproduce f(z, grad z) = F1 z + F2 . grad z exactly whenever
f(0, 0) = 0, so the frozen equation is consistent with the nonlinear one at
the linearization point itself.  The adjoint-side roster (A, e, d0) is the
one shared with the follower equilibrium machinery.

With linear dynamics the map is constant: iteration 2 reproduces iteration 1
bit for bit and the loop stops with a zero update.  For genuinely nonlinear
dynamics the loop reports its update history verbatim; non-convergence is a
reported outcome, not an exception, because partial results (the last control
and its linearized performance) remain diagnostic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, NonConvergenceError
from .grids import SpaceTimeField, stepped_norm2, trajectory_gradient
from .leader import GramianContext, LeaderSolution, solve_leader
from .nash import (
    HierarchicProblem,
    NashSolution,
    coefficients_from_state,
    compute_nash,
    with_first_order_residuals,
)
from .solvers import LinearCoefficients, Nonlinearity, solve_forward_quasilinear
from .weights import CarlemanWeights, build_weights

_GAUSS_S, _GAUSS_W = np.polynomial.legendre.leggauss(8)
_GAUSS_S = 0.5 * (_GAUSS_S + 1.0)   # nodes mapped from [-1, 1] to [0, 1]
_GAUSS_W = 0.5 * _GAUSS_W


def integral_coefficients(
    nl: Nonlinearity,
    z: SpaceTimeField,
) -> tuple[np.ndarray, np.ndarray]:
    """Averaged lower-order coefficients (F1, F2) of the state linearization.

    Node-wise Gauss-Legendre quadrature with 8 points in s, exact for
    integrands polynomial in s up to degree 15.
    """
    grid, tgrid = z.grid, z.tgrid
    M1, n, dim = tgrid.n_slices, grid.n_nodes, grid.dim
    zv = z.values
    gz = trajectory_gradient(z)
    F1 = np.zeros((M1, n))
    F2 = np.zeros((M1, n, dim))
    for s, w in zip(_GAUSS_S, _GAUSS_W):
        F1 += w * np.asarray(nl.f_y(s * zv, s * gz), dtype=float)
        F2 += w * np.asarray(nl.f_z(s * zv, s * gz), dtype=float).reshape(M1, n, dim)
    return F1, F2


def linearize_at(
    problem: HierarchicProblem,
    z: SpaceTimeField,
    weights: CarlemanWeights | None = None,
    picard_tol: float = 1e-10,
) -> GramianContext:
    """Gramian context of the linear leader problem frozen at the trajectory z.

    State side: diffusion a(z, grad z), advection F2, reaction F1.  Adjoint
    side: the symmetrized roster (A, e, d0) from the equilibrium machinery.
    Builds default weights focused on the leader-tracking overlap when none
    are supplied.
    """
    adj = coefficients_from_state(problem.nl, z)
    zv = z.values
    gz = trajectory_gradient(z)
    a = np.asarray(problem.nl.a(zv, gz), dtype=float)
    F1, F2 = integral_coefficients(problem.nl, z)
    c = LinearCoefficients(
        grid=problem.grid,
        tgrid=problem.tgrid,
        b=a,
        f_adv=F2,
        f0=F1,
        B=adj.B,
        g=adj.g,
        g0=adj.g0,
        rho0=adj.rho0,
    )
    if weights is None:
        weights = build_weights(problem.grid, problem.tgrid, problem.focus_box())
    return GramianContext(problem, weights, c, picard_tol=picard_tol)


@dataclass(frozen=True, eq=False)
class FixedPointReport:
    """Outcome of the quasi-linear controllability iteration."""

    iterations: int
    update_norms: tuple[float, ...]
    u: SpaceTimeField
    y: SpaceTimeField
    p1: SpaceTimeField
    p2: SpaceTimeField
    v1: SpaceTimeField | None
    v2: SpaceTimeField | None
    terminal_norm: float
    linearized_terminal_norm: float
    converged: bool
    epsilon: float
    leader: LeaderSolution
    nash: NashSolution | None


def solve_hierarchic(
    problem: HierarchicProblem,
    epsilon: float,
    outer_tol: float = 1e-8,
    max_outer: int = 12,
    cg_tol: float = 1e-8,
    cg_max: int = 400,
    weights: CarlemanWeights | None = None,
    data_budget: float = 1.0,
    nash_tol: float = 1e-11,
    seed: int = 0,
) -> FixedPointReport:
    """Damped Picard on the linearize-and-control map.

    Starts from the uncontrolled quasi-linear trajectory (which carries the
    correct initial slice), freezes coefficients there, solves the penalized
    leader problem, and relaxes the linearization point toward the controlled
    state.  The step factor starts at 1 and is halved on an update-norm
    increase, floor 1/8.
    Finalization recomputes the follower equilibrium under the found control
    on the true quasi-linear dynamics and reports that terminal norm next to
    the linearized one.
    """
    grid, tgrid = problem.grid, problem.tgrid
    data_size = float(np.abs(problem.y0.values).max())
    for t in problem.targets:
        data_size = max(data_size, float(np.abs(t.values).max()))
    if data_size > data_budget:
        warnings.warn(
            f"data size {data_size:.3g} exceeds the advisory budget {data_budget:.3g}; "
            "the frozen-coefficient loop is only locally convergent",
            stacklevel=2,
        )

    if weights is None:
        weights = build_weights(grid, tgrid, problem.focus_box())

    z = solve_forward_quasilinear(problem.nl, grid, tgrid, problem.y0).values
    if float(np.abs(z).max()) > 1.0:
        warnings.warn(
            "uncontrolled trajectory leaves the unit ball; the smallness regime "
            "of the construction is not certified",
            stacklevel=2,
        )

    theta = 1.0
    update_norms: list[float] = []
    converged = False
    ls: LeaderSolution | None = None
    prev_update = np.inf
    iterations = 0
    for iterations in range(1, max_outer + 1):
        ctx = linearize_at(problem, SpaceTimeField(grid, tgrid, z), weights)
        ls = solve_leader(ctx, epsilon, cg_tol=cg_tol, cg_max=cg_max)
        z_new = z + theta * (ls.y.values - z)
        update = float(np.sqrt(stepped_norm2(grid, tgrid, z_new - z)))
        update_norms.append(update)
        z = z_new
        if update < outer_tol:
            converged = True
            break
        if update > prev_update:
            theta = max(theta * 0.5, 0.125)
        prev_update = update

    nash: NashSolution | None = None
    terminal_norm = float("nan")
    v1 = v2 = None
    try:
        nash = compute_nash(problem, u=ls.u, tol=nash_tol)
        nash = with_first_order_residuals(problem, ls.u, nash, seed=seed)
        terminal_norm = float(
            np.sqrt(np.dot(grid.weights * nash.y.values[-1], nash.y.values[-1]))
        )
        v1, v2 = nash.v1, nash.v2
    except (NonConvergenceError, BlowUpError) as exc:
        warnings.warn(f"finalization equilibrium solve failed: {exc}", stacklevel=2)

    y_final = nash.y if nash is not None else ls.y
    p1 = nash.p1 if nash is not None else ls.p1
    p2 = nash.p2 if nash is not None else ls.p2
    return FixedPointReport(
        iterations=iterations,
        update_norms=tuple(update_norms),
        u=ls.u,
        y=y_final,
        p1=p1,
        p2=p2,
        v1=v1,
        v2=v2,
        terminal_norm=terminal_norm,
        linearized_terminal_norm=ls.terminal_norm,
        converged=converged,
        epsilon=float(epsilon),
        leader=ls,
        nash=nash,
    )
