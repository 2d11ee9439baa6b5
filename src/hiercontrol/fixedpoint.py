"""Quasi-linear outer loop: linearize, control, update, repeat.

The controllability construction freezes the quasi-linear coefficients at a
trajectory z, solves the resulting linear leader problem exactly, and feeds
the controlled state back in as the next linearization point.  This module
only iterates: the frozen roster is ``nash.coefficients_from_state`` at z,
whose state side makes the frozen equation agree with the nonlinear one at
the linearization point itself.

The map z -> y[u(z)] is iterated by ``solvers.anderson``, which stops on the
relative residual |y - z| <= outer_tol |y| in the stepped weighted norm.
The follower pair of the accepted linearization starts the Nash
finalization on the quasi-linear dynamics.
With linear dynamics the map is constant: iteration 2 reproduces iteration 1
bit for bit and the loop stops with a zero residual.  For genuinely nonlinear
dynamics the loop reports its residual history verbatim; non-convergence is a
reported outcome, not an exception, because partial results (the last control
and its linearized performance) remain diagnostic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, NonConvergenceError, ValidationError
from .grids import SpaceTimeField, spatial_pairing
from .leader import GramianContext, LeaderSolution, solve_leader
from .nash import (
    HierarchicProblem,
    NashSolution,
    coefficients_from_state,
    compute_nash,
    follower_controls,
    with_first_order_residuals,
)
from .solvers import anderson, contraction, solve_forward_quasilinear
from .weights import CarlemanWeights, build_weights


def linearize_at(
    problem: HierarchicProblem,
    z: SpaceTimeField,
    weights: CarlemanWeights | None = None,
) -> GramianContext:
    """Gramian context of the linear leader problem frozen at the trajectory z.

    The roster is ``nash.coefficients_from_state`` at z.  Builds default
    weights focused on the leader-tracking overlap when none are supplied.
    """
    c = coefficients_from_state(problem.nl, z)
    if weights is None:
        weights = build_weights(problem.grid, problem.tgrid, problem.focus_box())
    return GramianContext(problem, weights, c)


@dataclass(frozen=True, eq=False)
class FixedPointReport:
    """Outcome of the quasi-linear controllability iteration.

    The follower controls and adjoints are ``nash.v1``, ``nash.v2``,
    ``nash.p1`` and ``nash.p2``: the equilibrium under ``u`` on the
    quasi-linear dynamics, whose Picard loop started from the follower
    pair of the last linearization's coupled system, so
    ``nash.picard_iterations`` counts evaluations from that start.
    ``nash`` is None when the finalization equilibrium solve failed, and
    ``terminal_norm`` is then NaN.
    ``outer_contraction`` is the largest ratio of successive
    ``update_norms`` (``solvers.contraction``).
    """

    iterations: int
    update_norms: tuple[float, ...]
    outer_contraction: float
    u: SpaceTimeField
    y: SpaceTimeField
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
    """Anderson-mixed fixed point of the linearize-and-control map.

    Starts from the uncontrolled quasi-linear trajectory (which carries the
    correct initial slice), freezes coefficients at the linearization point
    z, solves the penalized leader problem there, and takes the controlled
    state y as Phi(z); ``solvers.anderson`` mixes the iterates and stops
    when |y - z| <= outer_tol |y|.  ``update_norms`` is that relative
    residual per iteration, and at most ``max_outer`` >= 1 linearizations
    run.  Finalization recomputes the follower equilibrium under the found
    control on the true quasi-linear dynamics and reports that terminal norm
    next to the linearized one.  It starts from the follower pair the last
    linearization already holds: v_k = (1/mu_k) xi_k p_k with p_k marched
    from that linearization's controlled state on its context's
    sensitivity factors (``nash.follower_controls``), one stacked march on
    factors that already exist.  At a converged linearization that pair is
    the equilibrium up to the outer residual, so the Nash loop needs few
    evaluations; the equilibrium itself does not depend on the start.
    """
    if max_outer < 1:
        raise ValidationError(f"max_outer must be >= 1, got {max_outer}")
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

    def linearize_and_control(z):
        ctx = linearize_at(problem, SpaceTimeField(grid, tgrid, z), weights)
        ls = solve_leader(ctx, epsilon, cg_tol=cg_tol, cg_max=cg_max)
        return ls.y.values, (ls, ctx.sensitivity_factors)

    _, (ls, factors), update_norms, converged = anderson(
        linearize_and_control, z, grid, tgrid, outer_tol, max_outer
    )
    # the follower pair of the accepted linearization starts the finalization;
    # its factors are released before the Nash loop builds its own
    start, _ = follower_controls(problem, ls.y.values, factors)
    del factors

    nash: NashSolution | None = None
    terminal_norm = float("nan")
    try:
        nash = compute_nash(problem, u=ls.u, tol=nash_tol, start=start)
        nash = with_first_order_residuals(problem, nash, seed=seed)
        y_T = nash.y.values[-1]
        terminal_norm = float(np.sqrt(spatial_pairing(grid, y_T, y_T)))
    except (NonConvergenceError, BlowUpError) as exc:
        warnings.warn(f"finalization equilibrium solve failed: {exc}", stacklevel=2)

    return FixedPointReport(
        iterations=len(update_norms),
        update_norms=tuple(update_norms),
        outer_contraction=contraction(update_norms),
        u=ls.u,
        y=nash.y if nash is not None else ls.y,
        terminal_norm=terminal_norm,
        linearized_terminal_norm=ls.terminal_norm,
        converged=converged,
        epsilon=float(epsilon),
        leader=ls,
        nash=nash,
    )
