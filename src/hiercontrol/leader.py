"""Leader level: weighted penalized null control of the Nash-constrained system.

At a frozen linearization the follower equilibrium responds linearly to the
leader, so leader optimization reduces to a quadratic problem on the coupled
system

    y-step :  (I + tau L_y^m) y^m - y^{m-1} - tau sum_k (1/mu_k) xi_k^2 p_k^m
              = tau xi_0 u^m + [m=1] y_0
    p-step :  (I + tau (L_p^m)^T) p_k^m - p_k^{m+1} + tau nu_k xi_* y^m
              = tau nu_k xi_* y_{k,d}^m,

with L_y the linearized state operator and L_p the linearized-sensitivity
operator.  The penalized cost

    J_eps(u) = 1/2 int_Q rho_tilde^2 |u|^2 + 1/(2 eps) |y(T)|^2,
    rho_tilde^(-2) = exp(2 lambda nu) beta^7,

is minimized by u = xi_0 rho_tilde^(-2) phi where (phi, theta_k) solves the
transposed coupled system seeded by a terminal datum phi_T, and phi_T solves
the penalized-HUM equation

    (Lambda + eps I) phi_T = -b,

with Lambda the control-to-terminal-state Gramian and b the terminal value of
the free (u = 0) coupled response.  Lambda is assembled implicitly: one
sparse factorization of the monolithic space-time system serves the primal
solve and, through transposed triangular solves, the transposed solve, so
Lambda = E K^{-1} D K^{-T} E^T is symmetric positive semidefinite to rounding
and plain conjugate gradients applies.  The controlled terminal state equals
-eps phi_T identically, which is reported as a consistency defect.  K is
filled in one vectorised pass: the slice blocks I + tau L_y^m and
(I + tau L_p^m)^T of all M slices come from one stacked fill of the solvers'
slice pattern each, placed at their block offsets together with the
identity and coupling diagonals.

A sweep engine (lagged Picard between the y and p marches) replaces the
monolithic factorization above a configurable unknown-count threshold; both
engines solve the same equations and can be cross-checked.  The sweep
marches use the per-slice factors of the solvers module: LAPACK tridiagonal
factors in 1D, SuperLU in 2D.  The context is penalty-free: one
factorization serves a whole epsilon sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConditioningError, NonConvergenceError, ValidationError
from .grids import Field, SpaceTimeField, slice_pattern, stepped_pairing
from .nash import HierarchicProblem
from .solvers import (
    LinearCoefficients,
    march_adjoint,
    march_forward,
    sensitivity_factors,
    sensitivity_slices,
    state_factors,
    state_slices,
)
from .weights import CarlemanWeights, control_energy, observation_weight_trajectory

MONOLITHIC_LIMIT = 200_000


def _wnorm(grid, v: np.ndarray) -> float:
    return float(np.sqrt(np.dot(grid.weights * v, v)))


def _wdot(grid, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(grid.weights * a, b))


class GramianContext:
    """Solver state shared by every Gramian application of one leader problem.

    Holds the frozen linearization, the Carleman weights, the coupled-system
    engine (monolithic LU or Picard sweeps) and the cached free terminal
    state.  The penalty parameter is deliberately not part of the context,
    so an epsilon sweep reuses one factorization.
    """

    def __init__(
        self,
        problem: HierarchicProblem,
        weights: CarlemanWeights,
        coefficients: LinearCoefficients,
        strategy: str = "auto",
        picard_tol: float = 1e-10,
        picard_max: int = 400,
        monolithic_limit: int = MONOLITHIC_LIMIT,
    ):
        if not weights.grid.same_as(problem.grid) or not weights.tgrid.same_as(problem.tgrid):
            raise ValidationError("weights live on a different discretization than the problem")
        if not coefficients.grid.same_as(problem.grid):
            raise ValidationError("coefficients live on a different grid than the problem")
        self.problem = problem
        self.weights = weights
        self.c = coefficients
        self.grid = problem.grid
        self.tgrid = problem.tgrid
        self.picard_tol = picard_tol
        self.picard_max = picard_max
        self.monolithic_limit = monolithic_limit

        xi0 = problem.xi("leader")
        self.w7 = observation_weight_trajectory(weights)
        self.d = xi0[None, :] * self.w7          # control weight: u = d * phi
        self.xi0 = xi0
        self.xi_star = problem.xi("tracking")
        self.S = [problem.xi("follower1") ** 2, problem.xi("follower2") ** 2]

        size = 3 * self.tgrid.steps * self.grid.n_interior
        if strategy == "auto":
            strategy = "monolithic" if size <= monolithic_limit else "picard"
        if strategy not in ("monolithic", "picard"):
            raise ValidationError(f"unknown engine strategy {strategy!r}")
        self.strategy = strategy
        self.size = size
        self._lu = None
        self._factors = None
        self._b: np.ndarray | None = None
        self.gramian_applications = 0
        if strategy == "monolithic":
            self._lu = spla.splu(self._assemble())

    # ------------------------------------------------------------------ setup
    def _assemble(self) -> sp.csc_matrix:
        """Monolithic space-time matrix K of the coupled system, in one pass.

        Unknowns are ordered [y^1..y^M, p_1^1..p_1^M, p_2^1..p_2^M], each
        slice the interior nodes.  The slice blocks I + tau L_y^m and
        (I + tau L_p^m)^T come from one stacked slice-pattern fill per roster
        family, shifted to their block offsets.
        """
        grid, tgrid, problem = self.grid, self.tgrid, self.problem
        pat = slice_pattern(grid)
        ii = grid.interior_idx
        ni, M, tau = ii.size, tgrid.steps, tgrid.tau
        F = np.broadcast_to(state_slices(self.c), (M, pat.nnz))
        G = np.broadcast_to(sensitivity_slices(self.c), (M, pat.nnz))
        base = (np.arange(M) * ni)[:, None]
        shift = np.arange(ni, M * ni)               # slices 2..M of one block
        node = (base + np.arange(ni)).ravel()        # slices 1..M of one block
        rows = [base + pat.rows, shift]
        cols = [base + pat.indices, shift - ni]
        vals = [F, np.full(shift.size, -1.0)]

        def diagonal(r0, c0, v):
            keep = np.broadcast_to(v != 0.0, (M, ni)).ravel()
            rows.append(r0 + node[keep])
            cols.append(c0 + node[keep])
            vals.append(np.broadcast_to(v, (M, ni)).ravel()[keep])

        for k in (1, 2):
            off = k * M * ni
            rows += [off + base + pat.indices, off + shift - ni]
            cols += [off + base + pat.rows, off + shift]
            vals += [G, np.full(shift.size, -1.0)]
            diagonal(0, off, (-tau / problem.mu[k - 1]) * self.S[k - 1][ii])
            if problem.nu[k - 1] != 0.0:
                diagonal(off, 0, (tau * problem.nu[k - 1]) * self.xi_star[ii])
        flat = [np.concatenate([np.ravel(a) for a in part]) for part in (vals, rows, cols)]
        return sp.csc_matrix((flat[0], (flat[1], flat[2])), shape=(3 * M * ni, 3 * M * ni))

    def _get_factors(self):
        if self._factors is None:
            self._factors = (state_factors(self.c), sensitivity_factors(self.c))
        return self._factors

    def _promote_to_monolithic(self):
        self.strategy = "monolithic"
        if self._lu is None:
            self._lu = spla.splu(self._assemble())

    # --------------------------------------------------------------- monolith
    def _unpack(self, x: np.ndarray, y_init: np.ndarray | None):
        grid, tgrid = self.grid, self.tgrid
        ii = grid.interior_idx
        ni, M = ii.size, tgrid.steps
        out = []
        for blk in range(3):
            traj = np.zeros((M + 1, grid.n_nodes))
            seg = x[blk * M * ni : (blk + 1) * M * ni].reshape(M, ni)
            traj[1:, ii] = seg
            out.append(traj)
        y, p1, p2 = out
        if y_init is not None:
            y[0] = y_init
        p1[0] = p1[1]
        p2[0] = p2[1]
        return y, p1, p2

    def _solve_primal_monolithic(self, source_y, y0, targets):
        grid, tgrid = self.grid, self.tgrid
        ii = grid.interior_idx
        ni, M, tau = ii.size, tgrid.steps, tgrid.tau
        rhs = np.zeros(3 * M * ni)
        if source_y is not None:
            rhs[: M * ni] = tau * source_y[1:, ii].ravel()
        if y0 is not None:
            rhs[:ni] += y0[ii]
        if targets is not None:
            for k in (1, 2):
                nu_k = self.problem.nu[k - 1]
                if nu_k == 0.0:
                    continue
                blk = tau * nu_k * (self.xi_star[None, :] * targets[k - 1])[1:, ii].ravel()
                rhs[k * M * ni : (k + 1) * M * ni] = blk
        x = self._lu.solve(rhs)
        return self._unpack(x, y0)

    def _solve_transposed_monolithic(self, phi_T: np.ndarray):
        grid, tgrid = self.grid, self.tgrid
        ii = grid.interior_idx
        ni, M = ii.size, tgrid.steps
        rhs = np.zeros(3 * M * ni)
        rhs[(M - 1) * ni : M * ni] = phi_T[ii]
        x = self._lu.solve(rhs, trans="T")
        lam_y, lam_1, lam_2 = self._unpack(x, None)
        phi = lam_y
        phi[0] = phi[1]
        th1 = -lam_1
        th2 = -lam_2
        th1[0] = 0.0
        th2[0] = 0.0
        return phi, th1, th2

    # ----------------------------------------------------------------- picard
    def _solve_primal_picard(self, source_y, y0, targets, tol):
        grid, tgrid = self.grid, self.tgrid
        n = grid.n_nodes
        sf, pf = self._get_factors()
        y_init = y0 if y0 is not None else np.zeros(n)
        zeros = np.zeros((tgrid.n_slices, n))
        p = [zeros.copy(), zeros.copy()]
        y_prev = None
        for _ in range(self.picard_max):
            src = np.zeros((tgrid.n_slices, n))
            if source_y is not None:
                src += source_y
            for k in (1, 2):
                src += (self.S[k - 1][None, :] / self.problem.mu[k - 1]) * p[k - 1]
            y = march_forward(sf, y_init, src)
            for k in (1, 2):
                nu_k = self.problem.nu[k - 1]
                if nu_k == 0.0:
                    continue
                diff = y.copy()
                if targets is not None:
                    diff = diff - targets[k - 1]
                p[k - 1] = march_adjoint(pf, np.zeros(n), -nu_k * self.xi_star[None, :] * diff)
            if y_prev is not None:
                num = np.sqrt(stepped_pairing(grid, tgrid, y - y_prev, y - y_prev))
                den = 1.0 + np.sqrt(stepped_pairing(grid, tgrid, y, y))
                if num / den < tol:
                    return y, p[0], p[1]
            if self.problem.nu[0] == 0.0 and self.problem.nu[1] == 0.0:
                return y, p[0], p[1]
            y_prev = y
        raise NonConvergenceError(
            f"coupled primal sweep did not reach tol={tol:.1e} "
            f"in {self.picard_max} iterations"
        )

    def _solve_transposed_picard(self, phi_T: np.ndarray, tol):
        grid, tgrid = self.grid, self.tgrid
        n = grid.n_nodes
        sf, pf = self._get_factors()
        zeros = np.zeros((tgrid.n_slices, n))
        lam = [zeros.copy(), zeros.copy()]
        phi_prev = None
        for _ in range(self.picard_max):
            src = np.zeros((tgrid.n_slices, n))
            for k in (1, 2):
                nu_k = self.problem.nu[k - 1]
                if nu_k != 0.0:
                    src -= nu_k * self.xi_star[None, :] * lam[k - 1]
            phi = march_adjoint(sf, phi_T, src if src.any() else None)
            for k in (1, 2):
                lam[k - 1] = march_forward(
                    pf,
                    np.zeros(n),
                    (self.S[k - 1][None, :] / self.problem.mu[k - 1]) * phi,
                )
            if self.problem.nu[0] == 0.0 and self.problem.nu[1] == 0.0:
                phi_prev = phi
                break
            if phi_prev is not None:
                num = np.sqrt(stepped_pairing(grid, tgrid, phi - phi_prev, phi - phi_prev))
                den = 1.0 + np.sqrt(stepped_pairing(grid, tgrid, phi, phi))
                if num / den < tol:
                    phi_prev = phi
                    break
            phi_prev = phi
        else:
            raise NonConvergenceError(
                f"coupled transposed sweep did not reach tol={tol:.1e} "
                f"in {self.picard_max} iterations"
            )
        phi = phi_prev
        th1 = -lam[0]
        th2 = -lam[1]
        th1[0] = 0.0
        th2[0] = 0.0
        return phi, th1, th2

    # ------------------------------------------------------------- public API
    def solve_primal(self, source_y=None, y0=None, targets=None, picard_tol=None):
        """Coupled (y, p1, p2) response to a y-source, initial state and targets.

        Raw-array interface: trajectories are (n_slices, n_nodes) arrays.
        A diverging Picard sweep falls back to the monolithic factorization
        when the unknown count permits it.
        """
        if self.strategy == "monolithic":
            return self._solve_primal_monolithic(source_y, y0, targets)
        tol = self.picard_tol if picard_tol is None else picard_tol
        try:
            return self._solve_primal_picard(source_y, y0, targets, tol)
        except NonConvergenceError:
            if self.size > self.monolithic_limit:
                raise
            self._promote_to_monolithic()
            return self._solve_primal_monolithic(source_y, y0, targets)

    def solve_transposed(self, phi_T: np.ndarray, picard_tol=None):
        """(phi, theta_1, theta_2) of the transposed coupled system seeded by phi_T."""
        if self.strategy == "monolithic":
            return self._solve_transposed_monolithic(phi_T)
        tol = self.picard_tol if picard_tol is None else picard_tol
        try:
            return self._solve_transposed_picard(phi_T, tol)
        except NonConvergenceError:
            if self.size > self.monolithic_limit:
                raise
            self._promote_to_monolithic()
            return self._solve_transposed_monolithic(phi_T)

    def control_from_seed(self, phi: np.ndarray) -> np.ndarray:
        """u = xi_0 exp(2 lambda nu) beta^7 phi; vanishes at the endpoint slices."""
        return self.d * phi

    def gramian_apply(self, phi_T: np.ndarray, picard_tol=None) -> np.ndarray:
        """Lambda phi_T: terminal state of the zero-data response to u = d phi."""
        phi, _, _ = self.solve_transposed(phi_T, picard_tol)
        u = self.control_from_seed(phi)
        y, _, _ = self.solve_primal(self.xi0[None, :] * u, picard_tol=picard_tol)
        self.gramian_applications += 1
        return y[-1]

    def free_terminal(self, picard_tol=None) -> np.ndarray:
        """b: terminal state of the coupled response to the data alone (u = 0)."""
        if self._b is None:
            y, _, _ = self.solve_primal(
                None,
                y0=self.problem.y0.values,
                targets=tuple(t.values for t in self.problem.targets),
                picard_tol=picard_tol,
            )
            self._b = y[-1].copy()
        return self._b


# ---------------------------------------------------------------------------
# field-typed wrappers over the raw-array context engines


def solve_coupled_primal(
    ctx: GramianContext,
    u: SpaceTimeField | None,
    y0: Field | None = None,
    with_targets: bool = True,
) -> tuple[SpaceTimeField, SpaceTimeField, SpaceTimeField]:
    """Linear coupled forward-backward system at leader control u.

    ``y0`` defaults to the problem's initial state; pass with_targets=False
    for the homogeneous-data response used by the Gramian.
    """
    src = None if u is None else ctx.xi0[None, :] * u.values
    y_init = (ctx.problem.y0 if y0 is None else y0).values
    targets = tuple(t.values for t in ctx.problem.targets) if with_targets else None
    y, p1, p2 = ctx.solve_primal(src, y_init, targets)
    mk = SpaceTimeField
    return mk(ctx.grid, ctx.tgrid, y), mk(ctx.grid, ctx.tgrid, p1), mk(ctx.grid, ctx.tgrid, p2)


def solve_coupled_adjoint(
    ctx: GramianContext,
    phi_T: Field,
) -> tuple[SpaceTimeField, SpaceTimeField, SpaceTimeField]:
    """Transposed coupled system seeded by the terminal datum phi_T."""
    phi, th1, th2 = ctx.solve_transposed(np.asarray(phi_T.values, dtype=float))
    mk = SpaceTimeField
    return mk(ctx.grid, ctx.tgrid, phi), mk(ctx.grid, ctx.tgrid, th1), mk(ctx.grid, ctx.tgrid, th2)


def gramian_apply(ctx: GramianContext, phi_T: Field) -> Field:
    """Lambda phi_T as a Field (terminal state of the weighted response)."""
    return Field(ctx.grid, ctx.gramian_apply(np.asarray(phi_T.values, dtype=float)))


@dataclass(frozen=True, eq=False)
class LeaderSolution:
    """Penalized null-control result at one linearization."""

    u: SpaceTimeField
    phi_T: np.ndarray
    phi: SpaceTimeField
    theta1: SpaceTimeField
    theta2: SpaceTimeField
    y: SpaceTimeField
    p1: SpaceTimeField
    p2: SpaceTimeField
    epsilon: float
    terminal_norm: float
    predicted_terminal_norm: float
    terminal_defect: float
    free_terminal_norm: float
    control_energy: float
    J_eps_value: float
    J_eps_zero: float
    cg_iterations: int
    cg_residuals: tuple[float, ...]
    converged: bool
    strategy: str


def solve_leader(
    ctx: GramianContext,
    epsilon: float,
    y0: Field | None = None,
    targets: tuple[SpaceTimeField, SpaceTimeField] | None = None,
    cg_tol: float = 1e-8,
    cg_max: int = 400,
    stagnation_window: int = 20,
) -> LeaderSolution:
    """Conjugate gradients on (Lambda + eps I) phi_T = -b, then reconstruction.

    The iteration stops at relative residual cg_tol (measured against |b|),
    raises NonConvergenceError at cg_max, and raises ConditioningError after
    ``stagnation_window`` consecutive iterations without residual decrease;
    with a spectrally bounded SPD operator that indicates a weight/penalty
    combination beyond what the factorization can resolve.  Inner Picard
    sweeps, when active, run 100x tighter than cg_tol so they cannot pollute
    Gramian symmetry.
    """
    if epsilon <= 0:
        raise ValidationError(f"penalty epsilon must be positive, got {epsilon}")
    eps = float(epsilon)
    grid, tgrid = ctx.grid, ctx.tgrid
    inner_tol = min(ctx.picard_tol, cg_tol / 100.0)

    custom = y0 is not None or targets is not None
    if custom:
        y0v = (ctx.problem.y0 if y0 is None else y0).values
        tgtv = tuple(t.values for t in (ctx.problem.targets if targets is None else targets))
        yb, _, _ = ctx.solve_primal(None, y0v, tgtv, picard_tol=inner_tol)
        b = yb[-1].copy()
    else:
        y0v = ctx.problem.y0.values
        tgtv = tuple(t.values for t in ctx.problem.targets)
        b = ctx.free_terminal(picard_tol=inner_tol)
    bnorm = _wnorm(grid, b)
    J0 = 0.5 / eps * bnorm**2

    n = grid.n_nodes
    x = np.zeros(n)
    residuals: list[float] = []
    converged = True
    iterations = 0
    if bnorm > 0.0:
        r = -b.copy()
        p = r.copy()
        rs = _wdot(grid, r, r)
        best = np.sqrt(rs) / bnorm
        stag = 0
        converged = best <= cg_tol
        while not converged:
            if iterations >= cg_max:
                raise NonConvergenceError(
                    f"penalized-HUM conjugate gradient did not reach tol={cg_tol:.1e} "
                    f"in {cg_max} iterations (best residual {best:.3e})",
                    history=residuals,
                )
            Ap = ctx.gramian_apply(p, picard_tol=inner_tol) + eps * p
            alpha = rs / _wdot(grid, p, Ap)
            x = x + alpha * p
            r = r - alpha * Ap
            rs_new = _wdot(grid, r, r)
            res = np.sqrt(rs_new) / bnorm
            residuals.append(res)
            iterations += 1
            if res < best * (1.0 - 1e-12):
                best = res
                stag = 0
            else:
                stag += 1
                if stag >= stagnation_window:
                    raise ConditioningError(
                        f"conjugate gradient stagnated for {stagnation_window} iterations "
                        f"at residual {best:.3e} (tol {cg_tol:.1e}); increase epsilon or "
                        "the weight parameter lambda"
                    )
            if res <= cg_tol:
                converged = True
                break
            p = r + (rs_new / rs) * p
            rs = rs_new

    phi, th1, th2 = ctx.solve_transposed(x, picard_tol=inner_tol)
    u = ctx.control_from_seed(phi)
    y, p1, p2 = ctx.solve_primal(ctx.xi0[None, :] * u, y0v, tgtv, picard_tol=inner_tol)

    terminal = y[-1]
    tnorm = _wnorm(grid, terminal)
    pred = eps * _wnorm(grid, x)
    defect = _wnorm(grid, terminal + eps * x) / max(tnorm, pred, 1e-300)
    ce = control_energy(ctx.weights, u, grid.weights)
    J = 0.5 * ce + 0.5 / eps * tnorm**2

    mk = SpaceTimeField
    return LeaderSolution(
        u=mk(grid, tgrid, u),
        phi_T=x.copy(),
        phi=mk(grid, tgrid, phi),
        theta1=mk(grid, tgrid, th1),
        theta2=mk(grid, tgrid, th2),
        y=mk(grid, tgrid, y),
        p1=mk(grid, tgrid, p1),
        p2=mk(grid, tgrid, p2),
        epsilon=eps,
        terminal_norm=tnorm,
        predicted_terminal_norm=pred,
        terminal_defect=defect,
        free_terminal_norm=bnorm,
        control_energy=ce,
        J_eps_value=J,
        J_eps_zero=J0,
        cg_iterations=iterations,
        cg_residuals=tuple(residuals),
        converged=converged,
        strategy=ctx.strategy,
    )


def leader_duality_gap(ctx: GramianContext, sol: LeaderSolution) -> float:
    """Residual of the transposition identity tying the two coupled solves.

    <y^M, phi_T> = <y_0, phi(0)> + tau sum <xi_0 u, phi>
                 - sum_k nu_k tau sum <xi_* y_{k,d}, theta_k>,
    all inner products weighted.  Returns the gap normalized by the largest
    participating term.
    """
    grid, tgrid = ctx.grid, ctx.tgrid
    lhs = _wdot(grid, sol.y.values[-1], sol.phi_T)
    t_init = _wdot(grid, ctx.problem.y0.values, sol.phi.values[0])
    t_ctrl = stepped_pairing(
        grid, tgrid, ctx.xi0[None, :] * sol.u.values, sol.phi.values
    )
    t_data = 0.0
    for k in (1, 2):
        nu_k = ctx.problem.nu[k - 1]
        if nu_k == 0.0:
            continue
        tgt = ctx.problem.targets[k - 1].values
        th = (sol.theta1, sol.theta2)[k - 1].values
        t_data += nu_k * stepped_pairing(grid, tgrid, ctx.xi_star[None, :] * tgt, th)
    rhs = t_init + t_ctrl - t_data
    scale = max(abs(lhs), abs(t_init), abs(t_ctrl), abs(t_data), 1e-300)
    return abs(lhs - rhs) / scale
