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
and a conjugate-gradient solve applies.  The controlled terminal state equals
-eps phi_T identically, which is reported as a consistency defect.  K is
filled in one vectorised pass: the slice blocks I + tau L_y^m and
(I + tau L_p^m)^T of all M slices come from one stacked fill of the solvers'
slice pattern each, placed at their block offsets together with the
identity and coupling diagonals.

The Krylov space K_k(Lambda, b) does not depend on eps, so the context
caches one Lanczos basis of Lambda started from b (plain three-term
recurrence in the weighted inner product, no reorthogonalization, as CG).
``solve_leader`` solves the k x k tridiagonal system (T_k + eps I) y = |b| e_1
for k = 1, 2, ... and takes phi_T = V_k y, which in exact arithmetic is the
k-th CG iterate; the basis grows, one Gramian application per vector, only
when a solve needs it.  An epsilon sweep therefore costs as many Gramian
applications as its hardest epsilon.  The answer depends only on the
context, eps and cg_tol: a solve on a warm context is bit-identical to the
same solve on a fresh one.

A sweep engine replaces the monolithic factorization above MONOLITHIC_LIMIT
unknowns under ``strategy="auto"``: one block Gauss-Seidel (lagged Picard)
sweep serves K and K^T.  K^T reverses both marches and swaps the two
coupling blocks, and both engines take theta_k = -lambda_k from the
follower blocks of K^T in one place.  Both engines solve the same equations
and can be cross-checked.  An engine named explicitly is the engine that
runs: a Picard sweep that does not converge raises NonConvergenceError.  The
sweep marches use the per-slice factors of the solvers module: LAPACK
tridiagonal factors in 1D, SuperLU in 2D.  The context is penalty-free: one
factorization and one Krylov basis serve a whole epsilon sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigvalsh_tridiagonal, solve_banded

from .errors import ConditioningError, NonConvergenceError, ValidationError
from .grids import SpaceTimeField, slice_pattern, stepped_pairing
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
PICARD_MAX = 400
STAGNATION_WINDOW = 20


def _wnorm(grid, v: np.ndarray) -> float:
    return float(np.sqrt(np.dot(grid.weights * v, v)))


def _wdot(grid, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(grid.weights * a, b))


@dataclass(eq=False)
class KrylovBasis:
    """Lanczos basis of Lambda from v_1 = -b / |b| in the weighted inner product.

    After k Gramian applications it holds v_1..v_{k+1} and the tridiagonal
    T_k: alpha_1..alpha_k on the diagonal, beta_2..beta_{k+1} beside it.
    ``tol`` is the inner coupled-solve tolerance b and the basis were
    computed at (None for the exact monolithic engine).
    """

    tol: float | None
    b: np.ndarray
    bnorm: float
    v: list
    alpha: list
    beta: list


class GramianContext:
    """Solver state shared by every Gramian application of one leader problem.

    Holds the frozen linearization, the Carleman weights, the coupled-system
    engine (monolithic LU or Picard sweeps), the free terminal state b and
    the Lanczos basis of Lambda started from b.  The penalty parameter is
    deliberately not part of the context, so an epsilon sweep reuses one
    factorization and one Krylov basis.
    """

    def __init__(
        self,
        problem: HierarchicProblem,
        weights: CarlemanWeights,
        coefficients: LinearCoefficients,
        strategy: str = "auto",
        picard_tol: float = 1e-10,
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

        xi0 = problem.xi("leader")
        self.w7 = observation_weight_trajectory(weights)
        self.d = xi0[None, :] * self.w7          # control weight: u = d * phi
        self.xi0 = xi0
        self.xi_star = problem.xi("tracking")
        self.S = [problem.xi("follower1") ** 2, problem.xi("follower2") ** 2]

        size = 3 * self.tgrid.steps * self.grid.n_interior
        if strategy == "auto":
            strategy = "monolithic" if size <= MONOLITHIC_LIMIT else "picard"
        if strategy not in ("monolithic", "picard"):
            raise ValidationError(f"unknown engine strategy {strategy!r}")
        self.strategy = strategy
        self.size = size
        self._lu = None
        self._factors = None
        self._krylov: KrylovBasis | None = None
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

    # ----------------------------------------------------------------- picard
    def _sweep(self, transpose: bool, seed, source, targets, tol):
        """Block Gauss-Seidel sweeps on K, or on K^T, until the lead block settles.

        Each sweep marches the lead block x (y, or phi for K^T) with the
        follower blocks z_k (p_k, or lambda_k) lagged, then marches each z_k
        from the new x; a coupling block that is identically zero is skipped.
        The sweep stops when |x - x_prev| / (1 + |x|) < tol, or after one
        sweep when both nu_k vanish and x no longer depends on z_k.
        """
        grid, tgrid = self.grid, self.tgrid
        n = grid.n_nodes
        sf, pf = self._get_factors()
        s_mu = [self.S[k] / self.problem.mu[k] for k in (0, 1)]       # z_k into x in K
        nu_xi = [-self.problem.nu[k] * self.xi_star for k in (0, 1)]  # x into z_k in K
        # K^T reverses both marches and swaps the two coupling blocks; the
        # marches are looked up at call time, so a wrapper bound to this
        # module is the one that runs
        if transpose:
            lead, follow, into_x, into_z = march_adjoint, march_forward, nu_xi, s_mu
        else:
            lead, follow, into_x, into_z = march_forward, march_adjoint, s_mu, nu_xi
        seed = np.zeros(n) if seed is None else seed
        z = [np.zeros((tgrid.n_slices, n)) for _ in (0, 1)]
        x_prev = None
        for _ in range(PICARD_MAX):
            src = np.zeros((tgrid.n_slices, n))
            if source is not None:
                src += source
            for coef, zk in zip(into_x, z):
                if coef.any():
                    src += coef[None, :] * zk
            x = lead(sf, seed, src if src.any() else None)
            for k, coef in enumerate(into_z):
                if coef.any():
                    dk = x if targets is None else x - targets[k]
                    z[k] = follow(pf, np.zeros(n), coef[None, :] * dk)
            if x_prev is not None:
                num = np.sqrt(stepped_pairing(grid, tgrid, x - x_prev, x - x_prev))
                den = 1.0 + np.sqrt(stepped_pairing(grid, tgrid, x, x))
                if num / den < tol:
                    return x, z[0], z[1]
            if self.problem.nu[0] == 0.0 and self.problem.nu[1] == 0.0:
                return x, z[0], z[1]
            x_prev = x
        raise NonConvergenceError(
            f"coupled {'transposed' if transpose else 'primal'} sweep did not reach "
            f"tol={tol:.1e} in {PICARD_MAX} iterations"
        )

    # ------------------------------------------------------------- public API
    def solve_primal(self, source_y=None, y0=None, targets=None, picard_tol=None):
        """Coupled (y, p1, p2) response to a y-source, initial state and targets.

        Raw-array interface: trajectories are (n_slices, n_nodes) arrays.
        """
        if self.strategy == "monolithic":
            return self._solve_primal_monolithic(source_y, y0, targets)
        tol = self.picard_tol if picard_tol is None else picard_tol
        return self._sweep(False, y0, source_y, targets, tol)

    def solve_transposed(self, phi_T: np.ndarray, picard_tol=None):
        """(phi, theta_1, theta_2) of the transposed coupled system seeded by phi_T.

        theta_k = -lambda_k with theta_k(0) = 0, lambda_k the follower blocks of K^T.
        """
        if self.strategy == "monolithic":
            ii, M = self.grid.interior_idx, self.tgrid.steps
            rhs = np.zeros(3 * M * ii.size)
            rhs[(M - 1) * ii.size : M * ii.size] = phi_T[ii]
            phi, lam1, lam2 = self._unpack(self._lu.solve(rhs, trans="T"), None)
            phi[0] = phi[1]
        else:
            tol = self.picard_tol if picard_tol is None else picard_tol
            phi, lam1, lam2 = self._sweep(True, phi_T, None, None, tol)
        th1 = -lam1
        th2 = -lam2
        th1[0] = 0.0
        th2[0] = 0.0
        return phi, th1, th2

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
        """b: terminal state of the coupled response to the data alone (u = 0).

        Cached with the Krylov basis under the inner tolerance it was
        computed at; a call at another tolerance recomputes both.
        """
        return self.krylov(0, picard_tol).b

    def krylov(self, k: int, picard_tol=None) -> KrylovBasis:
        """The cached Lanczos basis, extended to at least k Gramian applications."""
        tol = None if self.strategy == "monolithic" else (
            self.picard_tol if picard_tol is None else picard_tol)
        kb = self._krylov
        if kb is None or kb.tol != tol:
            y, _, _ = self.solve_primal(
                None,
                y0=self.problem.y0.values,
                targets=tuple(t.values for t in self.problem.targets),
                picard_tol=tol,
            )
            b = y[-1].copy()
            bnorm = _wnorm(self.grid, b)
            v1 = [-b / bnorm] if bnorm > 0.0 else []
            kb = self._krylov = KrylovBasis(tol, b, bnorm, v1, [], [])
        while kb.v and len(kb.alpha) < k:
            v = kb.v[-1]
            w = self.gramian_apply(v, picard_tol=tol)
            if kb.beta:
                w = w - kb.beta[-1] * kb.v[-2]
            alpha = _wdot(self.grid, w, v)
            w = w - alpha * v
            beta = _wnorm(self.grid, w)
            kb.alpha.append(alpha)
            kb.beta.append(beta)
            kb.v.append(w / beta if beta > 0.0 else w)
        return kb


# ---------------------------------------------------------------------------
# field-typed wrapper over the raw-array context engine


def solve_coupled_primal(
    ctx: GramianContext,
    u: SpaceTimeField | None,
) -> tuple[SpaceTimeField, SpaceTimeField, SpaceTimeField]:
    """Linear coupled forward-backward system at leader control u, from the problem's data."""
    src = None if u is None else ctx.xi0[None, :] * u.values
    targets = tuple(t.values for t in ctx.problem.targets)
    y, p1, p2 = ctx.solve_primal(src, ctx.problem.y0.values, targets)
    mk = SpaceTimeField
    return mk(ctx.grid, ctx.tgrid, y), mk(ctx.grid, ctx.tgrid, p1), mk(ctx.grid, ctx.tgrid, p2)


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
    ritz_min: float
    ritz_max: float
    eps_over_ritz_max: float
    converged: bool
    strategy: str


def solve_leader(
    ctx: GramianContext,
    epsilon: float,
    cg_tol: float = 1e-8,
    cg_max: int = 400,
) -> LeaderSolution:
    """Conjugate gradients on (Lambda + eps I) phi_T = -b, then reconstruction.

    CG runs in its Lanczos form on the context's cached Krylov basis: the
    k-th iterate is V_k y with (T_k + eps I) y = |b| e_1, and its residual
    is beta_{k+1} |y_k|.  The iteration stops at relative residual cg_tol
    (measured against |b|), raises NonConvergenceError at cg_max, and raises
    ConditioningError after STAGNATION_WINDOW consecutive iterations
    without residual decrease; with a spectrally bounded SPD operator that
    indicates a weight/penalty combination beyond what the factorization can
    resolve.  Inner Picard sweeps, when active, run 100x tighter than cg_tol
    so they cannot pollute Gramian symmetry.

    ``cg_iterations`` counts the Gramian applications this call made to
    extend the basis, ``cg_residuals`` the full residual history at this
    eps (its length is the Krylov dimension CG would have run); on a fresh
    context the two agree.  The result depends only on (ctx, eps, cg_tol):
    a solve on a warm context is bit-identical to one on a fresh context.
    The Ritz values of Lambda from T_k and eps / ritz_max are reported at
    no extra cost (NaN when no iteration ran).
    """
    if epsilon <= 0:
        raise ValidationError(f"penalty epsilon must be positive, got {epsilon}")
    eps = float(epsilon)
    grid, tgrid = ctx.grid, ctx.tgrid
    inner_tol = min(ctx.picard_tol, cg_tol / 100.0)

    y0v = ctx.problem.y0.values
    tgtv = tuple(t.values for t in ctx.problem.targets)
    applied = ctx.gramian_applications
    kb = ctx.krylov(0, inner_tol)
    bnorm = kb.bnorm
    J0 = 0.5 / eps * bnorm**2

    coef = np.zeros(0)
    residuals: list[float] = []
    best = 1.0  # |r_0| / |b|
    converged = bnorm == 0.0 or best <= cg_tol
    stag = 0
    k = 0
    while not converged:
        if k >= cg_max:
            raise NonConvergenceError(
                f"penalized-HUM conjugate gradient did not reach tol={cg_tol:.1e} "
                f"in {cg_max} iterations (best residual {best:.3e})",
                history=residuals,
            )
        k += 1
        kb = ctx.krylov(k, inner_tol)
        band = np.zeros((3, k))
        band[0, 1:] = kb.beta[: k - 1]
        band[1] = np.add(kb.alpha[:k], eps)
        band[2, :-1] = kb.beta[: k - 1]
        rhs = np.zeros(k)
        rhs[0] = bnorm
        coef = solve_banded((1, 1), band, rhs)
        res = float(kb.beta[k - 1] * abs(coef[-1]) / bnorm)
        residuals.append(res)
        if res < best * (1.0 - 1e-12):
            best = res
            stag = 0
        else:
            stag += 1
            if stag >= STAGNATION_WINDOW:
                raise ConditioningError(
                    f"conjugate gradient stagnated for {STAGNATION_WINDOW} iterations "
                    f"at residual {best:.3e} (tol {cg_tol:.1e}); increase epsilon or "
                    "the weight parameter lambda"
                )
        converged = res <= cg_tol

    x = np.zeros(grid.n_nodes)
    for c, v in zip(coef, kb.v):
        x += c * v
    if k:
        ritz = eigvalsh_tridiagonal(np.array(kb.alpha[:k]), np.array(kb.beta[: k - 1]))
        ritz_min, ritz_max = float(ritz[0]), float(ritz[-1])
    else:
        ritz_min = ritz_max = float("nan")

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
        phi_T=x,
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
        cg_iterations=ctx.gramian_applications - applied,
        cg_residuals=tuple(residuals),
        ritz_min=ritz_min,
        ritz_max=ritz_max,
        eps_over_ritz_max=eps / ritz_max if ritz_max != 0.0 else float("inf"),
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
