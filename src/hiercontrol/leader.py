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
the free (u = 0) coupled response.  rho_tilde^(-2) is the field
``rho_tilde_inv2`` the weights sampled once.  Lambda is applied implicitly:
one coupled solve with K^T gives phi from phi_T, one with K gives y(T) from
u = d phi, so Lambda = E K^{-1} D K^{-T} E^T is symmetric positive
semidefinite to the inner tolerance and a conjugate-gradient solve applies.
The controlled terminal state equals -eps phi_T identically; the residual
of that identity is reported against |b| and against |y(T)|.

Both follower blocks solve the same backward sensitivity equation on the
same factors, with sources nu_k xi_* (y_{k,d} - y), so by linearity
p_k = nu_k w + c_k with w = march_adjoint(-xi_* y) and the target responses
c_k = march_adjoint(nu_k xi_* y_{k,d}), and the lead block reads
sigma w + g, with

    sigma = sum_k nu_k xi_k^2 / mu_k,   g = sum_k (xi_k^2 / mu_k) c_k.

So K is solved as a two-block system: the lead block x (y, or phi for K^T)
and one follower response w.  The leader reads only the state y of K, so
p_k is never formed: the context keeps g alone, marched once when it is
built (one stack of c_k over each k with nu_k != 0 and a target that is not
identically zero).  One engine solves both systems: block Gauss-Seidel
sweeps, using the per-slice factors of the solvers module: LAPACK
tridiagonal factors in 1D, SuperLU in 2D.  A sweep marches w from x, then
x from w, one column each.
K^T reverses both marches and swaps the two coupling coefficients: w =
march_forward(sigma phi) and the lead block reads -xi_* w, since
-xi_* sum_k nu_k lambda_k is what the follower blocks lambda_k =
march_forward((xi_k^2 / mu_k) phi) feed it.  The follower blocks of K^T,
theta_k = -lambda_k, are marched as one stack after the sweep and only
when a caller reads them.  The Gramian needs only their data pairing
sum_k nu_k tau sum <xi_* y_{k,d}, theta_k>, which the summation-by-parts
identity of the sensitivity march with zero seeds turns into
-tau sum <g, phi>, phi the lead block the last sweep marched from.
A sweep is the fixed-point map of the lead block, and its fixed-point
residual is the residual of the coupled equations preconditioned by the
lead march, so ``solvers.anderson`` iterates it: Anderson mixing stops when
that residual is below the inner tolerance relative to the lead block, and
a sweep that does not get there raises NonConvergenceError.

The Krylov space K_k(Lambda, b) does not depend on eps, so the context
caches one Lanczos basis of Lambda started from b (plain three-term
recurrence in the weighted inner product, no reorthogonalization, as CG).
``solve_leader`` solves the k x k tridiagonal system (T_k + eps I) c = |b| e_1
for k = 1, 2, ... and takes phi_T = V_k c, which in exact arithmetic is the
k-th CG iterate; the basis grows, one Gramian application per vector, only
when a solve needs it.  The coupled system is linear, so the solution at
eps is rebuilt from the same c: each basis vector v_j keeps what its
Gramian application computed (the primal response y_j, phi_j on the leader
support, phi_j(0) and its data pairing), the controlled state is the free
response plus sum c_j y_j and the control is d sum c_j phi_j, with no
march.  An epsilon sweep therefore costs 1 + 2k coupled solves, k the
Gramian applications of its hardest epsilon: the free response and two per
basis vector.  The answer depends only on the context, eps and cg_tol: a
solve on a warm context is bit-identical to the same solve on a fresh one.
The context is penalty-free: one set of slice factors and one Krylov basis
serve a whole epsilon sweep.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, solve_banded

from .errors import ConditioningError, NonConvergenceError, ValidationError
from .grids import SpaceTimeField, spatial_pairing, stepped_pairing
from .nash import HierarchicProblem
from .solvers import (
    LinearCoefficients,
    anderson,
    contraction,
    march_adjoint,
    march_forward,
    sensitivity_factors,
    state_factors,
)
from .weights import CarlemanWeights

PICARD_MAX = 400
STAGNATION_WINDOW = 20


@dataclass(frozen=True, eq=False)
class GramianResponse:
    """One Gramian application, kept as far as a leader solve rebuilds from it.

    For the seed phi_T, (phi, theta_1, theta_2) solve K^T and ``y`` is the
    zero-data primal response to u = d phi; its last slice is Lambda phi_T.
    Of the transposed blocks only ``phi_leader`` (phi on the leader support,
    where d is nonzero), ``phi0`` = phi(0) and ``data_pairing`` =
    sum_k nu_k tau sum <xi_* y_{k,d}, theta_k> are kept.
    """

    y: np.ndarray
    phi_leader: np.ndarray
    phi0: np.ndarray
    data_pairing: float

    @property
    def terminal(self) -> np.ndarray:
        return self.y[-1]


@dataclass(eq=False)
class KrylovBasis:
    """Lanczos basis of Lambda from v_1 = -b / |b| in the weighted inner product.

    After k Gramian applications it holds v_1..v_{k+1}, the responses to
    v_1..v_k and the tridiagonal T_k: alpha_1..alpha_k on the diagonal,
    beta_2..beta_{k+1} beside it.  ``y_free`` is the coupled state response
    to the data alone (u = 0) and b its terminal slice.  ``tol`` is the
    inner coupled-solve tolerance all of them were computed at.
    """

    tol: float
    y_free: np.ndarray
    b: np.ndarray
    bnorm: float
    v: list
    responses: list
    alpha: list
    beta: list


@dataclass(frozen=True, eq=False)
class TransposedResponse:
    """The solution (phi, theta_1, theta_2) of K^T seeded by phi_T.

    ``phi`` is the lead block.  ``thetas()`` returns the follower blocks
    theta_k = -lambda_k, theta_k(0) = 0, marching them only when called.
    ``data_pairing`` is sum_k nu_k tau sum <xi_* y_{k,d}, theta_k> for the
    problem's targets.
    """

    phi: np.ndarray
    data_pairing: float
    thetas: Callable[[], tuple[np.ndarray, np.ndarray]]


class GramianContext:
    """Solver state shared by every Gramian application of one leader problem.

    Holds the frozen linearization, the Carleman weights, the slice factors
    the coupled sweeps march with (``state_factors`` of the lead block,
    ``sensitivity_factors`` of the follower response), the lead-block
    source g of the problem's targets (None when no target reaches it),
    the free response and the Lanczos basis of Lambda started from its
    terminal state b.  The Carleman probe marches on
    the same state factors.
    The penalty parameter is deliberately not part of the context, so an
    epsilon sweep reuses one set of factors and one Krylov basis.
    ``gramian_applications`` and ``coupled_solves`` count the calls of
    ``gramian_apply`` and of ``solve_primal`` and ``solve_transposed``;
    ``sweeps`` counts the block Gauss-Seidel sweeps, and ``contractions``
    holds, per coupled solve that swept more than once, the largest ratio
    |r_k| / |r_{k-1}| of its fixed-point residuals (``solvers.contraction``).
    """

    strategy = "picard"  # the benchmark reads the engine name from here

    def __init__(
        self,
        problem: HierarchicProblem,
        weights: CarlemanWeights,
        coefficients: LinearCoefficients,
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
        # control weight: u = d * phi = xi_0 rho_tilde^-2 phi
        self.d = xi0[None, :] * weights.rho_tilde_inv2
        self.xi0 = xi0
        self.leader_support = np.flatnonzero(xi0)
        self.xi_star = problem.xi("tracking")
        self.S = [problem.xi("follower1") ** 2, problem.xi("follower2") ** 2]
        self.s_mu = [self.S[k] / problem.mu[k] for k in (0, 1)]
        # coupling coefficients of the two-block system: w into the lead
        # block x, and x into w; K^T swaps the two
        self.sigma = problem.nu[0] * self.s_mu[0] + problem.nu[1] * self.s_mu[1]
        self.neg_xi_star = -self.xi_star

        self.size = 3 * self.tgrid.steps * self.grid.n_interior
        self.state_factors = state_factors(coefficients)
        self.sensitivity_factors = sensitivity_factors(coefficients)
        self.g = self._target_source()
        self._krylov: KrylovBasis | None = None
        self.gramian_applications = 0
        self.coupled_solves = 0
        self.sweeps = 0
        self.contractions: list[float] = []

    @property
    def decoupled(self) -> bool:
        """True when both nu_k vanish: the lead block then does not see w."""
        return self.problem.nu[0] == 0.0 and self.problem.nu[1] == 0.0

    def _target_source(self):
        """The lead-block source g = sum_k (xi_k^2 / mu_k) c_k of the targets.

        c_k = march_adjoint(nu_k xi_* y_{k,d}) for each k with nu_k != 0
        and a target that is not identically zero, as one stacked march on
        the sensitivity factors; None when there is no such k.
        """
        nu = self.problem.nu
        targets = [t.values for t in self.problem.targets]
        live = [k for k in (0, 1) if nu[k] != 0.0 and targets[k].any()]
        if not live:
            return None
        src = np.stack([(nu[k] * self.xi_star)[None, :] * targets[k] for k in live])
        marched = march_adjoint(
            self.sensitivity_factors, np.zeros((len(live), self.grid.n_nodes)), src
        )
        g = None
        for k, ck in zip(live, marched):
            g = self.s_mu[k] * ck if g is None else g + self.s_mu[k] * ck
        return g

    def _follower_response(self, transpose: bool, x: np.ndarray) -> np.ndarray:
        """The follower response w of the lead block x: one single-column march.

        w = march_adjoint(-xi_* x) in K, w = march_forward(sigma x) in K^T,
        both on the sensitivity factors from a zero seed.  The march is
        looked up at call time, so a wrapper bound to this module is the
        one that runs.
        """
        seed = np.zeros(self.grid.n_nodes)
        if transpose:
            return march_forward(self.sensitivity_factors, seed, self.sigma[None, :] * x)
        return march_adjoint(self.sensitivity_factors, seed, self.neg_xi_star[None, :] * x)

    def _sweep(self, transpose: bool, seed, source, tol):
        """Block Gauss-Seidel sweeps on the two-block system until x settles.

        The lead block x (y, or phi for K^T) is marched once with the
        follower response w at zero.  One sweep x -> Phi(x) marches w from
        x (``_follower_response``), then x from ``source`` plus the coupling
        sigma w (K) or -xi_* w (K^T); every march carries one column.
        ``solvers.anderson`` iterates Phi until |Phi(x) - x| <= tol |Phi(x)|
        in the stepped weighted norm.  Returns the last Phi(x) and the x it
        was marched from.  When both nu_k vanish x does not depend on w,
        and the first march is returned as its own input.  Each sweep
        counts in ``sweeps`` and each solve's largest residual ratio goes
        to ``contractions``.  ``tol`` None means the context's picard_tol.
        """
        grid, tgrid = self.grid, self.tgrid
        tol = self.picard_tol if tol is None else tol
        n = grid.n_nodes
        # K^T reverses the lead march and swaps the two coupling coefficients
        lead, into_x = (
            (march_adjoint, self.neg_xi_star) if transpose else (march_forward, self.sigma)
        )
        seed = np.zeros(n) if seed is None else seed

        def lead_block(w):
            src = np.zeros((tgrid.n_slices, n))
            if source is not None:
                src += source
            if w is not None:
                src += into_x[None, :] * w
            return lead(self.state_factors, seed, src if src.any() else None)

        def sweep(x):
            return lead_block(self._follower_response(transpose, x)), x

        x = lead_block(None)
        if self.decoupled:
            return x, x
        x, marched, history, converged = anderson(sweep, x, grid, tgrid, tol, PICARD_MAX)
        self.sweeps += len(history)
        if len(history) > 1:
            self.contractions.append(contraction(history))
        if not converged:
            raise NonConvergenceError(
                f"coupled {'transposed' if transpose else 'primal'} sweep did not reach "
                f"tol={tol:.1e} in {PICARD_MAX} iterations"
            )
        return x, marched

    def _primal(self, source, data, tol):
        """The state y of K; with ``data`` y0 is its seed and g joins its source."""
        y0 = None
        if data:
            y0 = self.problem.y0.values
            if self.g is not None:
                source = self.g if source is None else source + self.g
        return self._sweep(False, y0, source, tol)[0]

    def _transposed(self, phi_T, tol) -> TransposedResponse:
        """The K^T response; its data pairing is -tau sum <g, phi> by summation by parts."""
        phi, marched = self._sweep(True, phi_T, None, tol)
        data = 0.0 if self.g is None else -stepped_pairing(self.grid, self.tgrid, self.g, marched)
        return TransposedResponse(phi, data, functools.partial(self._thetas, marched))

    def _thetas(self, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """theta_k = -march_forward((xi_k^2 / mu_k) phi), one stacked march.

        A block whose coupling coefficient is identically zero is left out
        of the stack and is zero.
        """
        live = [k for k in (0, 1) if self.s_mu[k].any()]
        thetas = [np.zeros_like(phi), np.zeros_like(phi)]
        if live:
            src = np.stack([-self.s_mu[k][None, :] * phi for k in live])
            marched = march_forward(
                self.sensitivity_factors, np.zeros((len(live), self.grid.n_nodes)), src
            )
            for k, th in zip(live, marched):
                thetas[k] = th
        return tuple(thetas)

    # ------------------------------------------------------------- public API
    def solve_primal(self, source_y=None, data=False, picard_tol=None) -> np.ndarray:
        """The state y of K for the lead-block source ``source_y``.

        With ``data`` the problem's own data enters too: y0 as the initial
        state and the targets through g.  The follower blocks p_k of K are
        not formed, since the leader reads only y.  Raw-array interface:
        trajectories are (n_slices, n_nodes) arrays.
        """
        self.coupled_solves += 1
        return self._primal(source_y, data, picard_tol)

    def solve_transposed(self, phi_T: np.ndarray, picard_tol=None) -> TransposedResponse:
        """The transposed coupled system seeded by phi_T, as a ``TransposedResponse``.

        K^T is swept as the two-block system of phi and w =
        march_forward(sigma phi), whose lead block reads -xi_* w.
        theta_k = -lambda_k = -march_forward((xi_k^2 / mu_k) phi), the
        follower blocks of K^T, are marched from the phi the last sweep
        marched from when ``thetas()`` is called.  The data pairing
        sum_k nu_k tau sum <xi_* y_{k,d}, theta_k> needs no theta: by
        summation by parts it is -tau sum <g, phi> for that phi.
        """
        self.coupled_solves += 1
        return self._transposed(phi_T, picard_tol)

    def gramian_apply(self, phi_T: np.ndarray, picard_tol=None) -> GramianResponse:
        """Response to u = d phi, whose terminal state is Lambda phi_T; two coupled solves."""
        res = self.solve_transposed(phi_T, picard_tol)
        phi = res.phi
        y = self.solve_primal(self.xi0[None, :] * (self.d * phi), picard_tol=picard_tol)
        self.gramian_applications += 1
        return GramianResponse(y, phi[:, self.leader_support], phi[0].copy(), res.data_pairing)

    def free_response(self, picard_tol=None) -> np.ndarray:
        """The coupled state response to the data alone (u = 0); its last slice is b.

        Cached with the Krylov basis under the inner tolerance it was
        computed at; a call at another tolerance recomputes both.
        """
        return self.krylov(0, picard_tol).y_free

    def krylov(self, k: int, picard_tol=None) -> KrylovBasis:
        """The cached Lanczos basis, extended to at least k Gramian applications."""
        tol = self.picard_tol if picard_tol is None else picard_tol
        kb = self._krylov
        if kb is None or kb.tol != tol:
            # drop the old basis first: its responses are as large as the new ones
            self._krylov = None
            y = self.solve_primal(None, data=True, picard_tol=tol)
            b = y[-1]
            bnorm = math.sqrt(spatial_pairing(self.grid, b, b))
            v1 = [-b / bnorm] if bnorm > 0.0 else []
            kb = self._krylov = KrylovBasis(tol, y, b, bnorm, v1, [], [], [])
        while kb.v and len(kb.alpha) < k:
            v = kb.v[-1]
            response = self.gramian_apply(v, picard_tol=tol)
            kb.responses.append(response)
            w = response.terminal
            if kb.beta:
                w = w - kb.beta[-1] * kb.v[-2]
            alpha = spatial_pairing(self.grid, w, v)
            w = w - alpha * v
            beta = math.sqrt(spatial_pairing(self.grid, w, w))
            kb.alpha.append(alpha)
            kb.beta.append(beta)
            kb.v.append(w / beta if beta > 0.0 else w)
        return kb


@dataclass(frozen=True, eq=False)
class LeaderSolution:
    """Penalized null-control result at one linearization.

    ``initial_pairing``, ``control_energy`` and ``data_pairing`` are the
    three right-hand terms of the transposition identity that
    ``leader_duality_gap`` checks, taken from the transposed responses
    (phi, theta_k) to phi_T: the control term tau sum <xi_0 u, phi> is the
    energy of J_eps, as u = xi_0 rho_tilde^-2 phi gives rho_tilde^2 u^2 =
    xi_0 u phi.  ``cg_iterations``, ``coupled_solves`` and ``sweeps`` count
    the Gramian applications, coupled solves and block Gauss-Seidel sweeps
    this call made; ``sweep_contraction`` is the largest residual ratio
    |r_k| / |r_{k-1}| of those sweeps (NaN when none swept twice).
    """

    u: SpaceTimeField
    phi_T: np.ndarray
    y: SpaceTimeField
    epsilon: float
    terminal_norm: float
    predicted_terminal_norm: float
    terminal_defect: float
    terminal_residual: float
    control_effect: float
    free_terminal_norm: float
    control_energy: float
    J_eps_value: float
    J_eps_zero: float
    initial_pairing: float
    data_pairing: float
    cg_iterations: int
    coupled_solves: int
    sweeps: int
    sweep_contraction: float
    cg_residuals: tuple[float, ...]
    ritz_min: float
    ritz_max: float
    eps_over_ritz_max: float
    converged: bool


def inner_tolerance(ctx: GramianContext, cg_tol: float) -> float:
    """Tolerance of the coupled solves under a leader solve at cg_tol.

    100x tighter than cg_tol, so the solves cannot pollute Gramian symmetry,
    and never looser than the context's picard_tol.
    """
    return min(ctx.picard_tol, cg_tol / 100.0)


def solve_leader(
    ctx: GramianContext,
    epsilon: float,
    cg_tol: float = 1e-8,
    cg_max: int = 400,
) -> LeaderSolution:
    """Conjugate gradients on (Lambda + eps I) phi_T = -b, then reconstruction.

    CG runs in its Lanczos form on the context's cached Krylov basis: the
    k-th iterate is phi_T = V_k c with (T_k + eps I) c = |b| e_1, and its
    residual is beta_{k+1} |c_k|.  The iteration stops at relative residual
    cg_tol (measured against |b|), raises NonConvergenceError at cg_max, and
    raises ConditioningError after STAGNATION_WINDOW consecutive iterations
    without residual decrease; with a spectrally bounded SPD operator that
    indicates a weight/penalty combination beyond what the discretization
    can resolve.  The coupled solves run at ``inner_tolerance``.  The
    control and state are rebuilt from the same c and the responses the
    basis kept, with no march: the only coupled solves are those that build
    the basis, the free response and two per Gramian application, so an
    epsilon sweep on one context costs 1 + 2k coupled solves for its
    hardest epsilon's k, and every march runs inside one of them.

    ``cg_iterations`` counts the Gramian applications this call made to
    extend the basis, ``cg_residuals`` the full residual history at this
    eps (its length is the Krylov dimension CG would have run); on a fresh
    context the two agree.  ``coupled_solves`` and ``sweeps`` count the
    coupled solves and sweeps this call made.  The result depends only on (ctx, eps, cg_tol):
    a solve on a warm context is bit-identical to one on a fresh context.
    The Ritz values of Lambda from T_k and eps / ritz_max are reported at
    no extra cost (NaN when no iteration ran).  ``terminal_residual`` is
    |y(T) + eps phi_T| / |b|, the residual the stop rule bounds, and
    ``control_effect`` is |y(T)| / |b|, what is left of the free terminal
    state; ``terminal_defect`` divides the same residual by |y(T)|.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValidationError(f"penalty epsilon must be positive and finite, got {epsilon}")
    eps = float(epsilon)
    grid, tgrid = ctx.grid, ctx.tgrid
    inner_tol = inner_tolerance(ctx, cg_tol)

    y0v = ctx.problem.y0.values
    applied, solves = ctx.gramian_applications, ctx.coupled_solves
    sweeps, solved = ctx.sweeps, len(ctx.contractions)
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

    # the coupled system is linear: the solution at phi_T = sum c_j v_j is
    # the free response plus sum c_j times the responses the basis kept
    y = kb.y_free.copy()
    phi_leader = np.zeros((tgrid.n_slices, ctx.leader_support.size))
    phi0 = np.zeros(grid.n_nodes)
    t_data = 0.0
    for c, r in zip(coef, kb.responses):
        y += c * r.y
        phi_leader += c * r.phi_leader
        phi0 += c * r.phi0
        t_data += c * r.data_pairing
    phi = np.zeros((tgrid.n_slices, grid.n_nodes))
    phi[:, ctx.leader_support] = phi_leader
    u = ctx.d * phi

    terminal = y[-1]
    tnorm = math.sqrt(spatial_pairing(grid, terminal, terminal))
    pred = eps * math.sqrt(spatial_pairing(grid, x, x))
    r = terminal + eps * x
    residual = math.sqrt(spatial_pairing(grid, r, r))
    defect = residual / max(tnorm, pred, 1e-300)
    ce = stepped_pairing(grid, tgrid, ctx.xi0[None, :] * u, phi)
    J = 0.5 * ce + 0.5 / eps * tnorm**2

    mk = SpaceTimeField
    return LeaderSolution(
        u=mk(grid, tgrid, u),
        phi_T=x,
        y=mk(grid, tgrid, y),
        epsilon=eps,
        terminal_norm=tnorm,
        predicted_terminal_norm=pred,
        terminal_defect=defect,
        terminal_residual=residual / max(bnorm, 1e-300),
        control_effect=tnorm / max(bnorm, 1e-300),
        free_terminal_norm=bnorm,
        control_energy=ce,
        J_eps_value=J,
        J_eps_zero=J0,
        initial_pairing=spatial_pairing(grid, y0v, phi0),
        data_pairing=float(t_data),
        cg_iterations=ctx.gramian_applications - applied,
        coupled_solves=ctx.coupled_solves - solves,
        sweeps=ctx.sweeps - sweeps,
        sweep_contraction=max(ctx.contractions[solved:], default=float("nan")),
        cg_residuals=tuple(residuals),
        ritz_min=ritz_min,
        ritz_max=ritz_max,
        eps_over_ritz_max=eps / ritz_max if ritz_max != 0.0 else float("inf"),
        converged=converged,
    )


def leader_duality_gap(ctx: GramianContext, sol: LeaderSolution) -> float:
    """Residual of the transposition identity tying the two coupled systems.

    <y^M, phi_T> = <y_0, phi(0)> + tau sum <xi_0 u, phi>
                 - sum_k nu_k tau sum <xi_* y_{k,d}, theta_k>,
    all inner products weighted: the left side from the primal responses,
    the right-hand terms (carried by ``sol``) from the transposed responses
    to phi_T.  Returns the gap normalized by the largest participating term.
    """
    lhs = spatial_pairing(ctx.grid, sol.y.values[-1], sol.phi_T)
    terms = (sol.initial_pairing, sol.control_energy, sol.data_pairing)
    rhs = terms[0] + terms[1] - terms[2]
    scale = max(abs(lhs), *map(abs, terms), 1e-300)
    return abs(lhs - rhs) / scale
