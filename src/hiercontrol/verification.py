"""Independent oracles and empirical inequality probes.

Everything here either recomputes a quantity through a code path disjoint
from the production solvers (the stacked space-time KKT system, one
Kronecker block matrix over raw stencils; finite differences) or samples a
weighted inequality that the theory asserts with non-computable constants.
A probe is a falsification tool: finite, stable ratios are consistent with
a correct discretization, while a blown-up or sign-flipped ratio at sane
parameters means an implementation bug, not new mathematics.

The second-order check differentiates the coefficient roster along a state
perturbation with the nonlinearity's analytic second derivatives, which
every ``Nonlinearity`` carries.  Every roster is
``nash.coefficients_from_state``; the probes sample its state side.
Every check returns a result with its ``name``, ``budget`` and ``passed``,
deciding ``passed`` against the budget constant beside it; a probe has no
budget and passes on finite ratios.  The probes weigh their energies with
the fields the context's ``CarlemanWeights`` sampled on the time grid and
sample no weight themselves.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import OracleError, ValidationError
from .grids import SpaceTimeField, add_divergence, gradient, spatial_pairing, stepped_norm2, stepped_pairing
from .leader import GramianContext
from .nash import (
    HierarchicProblem,
    NashSolution,
    coefficients_from_state,
    compute_nash,
    evaluate_cost,
    random_directions,
    sensitivity_states,
)
from .solvers import march_adjoint, march_forward, sensitivity_factors

SECOND_ORDER_STEP = 1e-3
PROBE_NOISE_DB = -40.0


@dataclass(frozen=True, eq=False)
class ProbeReport:
    """Sampled ratio statistics of one inequality or identity."""

    name: str
    samples: int
    worst_ratio: float
    ratios: tuple[float, ...]
    parameters: dict
    budget: float | None
    passed: bool
    excluded: int = 0

    def __post_init__(self):
        arr = np.asarray(self.ratios, dtype=float)
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValidationError(f"probe {self.name!r} produced non-finite ratios")


# ---------------------------------------------------------------------------
# stacked KKT oracle for linear-quadratic instances


def _require_lq(problem: HierarchicProblem, tol: float = 1e-12):
    """Probe the nonlinearity at random points; return the frozen constants.

    f(0, 0) = 0 holds by construction of every Nonlinearity, so a constant
    f_y and f_z make f linear.
    """
    rng = np.random.default_rng(7)
    dim = problem.grid.dim
    s = rng.standard_normal(16)
    eta = rng.standard_normal((16, dim))
    nl = problem.nl
    a, ay, az = nl.a(s, eta), nl.a_y(s, eta), nl.a_z(s, eta)
    fy, fz = nl.f_y(s, eta), nl.f_z(s, eta)
    if np.ptp(a) > tol or np.abs(ay).max() > tol or np.abs(az).max() > tol:
        raise ValidationError("KKT oracle requires constant diffusion a")
    if np.ptp(fy) > tol or np.ptp(fz, axis=0).max() > tol:
        raise ValidationError("KKT oracle requires linear f (constant f_y, f_z)")
    return float(a[0]), float(fy[0]), fz[0].copy()


def _oracle_state_matrix(problem: HierarchicProblem, a: float, fy: float, fz: np.ndarray):
    """Interior-node operator  -a lap + fz . grad + fy  from raw stencils.

    Deliberately built from dense tridiagonal blocks and Kronecker sums
    over the axes, sharing no code with the production assembler.
    """
    grid = problem.grid
    c = grid.cells
    h = grid.h
    ni1 = c - 1
    lap1 = sp.diags(
        [np.full(ni1 - 1, -1.0), np.full(ni1, 2.0), np.full(ni1 - 1, -1.0)],
        [-1, 0, 1],
    ) / h**2
    cen1 = sp.diags([np.full(ni1 - 1, -1.0), np.full(ni1 - 1, 1.0)], [-1, 1]) / (2.0 * h)
    I1 = sp.identity(ni1)
    # Kronecker sum: the 1D operator of axis ax, the identity on the others
    terms = [functools.reduce(sp.kron, [a * lap1 + fz[ax] * cen1 if k == ax else I1
                                        for k in range(grid.dim)]) for ax in range(grid.dim)]
    return (sum(terms[1:], terms[0]) + fy * sp.identity(ni1**grid.dim)).tocsr()


def kkt_nash_oracle(
    problem: HierarchicProblem,
    u: SpaceTimeField | None = None,
) -> tuple[SpaceTimeField, SpaceTimeField]:
    """Ground-truth follower equilibrium from the stacked space-time KKT system.

    Unknowns and rows are ordered y | v1 | v2 | p1 | p2, each stacked over
    slices 1..M: the state, both controls on their boxes, both multipliers.
    With F = I + tau L, S the sub-diagonal time shift, X = diag xi_* and
    P_k the injection of box k into the interior nodes scaled by xi_k, the
    system is the Kronecker block matrix

        [ I(x)F - S(x)I   -tau I(x)P_1   -tau I(x)P_2                         ]
        [                  mu_1 I                      -I(x)P_1^T             ]
        [                                 mu_2 I                  -I(x)P_2^T  ]
        [ tau nu_1 I(x)X                               A                      ]
        [ tau nu_2 I(x)X                                           A          ]

    with the adjoint block A = I(x)F^T - S^T(x)I; a coupling with nu_k = 0
    is left out.  The two quadratic programs share the linear dynamics;
    stationarity in each control couples them.  Solved monolithically by a
    sparse direct factorization, with operators assembled independently of
    the production stencil code.
    """
    grid, tgrid = problem.grid, problem.tgrid
    if grid.cells > 24 or tgrid.steps > 48:
        raise ValidationError(
            f"KKT oracle is limited to grids of at most 24 cells x 48 steps, "
            f"got {grid.cells} x {tgrid.steps}"
        )
    a, fy, fz = _require_lq(problem)

    ii = grid.interior_idx
    ni, M, tau = ii.size, tgrid.steps, tgrid.tau
    L = _oracle_state_matrix(problem, a, fy, fz)
    F = (sp.identity(ni) + tau * L).tocsr()
    I_M, shift, eye = sp.identity(M), sp.eye(M, k=-1), sp.identity(ni)

    def per_slice(B):
        return sp.kron(I_M, B, format="csr")

    masks = [problem.follower_mask(1), problem.follower_mask(2)]
    sel = [np.searchsorted(ii, np.flatnonzero(mask)) for mask in masks]  # box nodes among interior ones
    nw = [s.size for s in sel]
    P = [
        sp.csr_matrix((problem.xi(f"follower{k + 1}")[ii][s], (s, np.arange(s.size))), shape=(ni, s.size))
        for k, s in enumerate(sel)
    ]
    xi_star = problem.xi("tracking")[ii]
    state = per_slice(F) - sp.kron(shift, eye)
    adjoint = per_slice(F.T) - sp.kron(shift.T, eye)
    track = [None if nu_k == 0.0 else tau * nu_k * per_slice(sp.diags(xi_star)) for nu_k in problem.nu]
    K = sp.bmat(
        [
            [state, -tau * per_slice(P[0]), -tau * per_slice(P[1]), None, None],
            [None, problem.mu[0] * sp.identity(M * nw[0]), None, -per_slice(P[0].T), None],
            [None, None, problem.mu[1] * sp.identity(M * nw[1]), None, -per_slice(P[1].T)],
            [track[0], None, None, adjoint, None],
            [track[1], None, None, None, adjoint],
        ],
        format="csc",
    )

    rhs_y = np.zeros((M, ni)) if u is None else tau * (problem.xi("leader")[None, :] * u.values)[1:, ii]
    rhs_y[0] += problem.y0.values[ii]
    rhs_p = [
        np.zeros((M, ni)) if nu_k == 0.0 else tau * nu_k * xi_star * tgt.values[1:, ii]
        for nu_k, tgt in zip(problem.nu, problem.targets)
    ]
    rhs = np.concatenate([rhs_y.ravel(), np.zeros(M * (nw[0] + nw[1])), rhs_p[0].ravel(), rhs_p[1].ravel()])
    try:
        x = spla.spsolve(K, rhs)
    except RuntimeError as exc:
        raise OracleError(f"stacked KKT system could not be factorized: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise OracleError("stacked KKT system is singular (non-finite solution)")

    out = []
    for mask, seg in zip(masks, np.split(x, np.cumsum([M * ni, M * nw[0], M * nw[1]]))[1:3]):
        v = np.zeros((M + 1, grid.n_nodes))
        v[1:, np.flatnonzero(mask)] = seg.reshape(M, -1)
        out.append(SpaceTimeField(grid, tgrid, v))
    return out[0], out[1]


# Largest relative distance between compute_nash and the stacked-KKT oracle.
NASH_ORACLE_BUDGET = 1e-6


@dataclass(frozen=True)
class NashOracleReport:
    """Worst relative distance of the two follower controls from the oracle's."""

    name: str
    worst_relative_gap: float
    budget: float
    passed: bool


def oracle_nash_gap(
    problem: HierarchicProblem,
    nash: NashSolution,
    u: SpaceTimeField | None = None,
) -> NashOracleReport:
    """Relative L2 distance between the equilibrium ``nash`` at u and the stacked-KKT oracle."""
    grid, tgrid = problem.grid, problem.tgrid
    ov1, ov2 = kkt_nash_oracle(problem, u)
    worst = 0.0
    for mine, ref in ((nash.v1, ov1), (nash.v2, ov2)):
        num = np.sqrt(stepped_norm2(grid, tgrid, mine.values - ref.values))
        den = max(np.sqrt(stepped_norm2(grid, tgrid, ref.values)), 1e-300)
        worst = max(worst, float(num / den))
    return NashOracleReport(name="nash-oracle", worst_relative_gap=worst,
                            budget=NASH_ORACLE_BUDGET, passed=bool(worst <= NASH_ORACLE_BUDGET))


# ---------------------------------------------------------------------------
# discrete duality of the adjoint representation


# Largest gap of the duality identity, relative to its rounding scale.
DUALITY_BUDGET = 1e-10


def check_duality(
    problem: HierarchicProblem,
    state: SpaceTimeField,
    trials: int = 50,
    seed: int = 0,
) -> ProbeReport:
    """Adjoint-vs-sensitivity identity over random follower directions.

    For each draw w the pairing <xi_k p_k, w> is matched against
    -nu_k <xi_* (y - y_kd), y_s[w]>, the two sides coming from one backward
    and one forward march against the same linearization, frozen at
    ``state``; the forward marches of one follower's draws run as one
    stacked march (``nash.sensitivity_states``).  The gap is
    normalized by the rounding scale of the identity, the larger of the
    Cauchy-Schwarz bounds of its two pairings in the stepped norm,

        max(|xi_k p_k| |w|, nu_k |xi_* (y - y_kd)| |y_s[w]|),

    so a draw whose pairings nearly cancel is judged against the size of
    the terms that cancel, not against their small sum.
    """
    grid, tgrid = problem.grid, problem.tgrid
    factors = sensitivity_factors(coefficients_from_state(problem.nl, state))
    # one follower's draws and their sensitivity states are released
    # before the other follower's are built
    ratios = [r for k in (1, 2) for r in _duality_ratios(problem, state, factors, k, trials, seed)]
    worst = float(max(ratios)) if ratios else 0.0
    return ProbeReport(
        name="duality",
        samples=len(ratios),
        worst_ratio=worst,
        ratios=tuple(ratios),
        parameters={
            "trials_per_follower": trials,
            "grid": f"{grid.cells}x{tgrid.steps}",
            "dim": grid.dim,
            "seed": seed,
        },
        budget=DUALITY_BUDGET,
        passed=bool(worst <= DUALITY_BUDGET),
    )


def _duality_ratios(
    problem: HierarchicProblem,
    state: SpaceTimeField,
    factors,
    k: int,
    trials: int,
    seed: int,
) -> list[float]:
    """The normalized duality gaps of follower k's draws (see ``check_duality``)."""
    grid, tgrid = problem.grid, problem.tgrid
    nu_k = problem.nu[k - 1]
    diff = problem.xi("tracking")[None, :] * (state.values - problem.targets[k - 1].values)
    p_k = march_adjoint(factors, np.zeros(grid.n_nodes), -nu_k * diff) if nu_k != 0.0 else np.zeros_like(diff)
    xi_k = problem.xi(f"follower{k}")
    xi_p = xi_k[None, :] * p_k
    dirs = random_directions(problem, k, trials, seed + 17 * k)
    y_s = sensitivity_states(factors, xi_k, dirs)
    # stepped norms: the adjoint side's once, every y_s[w] once
    norm_p = np.sqrt(stepped_norm2(grid, tgrid, xi_p))
    norm_diff = abs(nu_k) * np.sqrt(stepped_norm2(grid, tgrid, diff))
    norm_ys = np.sqrt([stepped_norm2(grid, tgrid, ys) for ys in y_s])
    ratios = []
    for j, w in enumerate(dirs):
        lhs = stepped_pairing(grid, tgrid, xi_p, w)
        rhs = -nu_k * stepped_pairing(grid, tgrid, diff, y_s[j])
        scale = max(norm_p * np.sqrt(stepped_norm2(grid, tgrid, w)), norm_diff * norm_ys[j])
        ratios.append(float(abs(lhs - rhs) / scale) if scale > 0.0 else 0.0)
    return ratios


# ---------------------------------------------------------------------------
# second-order representation


def _delta_fields(problem: HierarchicProblem, y: SpaceTimeField, p: np.ndarray):
    """Directional derivatives of (A, e, d0) along the state perturbation p.

    All coefficient functions are evaluated at (y, grad y); the perturbation
    enters through  delta F = F_y p + grad_zeta F . grad p.  The second
    derivatives are the nonlinearity's own analytic callbacks, shaped as its
    contract states, so they are used as they come.
    """
    nl = problem.nl
    grid, tgrid = problem.grid, problem.tgrid
    M1, n, dim = tgrid.n_slices, grid.n_nodes, grid.dim
    yv = y.values
    gy = gradient(grid, yv)
    gp = gradient(grid, p)

    a_y, a_z = nl.a_y(yv, gy), nl.a_z(yv, gy)
    a_yy, a_yz, a_zz = nl.a_yy(yv, gy), nl.a_yz(yv, gy), nl.a_zz(yv, gy)
    f_yy, f_yz, f_zz = nl.f_yy(yv, gy), nl.f_yz(yv, gy), nl.f_zz(yv, gy)

    # delta A_j = (a_y + gy_j a_yz_j) p + sum_i (dA_j/dzeta_i) p_xi,
    # dA_j/dzeta_i = a_z_i + delta_ij a_z_j + gy_j a_zz_ji
    dA = np.zeros((M1, n, dim))
    for j in range(dim):
        dA[:, :, j] = (a_y + gy[:, :, j] * a_yz[:, :, j]) * p
        for i in range(dim):
            coef = a_z[:, :, i] + gy[:, :, j] * a_zz[:, :, j, i]
            if i == j:
                coef = coef + a_z[:, :, j]
            dA[:, :, j] += coef * gp[:, :, i]

    # delta e_j = (-a_yy gy_j + f_yz_j) p + sum_i (-a_yz_i gy_j - a_y delta_ij + f_zz_ji) p_xi
    de = np.zeros((M1, n, dim))
    for j in range(dim):
        de[:, :, j] = (-a_yy * gy[:, :, j] + f_yz[:, :, j]) * p
        for i in range(dim):
            coef = -a_yz[:, :, i] * gy[:, :, j] + f_zz[:, :, j, i]
            if i == j:
                coef = coef - a_y
            de[:, :, j] += coef * gp[:, :, i]

    # delta d0 = -(f_yy p + f_yz . grad p) + div_h(delta f_z), sampled nodally
    dfz = np.zeros((M1, n, dim))
    for l in range(dim):
        dfz[:, :, l] = f_yz[:, :, l] * p
        for i in range(dim):
            dfz[:, :, l] += f_zz[:, :, l, i] * gp[:, :, i]
    dd0 = -(f_yy * p + (f_yz * gp).sum(axis=-1))
    add_divergence(grid, dfz, dd0)
    return dA, de, dd0


# Largest relative gap between the curvature representation and differences.
SECOND_ORDER_BUDGET = 1e-2


@dataclass(frozen=True)
class SecondOrderReport:
    """Both values of the second derivative of J1 along one direction, and their gap."""

    name: str
    rep_value: float
    fd_value: float
    relative_gap: float
    mu_term: float
    coupling_term: float
    step: float
    budget: float
    passed: bool


def check_second_order(
    problem: HierarchicProblem,
    nash: NashSolution,
    u: SpaceTimeField | None = None,
    w: np.ndarray | None = None,
    seed: int = 0,
) -> SecondOrderReport:
    """Second Gateaux derivative of J1: curvature representation vs differences.

    The representation value is  mu1 |w|^2_{omega_1} + nu1 <xi_1 w, W>  with
    W the backward solve whose source stacks xi_* p and the coefficient
    curvature along p against the auxiliary adjoint q.  The finite-difference
    value is the second central difference of J1 in direction w.  With
    nu1 = 0 the W-term carries a zero factor and the representation reduces
    to the control quadratic exactly.  ``nash`` is the follower equilibrium
    at u that the derivative is taken at; its state ``nash.y`` is reused,
    not marched again.
    """
    grid, tgrid = problem.grid, problem.tgrid
    n = grid.n_nodes
    v1, v2 = nash.v1, nash.v2
    if w is None:
        w = random_directions(problem, 1, 1, seed)[0]

    mu1, nu1 = problem.mu[0], problem.nu[0]
    mask1 = problem.follower_mask(1)
    xi1 = problem.xi("follower1")
    xi_star = problem.xi("tracking")

    y = nash.y
    mu_term = mu1 * stepped_norm2(grid, tgrid, w, mask=mask1)

    coupling = 0.0
    if nu1 != 0.0:
        c = coefficients_from_state(problem.nl, y)
        factors = sensitivity_factors(c)
        p = march_forward(factors, np.zeros(n), xi1[None, :] * w)
        q = march_adjoint(
            factors, np.zeros(n), xi_star[None, :] * (y.values - problem.targets[0].values)
        )
        dA, de, dd0 = _delta_fields(problem, y, p)
        gq = gradient(grid, q)
        src = xi_star[None, :] * p + dd0 * q + (de * gq).sum(axis=-1)
        flux = dA * gq
        add_divergence(grid, flux, src)
        W = march_adjoint(factors, np.zeros(n), src)
        coupling = nu1 * stepped_pairing(grid, tgrid, xi1[None, :] * w, W)
    rep_value = mu_term + coupling

    vals = {}
    for sgn in (1.0, 0.0, -1.0):
        vk = SpaceTimeField(grid, tgrid, v1.values + sgn * SECOND_ORDER_STEP * w)
        state = y if sgn == 0.0 else None
        vals[sgn] = evaluate_cost(problem, u, vk, v2, k=1, state=state)
    fd_value = (vals[1.0] - 2.0 * vals[0.0] + vals[-1.0]) / SECOND_ORDER_STEP**2

    gap = abs(fd_value - rep_value) / max(abs(fd_value), 1e-300)
    return SecondOrderReport(
        name="second-order", rep_value=rep_value, fd_value=fd_value, relative_gap=gap,
        mu_term=mu_term, coupling_term=coupling, step=SECOND_ORDER_STEP,
        budget=SECOND_ORDER_BUDGET, passed=bool(gap <= SECOND_ORDER_BUDGET),
    )


def second_order_mu_sweep(
    problem: HierarchicProblem,
    mu1_values,
    u: SpaceTimeField | None = None,
    seed: int = 0,
    tol: float = 1e-11,
) -> dict:
    """rep_value across a mu_1 sweep; reports the empirical sign change.

    The positivity threshold of the curvature is not computable in closed
    form, so it is probed: the returned ``crossing`` brackets the last sign
    change of rep_value along the sweep (None when the sign is constant).
    Each equilibrium is solved to ``tol``, the scenario's nash_tol.
    """
    values = []
    for m1 in mu1_values:
        prob_m = replace(problem, mu=(float(m1), problem.mu[1]))
        res = check_second_order(prob_m, compute_nash(prob_m, u=u, tol=tol), u=u, seed=seed)
        values.append(res.rep_value)
    crossing = None
    for i in range(1, len(values)):
        if values[i - 1] * values[i] < 0:
            crossing = (float(mu1_values[i - 1]), float(mu1_values[i]))
    return {"mu1": [float(m) for m in mu1_values], "rep_values": values, "crossing": crossing}


# ---------------------------------------------------------------------------
# weighted inequality probes


def _low_mode_terminal(grid, count: int, rng) -> np.ndarray:
    """Random mixture of the lowest Dirichlet modes plus broadband noise: the
    ``count`` products of sin(pi k_ax x_ax) with the smallest sum of k_ax^2."""
    n = grid.n_nodes
    ks = sorted(itertools.product(range(1, count + 1), repeat=grid.dim),
                key=lambda k: sum(kj**2 for kj in k))[:count]
    modes = [functools.reduce(np.multiply, [np.sin(np.pi * kj * grid.nodes[:, ax])
                                            for ax, kj in enumerate(k)]) for k in ks]
    coefs = rng.standard_normal(len(modes))
    v = sum(c * m for c, m in zip(coefs, modes))
    noise = rng.standard_normal(n) * 10.0 ** (PROBE_NOISE_DB / 20.0) * max(np.abs(v).max(), 1.0)
    v = v + noise
    v[grid.boundary] = 0.0
    nrm = np.sqrt(spatial_pairing(grid, v, v))
    return v / max(nrm, 1e-300)


def probe_observability(
    ctx: GramianContext,
    samples: int = 8,
    seed: int = 0,
) -> ProbeReport:
    """Initial-plus-trajectory energy of the transposed system vs observation.

    LHS:  |phi(., 0)|^2 + sum_k tau sum_m rho_hat(t_m)^{-2} |theta_k(t_m)|^2.
    RHS:  tau sum_m int_{omega_tilde_0} exp(2 lambda nu) beta^7 phi^2.
    Samples are random low-mode terminal data; ratios should stay bounded
    under refinement if the discrete system inherits the observability of
    the continuum one.  The weights, and their sampled fields
    ``rho_hat_inv2`` and ``rho_tilde_inv2``, are the context's.
    """
    w = ctx.weights
    grid, tgrid = ctx.grid, ctx.tgrid
    rng = np.random.default_rng(seed)
    obs = w.rho_tilde_inv2
    inner_mask = ctx.problem.cutoffs["leader"].inner_mask
    rho2 = w.rho_hat_inv2[:, None]

    def energies():
        for _ in range(samples):
            phi_T = _low_mode_terminal(grid, 10, rng)
            res = ctx.solve_transposed(phi_T)
            phi = res.phi
            lhs = spatial_pairing(grid, phi[0], phi[0])
            for th in res.thetas():
                lhs += stepped_pairing(grid, tgrid, rho2 * th, th)
            rhs = stepped_pairing(grid, tgrid, obs * phi, phi, mask=inner_mask)
            yield lhs, rhs

    return _ratio_report("observability", energies(), w, grid, tgrid, seed)


def probe_carleman(
    ctx: GramianContext,
    samples: int = 8,
    seed: int = 0,
) -> ProbeReport:
    """Single-equation weighted energy vs observation for backward solutions.

    Solutions of the backward equation in the state-adjoint class are sampled
    from random low-mode terminal data (source-free, so the source term of
    the estimate drops).  LHS stacks the weighted gradient and zeroth-order
    energies  exp(2 lambda nu)(lambda mu^2 beta |grad v|^2 + lambda^3 mu^4
    beta^3 v^2)  over the time slices, with the weights' sampled fields
    ``energy_grad`` and ``energy_zero``; RHS is the same zeroth-order
    energy restricted to the focus region.  The backward equation is the
    adjoint of the state side (b, f_adv, f0) of the context's roster, marched
    on the context's state factors; the weights are the context's.
    """
    weights = ctx.weights
    grid, tgrid = ctx.grid, ctx.tgrid
    rng = np.random.default_rng(seed)
    factors = ctx.state_factors
    obs_mask = weights.focus_mask
    if not obs_mask.any():
        raise ValidationError("focus region contains no interior nodes")
    w_grad, w_zero = weights.energy_grad, weights.energy_zero

    def energies():
        for _ in range(samples):
            v_T = _low_mode_terminal(grid, 10, rng)
            v = march_adjoint(factors, v_T, None)
            g = gradient(grid, v)
            grad_sq = (g * g).sum(axis=-1)
            zero_order = w_zero * v
            lhs = stepped_pairing(grid, tgrid, w_grad, grad_sq)
            lhs += stepped_pairing(grid, tgrid, zero_order, v)
            rhs = stepped_pairing(grid, tgrid, zero_order, v, mask=obs_mask)
            yield lhs, rhs

    return _ratio_report("carleman", energies(), weights, grid, tgrid, seed)


def _ratio_report(name, energies, w, grid, tgrid, seed) -> ProbeReport:
    """ProbeReport of the ratios lhs / rhs over a probe's sampled energy pairs.

    A sample whose observation term rhs vanished is excluded with a warning.
    The probe has no budget: it passes when any ratio is left, since
    ``ProbeReport`` refuses non-finite ones.
    """
    ratios = []
    excluded = 0
    for lhs, rhs in energies:
        if rhs <= 1e-250:
            excluded += 1
            warnings.warn(
                f"{name} sample excluded: observation term vanished "
                "(discretization artifact)",
                stacklevel=3,
            )
            continue
        ratios.append(lhs / rhs)
    worst = float(max(ratios)) if ratios else float("nan")
    return ProbeReport(
        name=name,
        samples=len(ratios),
        worst_ratio=worst,
        ratios=tuple(ratios),
        parameters={
            "lambda": w.lam,
            "mu": w.mu,
            "grid": f"{grid.cells}x{tgrid.steps}",
            "dim": grid.dim,
            "seed": seed,
            "noise_db": PROBE_NOISE_DB,
        },
        budget=None,
        passed=bool(ratios),
        excluded=excluded,
    )
