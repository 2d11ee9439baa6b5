"""Independent oracles and empirical inequality probes.

Everything here either recomputes a quantity through a code path disjoint
from the production solvers (stacked KKT system, finite differences,
hand-rolled stencils) or samples a weighted inequality that the theory
asserts with non-computable constants.  A probe is a falsification tool:
finite, stable ratios are consistent with a correct discretization, while a
blown-up or sign-flipped ratio at sane parameters means an implementation
bug, not new mathematics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import OracleError, ValidationError
from .grids import Field, SpaceTimeField, gradient, stepped_pairing, stepped_norm2, trajectory_gradient
from .leader import GramianContext
from .nash import (
    HierarchicProblem,
    NashSolution,
    _state,
    coefficients_from_state,
    compute_nash,
    evaluate_cost,
    random_directions,
)
from .solvers import (
    march_adjoint,
    march_forward,
    sensitivity_factors,
    state_factors,
    solve_forward_quasilinear,
)
from .weights import CarlemanWeights, eval_terminal_weights, eval_weights, observation_weight_trajectory

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

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "worst_ratio": self.worst_ratio,
            "ratios": list(self.ratios),
            "parameters": self.parameters,
            "budget": self.budget,
            "passed": self.passed,
            "excluded": self.excluded,
        }


# ---------------------------------------------------------------------------
# stacked KKT oracle for linear-quadratic instances


def _require_lq(problem: HierarchicProblem, tol: float = 1e-12):
    """Probe the nonlinearity at random points; return the frozen constants."""
    rng = np.random.default_rng(7)
    dim = problem.grid.dim
    s = rng.standard_normal(16)
    eta = rng.standard_normal((16, dim))
    nl = problem.nl
    a = np.asarray(nl.a(s, eta), dtype=float)
    ay = np.asarray(nl.a_y(s, eta), dtype=float)
    az = np.asarray(nl.a_z(s, eta), dtype=float)
    fy = np.asarray(nl.f_y(s, eta), dtype=float)
    fz = np.asarray(nl.f_z(s, eta), dtype=float).reshape(16, dim)
    if np.ptp(a) > tol or np.abs(ay).max() > tol or np.abs(az).max() > tol:
        raise ValidationError("KKT oracle requires constant diffusion a")
    if np.ptp(fy) > tol or np.ptp(fz, axis=0).max() > tol:
        raise ValidationError("KKT oracle requires linear f (constant f_y, f_z)")
    f0 = np.asarray(nl.f(np.zeros(1), np.zeros((1, dim))), dtype=float)
    if abs(float(f0[0])) > tol:
        raise ValidationError("KKT oracle requires f(0,0) = 0")
    return float(a[0]), float(fy[0]), fz[0].copy()


def _oracle_state_matrix(problem: HierarchicProblem, a: float, fy: float, fz: np.ndarray):
    """Interior-node operator  -a lap + fz . grad + fy  from raw stencils.

    Deliberately built from dense tridiagonal blocks and Kronecker products,
    sharing no code with the production assembler.
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
    if grid.dim == 1:
        L = a * lap1 + fz[0] * cen1 + fy * sp.identity(ni1)
    else:
        lap = sp.kron(lap1, I1) + sp.kron(I1, lap1)
        L = a * lap + fz[0] * sp.kron(cen1, I1) + fz[1] * sp.kron(I1, cen1) + fy * sp.identity(ni1 * ni1)
    return L.tocsr()


def kkt_nash_oracle(
    problem: HierarchicProblem,
    u: SpaceTimeField | None = None,
) -> tuple[SpaceTimeField, SpaceTimeField]:
    """Ground-truth follower equilibrium from the stacked space-time KKT system.

    Unknowns: state slices, both controls on their boxes, both multipliers.
    The two quadratic programs share the linear dynamics; stationarity in
    each control couples them.  Solved monolithically by a sparse direct
    factorization, with operators assembled independently of the production
    stencil code.
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
    eye = sp.identity(ni, format="csr")

    masks = [problem.follower_mask(1), problem.follower_mask(2)]
    sel = []           # mask-node positions within the interior ordering
    for mask in masks:
        sel.append(np.searchsorted(ii, np.flatnonzero(mask)))
    nw = [s.size for s in sel]
    xi = [problem.xi("follower1")[ii], problem.xi("follower2")[ii]]
    xi_star = problem.xi("tracking")[ii]

    # unknown layout: y (M ni) | v1 (M nw1) | v2 (M nw2) | p1 (M ni) | p2 (M ni)
    o_y = 0
    o_v = [M * ni, M * ni + M * nw[0]]
    o_p = [M * (ni + nw[0] + nw[1]), M * (ni + nw[0] + nw[1]) + M * ni]
    size = M * (3 * ni + nw[0] + nw[1])

    rows, cols, vals = [], [], []

    def put(r0, c0, A):
        A = sp.coo_matrix(A)
        rows.append(A.row + r0)
        cols.append(A.col + c0)
        vals.append(A.data)

    # injection of a masked control into interior nodes, scaled by xi_k
    inj = []
    for k in (0, 1):
        P = sp.csr_matrix(
            (xi[k][sel[k]], (sel[k], np.arange(nw[k]))), shape=(ni, nw[k])
        )
        inj.append(P)

    rhs = np.zeros(size)
    y0i = problem.y0.values[ii]
    uv = None if u is None else (problem.xi("leader")[None, :] * u.values)

    for m in range(1, M + 1):
        r = o_y + (m - 1) * ni
        put(r, r, F)
        if m >= 2:
            put(r, r - ni, -eye)
        else:
            rhs[r : r + ni] += y0i
        if uv is not None:
            rhs[r : r + ni] += tau * uv[m, ii]
        for k in (0, 1):
            put(r, o_v[k] + (m - 1) * nw[k], -tau * inj[k])

        # adjoint rows: F^T p^m - p^{m+1} + tau nu_k xi_* y^m = tau nu_k xi_* y_kd^m
        for k in (0, 1):
            rp = o_p[k] + (m - 1) * ni
            put(rp, rp, F.T)
            if m <= M - 1:
                put(rp, rp + ni, -eye)
            nu_k = problem.nu[k]
            if nu_k != 0.0:
                put(rp, r, tau * nu_k * sp.diags(xi_star))
                tgt = problem.targets[k].values[m, ii]
                rhs[rp : rp + ni] += tau * nu_k * xi_star * tgt

        # stationarity rows: mu_k v_k^m - xi_k p_k^m |_{mask} = 0
        for k in (0, 1):
            rv = o_v[k] + (m - 1) * nw[k]
            put(rv, rv, problem.mu[k] * sp.identity(nw[k]))
            R = sp.csr_matrix(
                (-xi[k][sel[k]], (np.arange(nw[k]), sel[k])), shape=(nw[k], ni)
            )
            put(rv, o_p[k] + (m - 1) * ni, R)

    K = sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )
    try:
        x = spla.spsolve(K, rhs)
    except RuntimeError as exc:
        raise OracleError(f"stacked KKT system could not be factorized: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise OracleError("stacked KKT system is singular (non-finite solution)")

    out = []
    for k in (0, 1):
        v = np.zeros((M + 1, grid.n_nodes))
        seg = x[o_v[k] : o_v[k] + M * nw[k]].reshape(M, nw[k])
        v[1:, np.flatnonzero(masks[k])] = seg
        out.append(SpaceTimeField(grid, tgrid, v))
    return out[0], out[1]


def oracle_nash_gap(
    problem: HierarchicProblem,
    u: SpaceTimeField | None = None,
    nash: NashSolution | None = None,
    tol: float = 1e-12,
) -> float:
    """Relative L2 distance between compute_nash and the stacked-KKT oracle."""
    grid, tgrid = problem.grid, problem.tgrid
    if nash is None:
        nash = compute_nash(problem, u=u, tol=tol)
    ov1, ov2 = kkt_nash_oracle(problem, u)
    worst = 0.0
    for mine, ref in ((nash.v1, ov1), (nash.v2, ov2)):
        num = np.sqrt(stepped_norm2(grid, tgrid, mine.values - ref.values))
        den = max(np.sqrt(stepped_norm2(grid, tgrid, ref.values)), 1e-300)
        worst = max(worst, float(num / den))
    return worst


# ---------------------------------------------------------------------------
# discrete duality of the adjoint representation


def check_duality(
    problem: HierarchicProblem,
    u: SpaceTimeField | None = None,
    state: SpaceTimeField | None = None,
    trials: int = 50,
    seed: int = 0,
    budget: float = 1e-10,
) -> ProbeReport:
    """Adjoint-vs-sensitivity identity over random follower directions.

    For each draw w the pairing <xi_k p_k, w> is matched against
    -nu_k <xi_* (y - y_kd), y_s[w]>, the two sides coming from one backward
    and one forward march against the same frozen linearization.  The gap is
    normalized by the larger magnitude.
    """
    grid, tgrid = problem.grid, problem.tgrid
    n = grid.n_nodes
    if state is None:
        state = solve_forward_quasilinear(
            problem.nl, grid, tgrid, problem.y0,
            source=None if u is None else problem.xi("leader")[None, :] * u.values,
        )
    c = coefficients_from_state(problem.nl, state)
    factors = sensitivity_factors(c)
    xi_star = problem.xi("tracking")
    ratios = []
    for k in (1, 2):
        nu_k = problem.nu[k - 1]
        diff = xi_star[None, :] * (state.values - problem.targets[k - 1].values)
        p_k = march_adjoint(factors, np.zeros(n), -nu_k * diff) if nu_k != 0.0 else np.zeros_like(diff)
        xi_k = problem.xi(f"follower{k}")
        for w in random_directions(problem, k, trials, seed + 17 * k):
            lhs = stepped_pairing(grid, tgrid, xi_k[None, :] * p_k, w)
            y_s = march_forward(factors, np.zeros(n), xi_k[None, :] * w)
            rhs = -nu_k * stepped_pairing(grid, tgrid, diff, y_s)
            scale = max(abs(lhs), abs(rhs), 1e-300)
            gap = abs(lhs - rhs) / scale if max(abs(lhs), abs(rhs)) > 0 else 0.0
            ratios.append(gap)
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
        budget=budget,
        passed=bool(worst <= budget),
    )


# ---------------------------------------------------------------------------
# second-order representation


def _delta_fields(problem: HierarchicProblem, y: SpaceTimeField, p: np.ndarray):
    """Directional derivatives of (A, e, d0) along the state perturbation p.

    All coefficient functions are evaluated at (y, grad y); the perturbation
    enters through  delta F = F_y p + grad_zeta F . grad p.
    """
    nl = problem.nl
    grid, tgrid = problem.grid, problem.tgrid
    M1, n, dim = tgrid.n_slices, grid.n_nodes, grid.dim
    yv = y.values
    gy = trajectory_gradient(y)
    gp = trajectory_gradient(SpaceTimeField(grid, tgrid, p))

    a_y = np.asarray(nl.a_y(yv, gy), dtype=float)
    a_z = np.asarray(nl.a_z(yv, gy), dtype=float).reshape(M1, n, dim)
    a_yy = np.asarray(nl.d2("a_yy", yv, gy), dtype=float)
    a_yz = np.asarray(nl.d2("a_yz", yv, gy), dtype=float).reshape(M1, n, dim)
    a_zz = np.asarray(nl.d2("a_zz", yv, gy), dtype=float).reshape(M1, n, dim, dim)
    f_yy = np.asarray(nl.d2("f_yy", yv, gy), dtype=float)
    f_yz = np.asarray(nl.d2("f_yz", yv, gy), dtype=float).reshape(M1, n, dim)
    f_zz = np.asarray(nl.d2("f_zz", yv, gy), dtype=float).reshape(M1, n, dim, dim)

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
    for m in range(M1):
        for l in range(dim):
            dd0[m] += gradient(Field(grid, dfz[m, :, l]))[:, l]
    return dA, de, dd0


def check_second_order(
    problem: HierarchicProblem,
    nash: NashSolution,
    u: SpaceTimeField | None = None,
    w: np.ndarray | None = None,
    seed: int = 0,
) -> dict:
    """Second Gateaux derivative of J1: curvature representation vs differences.

    The representation value is  mu1 |w|^2_{omega_1} + nu1 <xi_1 w, W>  with
    W the backward solve whose source stacks xi_* p and the coefficient
    curvature along p against the auxiliary adjoint q.  The finite-difference
    value is the second central difference of J1 in direction w.  With
    nu1 = 0 the W-term carries a zero factor and the representation reduces
    to the control quadratic exactly.  ``nash`` is the follower equilibrium
    at u that the derivative is taken at.
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

    y = _state(problem, u, v1, v2)
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
        gq = trajectory_gradient(SpaceTimeField(grid, tgrid, q))
        src = xi_star[None, :] * p + dd0 * q + (de * gq).sum(axis=-1)
        flux = dA * gq
        for m in range(tgrid.n_slices):
            for ax in range(grid.dim):
                src[m] += gradient(Field(grid, flux[m, :, ax]))[:, ax]
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
    return {
        "rep_value": rep_value,
        "fd_value": fd_value,
        "relative_gap": gap,
        "mu_term": mu_term,
        "coupling_term": coupling,
        "step": SECOND_ORDER_STEP,
    }


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
    from dataclasses import replace

    values = []
    for m1 in mu1_values:
        prob_m = replace(problem, mu=(float(m1), problem.mu[1]))
        res = check_second_order(prob_m, compute_nash(prob_m, u=u, tol=tol), u=u, seed=seed)
        values.append(res["rep_value"])
    crossing = None
    for i in range(1, len(values)):
        if values[i - 1] * values[i] < 0:
            crossing = (float(mu1_values[i - 1]), float(mu1_values[i]))
    return {"mu1": [float(m) for m in mu1_values], "rep_values": values, "crossing": crossing}


# ---------------------------------------------------------------------------
# weighted inequality probes


def _low_mode_terminal(grid, count: int, rng) -> np.ndarray:
    """Random mixture of the lowest Dirichlet modes plus broadband noise."""
    n = grid.n_nodes
    if grid.dim == 1:
        x = grid.x
        modes = [np.sin(np.pi * (k + 1) * x) for k in range(count)]
    else:
        x, y = grid.nodes[:, 0], grid.nodes[:, 1]
        pairs = sorted(
            ((i, j) for i in range(1, count + 1) for j in range(1, count + 1)),
            key=lambda ij: ij[0] ** 2 + ij[1] ** 2,
        )[:count]
        modes = [np.sin(np.pi * i * x) * np.sin(np.pi * j * y) for i, j in pairs]
    coefs = rng.standard_normal(len(modes))
    v = sum(c * m for c, m in zip(coefs, modes))
    noise = rng.standard_normal(n) * 10.0 ** (PROBE_NOISE_DB / 20.0) * max(np.abs(v).max(), 1.0)
    v = v + noise
    v[grid.boundary] = 0.0
    nrm = np.sqrt(np.dot(grid.weights * v, v))
    return v / max(nrm, 1e-300)


def probe_observability(
    ctx: GramianContext,
    weights: CarlemanWeights | None = None,
    samples: int = 8,
    seed: int = 0,
    budget: float | None = None,
) -> ProbeReport:
    """Initial-plus-trajectory energy of the transposed system vs observation.

    LHS:  |phi(., 0)|^2 + sum_k tau sum_m rho_hat(t_m)^{-2} |theta_k(t_m)|^2.
    RHS:  tau sum_m int_{omega_tilde_0} exp(2 lambda nu) beta^7 phi^2.
    Samples are random low-mode terminal data; ratios should stay bounded
    under refinement if the discrete system inherits the observability of
    the continuum one.
    """
    w = ctx.weights if weights is None else weights
    grid, tgrid = ctx.grid, ctx.tgrid
    rng = np.random.default_rng(seed)
    obs_traj = observation_weight_trajectory(w)
    inner_mask = ctx.problem.cutoffs["leader"].inner_mask
    rho2 = np.zeros(tgrid.n_slices)
    for m in range(1, tgrid.steps):
        lr = eval_terminal_weights(w, tgrid.times[m])["log_rho_hat"]
        rho2[m] = np.exp(-2.0 * lr)

    def energies():
        for _ in range(samples):
            phi_T = _low_mode_terminal(grid, 10, rng)
            phi, th1, th2 = ctx.solve_transposed(phi_T)
            lhs = float(np.dot(grid.weights * phi[0], phi[0]))
            for th in (th1, th2):
                ww = (th * th) @ grid.weights
                lhs += tgrid.tau * float(np.dot(rho2[1 : tgrid.steps], ww[1 : tgrid.steps]))
            obs = obs_traj * phi * phi
            rhs = tgrid.tau * float(
                (obs[1 : tgrid.steps][:, inner_mask] * grid.weights[inner_mask][None, :]).sum()
            )
            yield lhs, rhs

    return _ratio_report("observability", energies(), w, grid, tgrid, seed, budget)


def probe_carleman(
    coefficients,
    weights: CarlemanWeights,
    samples: int = 8,
    seed: int = 0,
    budget: float | None = None,
) -> ProbeReport:
    """Single-equation weighted energy vs observation for backward solutions.

    Solutions of the backward equation in the state-adjoint class are sampled
    from random low-mode terminal data (source-free, so the source term of
    the estimate drops).  LHS stacks the weighted gradient and zeroth-order
    energies  exp(2 lambda nu)(lambda mu^2 beta |grad v|^2 + lambda^3 mu^4
    beta^3 v^2)  over interior time slices; RHS is the same zeroth-order
    energy restricted to the focus region.
    """
    c = coefficients
    grid, tgrid = c.grid, c.tgrid
    if not (weights.grid.same_as(grid) and weights.tgrid.same_as(tgrid)):
        raise ValidationError("weights and coefficients live on different discretizations")
    rng = np.random.default_rng(seed)
    factors = state_factors(c)
    lam, mu = weights.lam, weights.mu
    obs_mask = weights.focus_mask
    if not obs_mask.any():
        raise ValidationError("focus region contains no interior nodes")

    # slice-wise weight fields at interior times, assembled in log space
    w_grad = np.zeros((tgrid.n_slices, grid.n_nodes))
    w_zero = np.zeros((tgrid.n_slices, grid.n_nodes))
    for m in range(1, tgrid.steps):
        ev = eval_weights(weights, tgrid.times[m])
        log_beta = np.log(ev["beta"])
        base = 2.0 * lam * ev["nu"]
        w_grad[m] = np.exp(base + np.log(lam * mu**2) + log_beta)
        w_zero[m] = np.exp(base + np.log(lam**3 * mu**4) + 3.0 * log_beta)

    def energies():
        for _ in range(samples):
            v_T = _low_mode_terminal(grid, 10, rng)
            v = march_adjoint(factors, v_T, None)
            grad_sq = np.zeros((tgrid.n_slices, grid.n_nodes))
            for m in range(1, tgrid.steps):
                g = gradient(Field(grid, v[m]))
                grad_sq[m] = (g * g).sum(axis=-1)
            lhs_field = w_grad * grad_sq + w_zero * v * v
            lhs = tgrid.tau * float((lhs_field * grid.weights[None, :]).sum())
            rhs_field = (w_zero * v * v)[:, obs_mask]
            rhs = tgrid.tau * float((rhs_field * grid.weights[obs_mask][None, :]).sum())
            yield lhs, rhs

    return _ratio_report("carleman", energies(), weights, grid, tgrid, seed, budget)


def _ratio_report(name, energies, w, grid, tgrid, seed, budget) -> ProbeReport:
    """ProbeReport of the ratios lhs / rhs over a probe's sampled energy pairs.

    A sample whose observation term rhs vanished is excluded with a warning.
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
    finite = bool(ratios) and bool(np.all(np.isfinite(ratios)))
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
        budget=budget,
        passed=bool(finite and (budget is None or worst <= budget)),
        excluded=excluded,
    )
