"""Carleman weight families for the observability machinery.

The weights are built from a spatial profile eta that vanishes on the
boundary, is positive inside, and has no critical point outside a chosen
focus region (a subset of the observation region).  In 1D,

    eta(x) = x (1 - x) (1 + c (x - x_*)),   x_* = centre of the focus,

with the tilt c chosen by bisection so the unique interior critical point
falls inside the focus, then rescaled to max eta = 1.  In 2D the profile is
the product of two such 1D profiles.

From eta and parameters (mu, lambda) the usual singular-in-time families
follow, with theta(t) = t (T - t) and, for the terminal weight, l(t) =
T^2/4 for t <= T/2 and l(t) = theta(t) after, so it is finite at t = 0:

    beta  = exp(mu eta) / theta
    nu    = (exp(mu eta) - exp(2 mu eta_max)) / theta      (negative)
    nu_bar_star(t) = (min_x exp(mu eta) - exp(2 mu eta_max)) / l
    rho_hat(t)     = exp(-lambda nu_bar_star(t))

rho_hat is non-decreasing and blows up at t = T; it is evaluated in log
space, with libm's exp, and reads inf only where exp overflows.
``eval_weights`` and ``eval_terminal_weights`` are these formulas, at one
time or an array of times.

``CarlemanWeights`` samples them on the time grid: beta, nu, rho_hat,
rho_hat^-2 and exp(2 lambda nu + c + p log beta) for the leader's control
and observation weight ``rho_tilde_inv2`` = exp(2 lambda nu) beta^7
(p, c = 7, 0) and the Carleman energy weights ``energy_grad`` (1,
log lambda mu^2) and ``energy_zero`` (3, log lambda^3 mu^4).  Each field is
computed on first use from one call of each formula, cached and read-only.
The formulas are singular at t = 0 or T, so every field fills the interior
slices 1..M-1 (``SAMPLED``) and leaves rows 0 and M zero; the stepped rule
over 1..M then sums exactly the interior slices.

lambda defaults to a balance rule: the observation weight
exp(2 lambda nu) beta^7 is made to peak at exactly 1 over the cylinder
(attained at the eta-maximum at mid-time).  Large multiples of this value
drive every weighted quantity below the floating-point floor, tiny values
flatten the weight; both extremes are legitimate experiments reachable
through the scenario file.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EtaConstructionError, WeightDomainError
from .grids import Field, SpatialGrid, TimeGrid, box_mask, gradient, _frozen, _normalize_box

ETA_TOL_GRAD = 1e-3
# the time slices a sampled weight field holds: the interior slices 1..M-1
SAMPLED = slice(1, -1)


def _eta_coeffs(c: float, xstar: float) -> np.ndarray:
    """Coefficients of eta(x) = x(1-x)(1 + c(x - xstar)) as [x^3, x^2, x, 1]."""
    return np.array([-c, c + c * xstar - 1.0, 1.0 - c * xstar, 0.0])


def _eta_argmax(c: float, xstar: float) -> float:
    """Location of the maximum of eta_c on (0, 1)."""
    if abs(c) < 1e-15:
        return 0.5
    # eta'(x) = -3c x^2 + 2(c + c xstar - 1) x + (1 - c xstar)
    a = -3.0 * c
    b = 2.0 * (c + c * xstar - 1.0)
    d = 1.0 - c * xstar
    disc = b * b - 4.0 * a * d
    if disc < 0:
        raise EtaConstructionError("eta profile lost its interior critical point")
    r1 = (-b + math.sqrt(disc)) / (2.0 * a)
    r2 = (-b - math.sqrt(disc)) / (2.0 * a)
    best = None
    for r in (r1, r2):
        if 0.0 < r < 1.0 and (-6.0 * c * r + b) < 0.0:  # second derivative negative: max
            best = r if best is None else best
    if best is None:
        raise EtaConstructionError("no interior maximum for the eta profile")
    return best


def _build_eta_axis(focus: tuple[float, float]) -> tuple[float, float]:
    """Pick the tilt c for one axis; returns (c, argmax)."""
    a, b = focus
    xstar = 0.5 * (a + b)
    if abs(xstar - 0.5) < 1e-12:
        return 0.0, 0.5
    # keep 1 + c (x - xstar) positive on [0, 1]
    cmax = 0.95 / max(xstar, 1.0 - xstar)
    lo, hi = (0.0, cmax) if xstar > 0.5 else (-cmax, 0.0)
    target = xstar
    f_lo = _eta_argmax(lo, xstar) - target
    f_hi = _eta_argmax(hi, xstar) - target
    if f_lo * f_hi > 0:
        # cannot centre the maximum; accept the extreme tilt if it lands inside
        c = hi if xstar > 0.5 else lo
        xm = _eta_argmax(c, xstar)
        margin = 0.1 * (b - a)
        if not (a + margin < xm < b - margin):
            raise EtaConstructionError(
                f"cannot place the eta critical point inside focus ({a}, {b}); "
                f"best achievable location {xm:.4f}"
            )
        return c, xm
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = _eta_argmax(mid, xstar) - target
        if f_lo * fm <= 0:
            hi = mid
        else:
            lo, f_lo = mid, fm
        if hi - lo < 1e-14:
            break
    c = 0.5 * (lo + hi)
    return c, _eta_argmax(c, xstar)


def build_eta(grid: SpatialGrid, focus) -> Field:
    """Construct the weight profile: zero on the boundary, max 1, critical point in focus.

    The no-critical-point condition is checked on the discrete gradient: every
    interior node outside the open focus region must satisfy |grad eta| >=
    ETA_TOL_GRAD * h^(dim-1): at the interior node next to a corner, each
    partial derivative of a product profile carries dim - 1 factors O(h).
    """
    F = _normalize_box(grid.dim, focus)
    for ax, (a, b) in enumerate(F):
        if not (0.0 < a < b < 1.0):
            raise EtaConstructionError(f"focus axis {ax}: need 0 < lo < hi < 1, got ({a}, {b})")
    vals = np.ones(grid.n_nodes)
    for ax in range(grid.dim):
        a, b = F[ax]
        c, xm = _build_eta_axis((a, b))
        xstar = 0.5 * (a + b)
        coords = grid.nodes[:, ax]
        prof = coords * (1.0 - coords) * (1.0 + c * (coords - xstar))
        peak = np.polyval(_eta_coeffs(c, xstar), xm)
        vals *= prof / peak
    eta = Field(grid, vals)
    g = np.linalg.norm(gradient(grid, eta.values), axis=1)
    # interior nodes only: a product profile on the square necessarily has
    # a vanishing gradient at the corners, where nothing is integrated
    outside = ~box_mask(grid, F) & ~grid.boundary
    tol = ETA_TOL_GRAD * grid.h ** (grid.dim - 1)
    bad = np.flatnonzero(outside & (g < tol))
    if bad.size:
        node = int(bad[0])
        raise EtaConstructionError(
            f"|grad eta| = {g[node]:.3e} < {tol:.3e} at node {node} "
            f"(x={grid.nodes[node]}) outside the focus region"
        )
    return eta


def lambda_auto(mu: float, eta_max: float, T: float) -> float:
    """Balance rule: make max over Q of exp(2 lambda nu) beta^7 equal to 1.

    The maximum sits at the eta peak at t = T/2, where
    beta_c = 4 exp(mu eta_max) / T^2 and |nu_c| = 4 (exp(2 mu eta_max) -
    exp(mu eta_max)) / T^2.  WeightDomainError when exp(2 mu eta_max)
    overflows a double (mu eta_max above about 354).
    """
    try:
        peak, peak2 = math.exp(mu * eta_max), math.exp(2.0 * mu * eta_max)
    except OverflowError:
        raise WeightDomainError(
            f"lambda auto needs exp(2 mu eta_max), which overflows at mu={mu}, "
            f"eta_max={eta_max}; give a smaller mu or lambda explicitly"
        ) from None
    beta_c = 4.0 * peak / (T * T)
    nu_c = 4.0 * (peak2 - peak) / (T * T)
    return 7.0 * math.log(beta_c) / (2.0 * nu_c)


def _sampled(interior):
    """A field on the time grid: rows SAMPLED are ``interior(w)``, rows 0
    and M are zero; computed on first use, cached and read-only."""

    def field(w: CarlemanWeights) -> np.ndarray:
        rows = interior(w)
        out = np.zeros((w.tgrid.n_slices, *rows.shape[1:]))
        out[SAMPLED] = rows
        return _frozen(out)

    return functools.cached_property(field)


@dataclass(frozen=True, eq=False)
class CarlemanWeights:
    """Weight family bound to a grid, a horizon and a focus region."""

    grid: SpatialGrid
    tgrid: TimeGrid
    mu: float
    lam: float
    eta: np.ndarray
    eta_max: float
    focus_mask: np.ndarray

    def exp_mu_eta(self) -> np.ndarray:
        return np.exp(self.mu * self.eta)

    # the fields sampled on the time grid (module docstring)
    beta = _sampled(lambda w: w._interior["beta"])
    nu = _sampled(lambda w: w._interior["nu"])
    rho_hat = _sampled(lambda w: w._interior["rho_hat"])
    rho_hat_inv2 = _sampled(lambda w: np.exp(-2.0 * w._interior["log_rho_hat"]))
    rho_tilde_inv2 = _sampled(lambda w: w._exp_weight(7.0, 0.0))
    energy_grad = _sampled(lambda w: w._exp_weight(1.0, np.log(w.lam * w.mu**2)))
    energy_zero = _sampled(lambda w: w._exp_weight(3.0, np.log(w.lam**3 * w.mu**4)))

    @functools.cached_property
    def _interior(self) -> dict[str, np.ndarray]:
        """Both formulas at the interior slice times, one call each, and log beta."""
        times = self.tgrid.times[SAMPLED]
        ev = {**eval_weights(self, times), **eval_terminal_weights(self, times)}
        ev["log_beta"] = np.log(ev["beta"])
        return ev

    def _exp_weight(self, p: float, c: float) -> np.ndarray:
        """exp(2 lambda nu + c + p log beta) on the interior slices."""
        ev = self._interior
        return np.exp(2.0 * self.lam * ev["nu"] + c + p * ev["log_beta"])


def build_weights(
    grid: SpatialGrid,
    tgrid: TimeGrid,
    focus,
    mu: float = 2.0,
    lam: float | None = None,
) -> CarlemanWeights:
    if not (math.isfinite(mu) and mu > 0):
        raise WeightDomainError(f"mu must be positive and finite, got {mu}")
    eta = build_eta(grid, focus)
    eta_max = 1.0
    if lam is None:
        lam = lambda_auto(mu, eta_max, tgrid.T)
    if not (math.isfinite(lam) and lam > 0):
        raise WeightDomainError(f"lambda must be positive and finite, got {lam}")
    return CarlemanWeights(
        grid=grid,
        tgrid=tgrid,
        mu=float(mu),
        lam=float(lam),
        eta=_frozen(eta.values),
        eta_max=eta_max,
        focus_mask=box_mask(grid, focus),
    )


def _theta(T: float, t):
    return t * (T - t)


def eval_weights(w: CarlemanWeights, t) -> dict[str, np.ndarray]:
    """beta and nu, shape t.shape + (n_nodes,), at interior times 0 < t < T."""
    T = w.tgrid.T
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 < t) & (t < T)):
        raise WeightDomainError(f"weights are singular at t={t}; need 0 < t < T={T}")
    th = _theta(T, t)[..., None]
    emu = w.exp_mu_eta()
    cap = math.exp(2.0 * w.mu * w.eta_max)
    return {"beta": emu / th, "nu": (emu - cap) / th}


def _libm_exp(x) -> np.ndarray:
    """math.exp elementwise, inf where it overflows a double: numpy's exp
    differs from libm's in the last bit on some arguments."""
    x = np.asarray(x)
    out = np.empty(x.shape)
    for i, v in enumerate(x.flat):
        try:
            out.flat[i] = math.exp(v)
        except OverflowError:
            out.flat[i] = math.inf
    return out


def eval_terminal_weights(w: CarlemanWeights, t) -> dict[str, np.ndarray]:
    """l, log_rho_hat and rho_hat, shaped like t, at times 0 <= t < T.

    rho_hat is inf where exp(log_rho_hat) overflows, close to T;
    log_rho_hat is always finite and is what monotonicity checks should use.
    """
    T = w.tgrid.T
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= t) & (t < T)):
        raise WeightDomainError(f"terminal weights need 0 <= t < T={T}, got t={t}")
    l = np.where(t <= T / 2.0, T * T / 4.0, _theta(T, t))
    cap = math.exp(2.0 * w.mu * w.eta_max)
    log_rho_hat = -w.lam * ((np.min(w.exp_mu_eta()) - cap) / l)
    return {"l": l, "log_rho_hat": log_rho_hat, "rho_hat": _libm_exp(log_rho_hat)}
