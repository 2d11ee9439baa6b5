"""Scenario files: one YAML document describing a complete problem instance.

A scenario pins the discretization, the eight control and observation
regions, the cost and weight parameters, the nonlinearity preset, the data
profiles, tolerances and the seed for randomized suites.  Loading validates
every invariant with an error message that names the offending key, and the
canonical serialization round-trips: load(emit(s)) == s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import yaml

from .errors import CoefficientError, GeometryError, ValidationError
from .grids import (
    ADMITTED_DIMS,
    Field,
    SpaceTimeField,
    SpatialGrid,
    boxes_intersect,
    build_cutoff,
    build_grid,
    build_time_grid,
)
from .nash import HierarchicProblem
from .solvers import PRESETS, Nonlinearity, nonlinearity_preset
from .weights import CarlemanWeights, build_weights

REGION_KEYS = (
    "omega0",
    "omega0_tilde",
    "omega1",
    "omega1_tilde",
    "omega2",
    "omega2_tilde",
    "omega",
    "omega_prime",
)

# (cutoff name, inner key, outer key)
_CUTOFF_MAP = (
    ("leader", "omega0_tilde", "omega0"),
    ("follower1", "omega1_tilde", "omega1"),
    ("follower2", "omega2_tilde", "omega2"),
    ("tracking", "omega_prime", "omega"),
)

_PRESET_ALIASES = {
    "heat+cubic-f": "cubic-f",
    "heat+linear-f": "linear-f",
}

_TOLERANCE_DEFAULTS = {
    "outer_tol": 1e-8,
    "max_outer": 12,
    "nash_tol": 1e-11,
    "cg_tol": 1e-8,
    "cg_max": 400,
    "data_budget": 1.0,
}

# the fields each data profile reads, besides ``profile`` itself
_PROFILE_FIELDS = {
    "zero": (),
    "sine": ("amplitude", "modes"),
    "bump": ("amplitude", "center", "width"),
    "gauss": ("amplitude", "center", "sigma"),
    "csv": ("path", "amplitude"),
}
_PROFILE_NAMES = tuple(_PROFILE_FIELDS)


@dataclass(frozen=True)
class Scenario:
    """Validated, normalized description of one problem instance."""

    name: str
    dim: int
    cells: int
    T: float
    steps: int
    regions: tuple        # ((key, ((lo, hi), ...)), ...) sorted by REGION_KEYS order
    mu1: float
    mu2: float
    nu1: float
    nu2: float
    lam: float | None     # None means: calibrate from (mu, eta) at build time
    mu_weight: float
    epsilon: float
    preset: str
    preset_params: tuple  # ((key, value), ...) sorted
    y0: tuple             # ((key, value), ...) profile spec, sorted
    target1: tuple
    target2: tuple
    tolerances: tuple     # ((key, value), ...) sorted, defaults filled
    seed: int = 0

    # ------------------------------------------------------------------
    def tolerance(self, key: str) -> float:
        return dict(self.tolerances)[key]

    def build_nonlinearity(self) -> Nonlinearity:
        return nonlinearity_preset(self.preset, **dict(self.preset_params))

    def build_problem(self) -> HierarchicProblem:
        """Instantiate grids, cutoffs, data and the problem object."""
        grid = build_grid(self.dim, self.cells)
        tgrid = build_time_grid(self.T, self.steps)
        regions = dict(self.regions)
        cutoffs = {}
        for cname, ik, ok in _CUTOFF_MAP:
            try:
                cutoffs[cname] = build_cutoff(grid, regions[ik], regions[ok])
            except GeometryError as exc:
                raise ValidationError(f"regions.{ik} / regions.{ok}: {exc}") from exc
        # homogeneous Dirichlet data: analytic profiles with tails (gauss)
        # are trimmed at the boundary nodes
        y0_vals = evaluate_profile(grid, dict(self.y0), "data.y0")
        y0_vals[grid.boundary] = 0.0
        y0 = Field(grid, y0_vals)
        tgt = []
        for label, spec in (("y1_target", self.target1), ("y2_target", self.target2)):
            vals = evaluate_profile(grid, dict(spec), f"data.{label}")
            tgt.append(SpaceTimeField(grid, tgrid, np.tile(vals, (tgrid.n_slices, 1))))
        return HierarchicProblem(
            grid=grid,
            tgrid=tgrid,
            nl=self.build_nonlinearity(),
            cutoffs=cutoffs,
            mu=(self.mu1, self.mu2),
            nu=(self.nu1, self.nu2),
            y0=y0,
            targets=(tgt[0], tgt[1]),
            name=self.name,
        )

    def build_carleman_weights(self, problem: HierarchicProblem) -> CarlemanWeights:
        return build_weights(
            problem.grid, problem.tgrid, problem.focus_box(), mu=self.mu_weight, lam=self.lam
        )


# ---------------------------------------------------------------------------
# data profiles


def evaluate_profile(grid: SpatialGrid, spec: dict, key: str) -> np.ndarray:
    """Nodal values of a named analytic profile (or the raw-CSV escape hatch)."""
    kind = spec.get("profile")
    amp = float(spec.get("amplitude", 1.0))
    if kind == "zero":
        return np.zeros(grid.n_nodes)
    if kind == "sine":
        modes = spec.get("modes", 1)
        if np.isscalar(modes):
            modes = [modes] * grid.dim
        out = np.full(grid.n_nodes, amp)
        for ax in range(grid.dim):
            out *= np.sin(np.pi * int(modes[ax]) * grid.nodes[:, ax])
        return out
    if kind == "bump":
        center = spec.get("center", 0.5)
        width = float(spec.get("width", 0.5))
        if np.isscalar(center):
            center = [center] * grid.dim
        out = np.full(grid.n_nodes, amp)
        for ax in range(grid.dim):
            r = 2.0 * (grid.nodes[:, ax] - float(center[ax])) / width
            prof = np.zeros(grid.n_nodes)
            inside = np.abs(r) < 1.0
            prof[inside] = np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
            out *= prof
        return out
    if kind == "gauss":
        center = spec.get("center", 0.5)
        sigma = float(spec.get("sigma", 0.1))
        if np.isscalar(center):
            center = [center] * grid.dim
        r2 = np.zeros(grid.n_nodes)
        for ax in range(grid.dim):
            r2 += (grid.nodes[:, ax] - float(center[ax])) ** 2
        return amp * np.exp(-r2 / (2.0 * sigma**2))
    if kind == "csv":
        path = spec.get("path")
        if not path:
            raise ValidationError(f"{key}: csv profile requires a 'path' entry")
        try:
            vals = np.loadtxt(path, delimiter=",", skiprows=1, usecols=-1, dtype=float)
        except OSError as exc:
            raise ValidationError(f"{key}: cannot read {path}: {exc}") from exc
        vals = np.atleast_1d(vals)
        if vals.size != grid.n_nodes:
            raise ValidationError(
                f"{key}: {path} holds {vals.size} values, grid has {grid.n_nodes} nodes"
            )
        return vals * amp
    raise ValidationError(
        f"{key}.profile must be one of {_PROFILE_NAMES}, got {kind!r}"
    )


# ---------------------------------------------------------------------------
# validation helpers


def _need(tree: dict, key: str, where: str):
    if key not in tree:
        raise ValidationError(f"missing required key {where}{key}")
    return tree[key]


def _number(value, key: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{key} must be a number, got {value!r}") from None


def _integer(value, key: str) -> int:
    """An integer; an integral float such as 16.0 is accepted, 16.5 is not."""
    try:
        v = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{key} must be an integer, got {value!r}") from None
    if isinstance(value, float) and v != value:
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    return v


def _positive(value, key: str) -> float:
    v = _number(value, key)
    if not np.isfinite(v) or v <= 0:
        raise ValidationError(f"{key} must be positive, got {value!r}")
    return v


def _nonnegative(value, key: str) -> float:
    v = _number(value, key)
    if not np.isfinite(v) or v < 0:
        raise ValidationError(f"{key} must be nonnegative, got {value!r}")
    return v


def _normalize_region(value, dim: int, key: str) -> tuple:
    """Per-axis closed intervals inside (0, 1), as a tuple of (lo, hi) pairs."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):  # a non-number or a ragged list
        arr = np.empty(0)
    if dim == 1 and arr.shape == (2,):
        arr = arr[None, :]
    if arr.shape != (dim, 2):
        raise ValidationError(
            f"regions.{key} must give {dim} interval pair(s) [lo, hi], got {value!r}"
        )
    for lo, hi in arr:
        if not (0.0 <= lo < hi <= 1.0):
            raise ValidationError(
                f"regions.{key} interval [{lo}, {hi}] must satisfy 0 <= lo < hi <= 1"
            )
    return tuple((float(lo), float(hi)) for lo, hi in arr)


def _check_inclusion(inner, outer, ik: str, ok: str):
    for (il, ih), (ol, oh) in zip(inner, outer):
        if not (ol < il and ih < oh):
            raise ValidationError(
                f"regions.{ik} must be strictly inside regions.{ok} "
                f"(closure inclusion), got [{il}, {ih}] vs [{ol}, {oh}]"
            )


def _mode(value, key: str) -> int:
    v = _integer(value, key)
    if v < 1:
        raise ValidationError(f"{key} must be >= 1, got {value!r}")
    return v


# readers of the profile fields that are not plain numbers
_SPEC_READERS = {"modes": _mode, "width": _positive, "sigma": _positive}


def _normalize_spec(value, key: str, dim: int) -> tuple:
    """Profile spec as a sorted (key, value) tuple with validated fields.

    ``width`` and ``sigma`` are positive, ``modes`` at least 1, and a
    per-axis list of ``modes`` or ``center`` holds exactly ``dim`` entries.
    """
    if not isinstance(value, dict):
        raise ValidationError(f"{key} must be a mapping with a 'profile' entry")
    kind = value.get("profile")
    if kind not in _PROFILE_NAMES:
        raise ValidationError(f"{key}.profile must be one of {_PROFILE_NAMES}, got {kind!r}")
    out = {}
    for k, v in value.items():
        name = f"{key}.{k}"
        if k != "profile" and k not in _PROFILE_FIELDS[kind]:
            fields = ", ".join(_PROFILE_FIELDS[kind]) or "no fields"
            raise ValidationError(f"{name}: profile {kind!r} takes {fields}")
        read = _SPEC_READERS.get(k, _number)
        if k in ("profile", "path"):
            out[k] = str(v)
        elif k in ("modes", "center") and isinstance(v, (list, tuple)):
            if len(v) != dim:
                raise ValidationError(f"{name} must give one entry per axis ({dim}), got {v!r}")
            out[k] = tuple(read(x, name) for x in v)
        else:
            out[k] = read(v, name)
    return tuple(sorted(out.items()))


# ---------------------------------------------------------------------------
# load / emit


# libyaml's parser when PyYAML was built with it: the same safe constructors
# and resolvers as yaml.SafeLoader, so the same tree, parsed several times faster
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file.

    Parse failures carry the line/column of the YAML error; validation
    failures name the offending key and the violated constraint.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_LOADER)
    except OSError as exc:
        raise ValidationError(f"cannot read scenario file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ValidationError(f"parse error in {path}{where}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"scenario file {path} must hold a mapping at top level")
    return scenario_from_tree(raw)


def scenario_from_tree(raw: dict) -> Scenario:
    known = {"name", "grid", "regions", "weights", "nonlinearity", "data", "tolerances", "seed"}
    for k in raw:
        if k not in known:
            raise ValidationError(f"unknown top-level key {k!r}")

    g = _need(raw, "grid", "")
    dim = _integer(_need(g, "dim", "grid."), "grid.dim")
    if dim not in ADMITTED_DIMS:
        raise ValidationError(f"grid.dim must be {' or '.join(map(str, ADMITTED_DIMS))}, got {dim}")
    cells = _integer(_need(g, "cells", "grid."), "grid.cells")
    if cells < 8:
        raise ValidationError(f"grid.cells must be >= 8, got {cells}")
    T = _positive(_need(g, "T", "grid."), "grid.T")
    steps = _integer(_need(g, "steps", "grid."), "grid.steps")
    if steps < 16:
        raise ValidationError(f"grid.steps must be >= 16, got {steps}")

    rtree = _need(raw, "regions", "")
    regions = {}
    for key in REGION_KEYS:
        regions[key] = _normalize_region(_need(rtree, key, "regions."), dim, key)
    for k in rtree:
        if k not in REGION_KEYS:
            raise ValidationError(f"unknown region key regions.{k!r}")
    for _, ik, ok in _CUTOFF_MAP:
        _check_inclusion(regions[ik], regions[ok], ik, ok)
    if not boxes_intersect(dim, regions["omega0_tilde"], regions["omega_prime"]):
        raise ValidationError(
            "regions.omega0_tilde and regions.omega_prime are disjoint; the weight "
            "construction assumes omega0_tilde intersects omega_prime"
        )

    w = _need(raw, "weights", "")
    mu1 = _positive(_need(w, "mu1", "weights."), "weights.mu1")
    mu2 = _positive(_need(w, "mu2", "weights."), "weights.mu2")
    nu1 = _nonnegative(_need(w, "nu1", "weights."), "weights.nu1")
    nu2 = _nonnegative(_need(w, "nu2", "weights."), "weights.nu2")
    lam_raw = w.get("lambda", "auto")
    lam = None if (lam_raw is None or lam_raw == "auto") else _positive(lam_raw, "weights.lambda")
    mu_weight = _positive(w.get("mu", 2.0), "weights.mu")
    epsilon = _positive(_need(w, "epsilon", "weights."), "weights.epsilon")

    nltree = _need(raw, "nonlinearity", "")
    preset = str(_need(nltree, "preset", "nonlinearity.")).replace("_", "-").lower()
    preset = _PRESET_ALIASES.get(preset, preset)
    params = nltree.get("params", {}) or {}
    if not isinstance(params, dict):
        raise ValidationError("nonlinearity.params must be a mapping of numbers")
    norm_params = tuple(sorted(
        (str(k), _number(v, f"nonlinearity.params.{k}")) for k, v in params.items()
    ))
    takes = PRESETS.get(preset)
    for k, _ in norm_params:
        if takes is not None and k not in takes:
            raise ValidationError(
                f"nonlinearity.params.{k}: preset {preset!r} takes {', '.join(takes)}"
            )
    try:
        nonlinearity_preset(preset, **dict(norm_params))
    except CoefficientError as exc:
        raise ValidationError(f"nonlinearity.preset: {exc}") from exc

    d = _need(raw, "data", "")
    y0 = _normalize_spec(_need(d, "y0", "data."), "data.y0", dim)
    t1 = _normalize_spec(_need(d, "y1_target", "data."), "data.y1_target", dim)
    t2 = _normalize_spec(_need(d, "y2_target", "data."), "data.y2_target", dim)

    tol_tree = raw.get("tolerances", {}) or {}
    tol = dict(_TOLERANCE_DEFAULTS)
    for k, v in tol_tree.items():
        if k not in _TOLERANCE_DEFAULTS:
            raise ValidationError(f"unknown tolerance key tolerances.{k!r}")
        key = f"tolerances.{k}"
        tol[k] = _integer(v, key) if k in ("max_outer", "cg_max") else _positive(v, key)
    if tol["max_outer"] < 1:
        raise ValidationError(f"tolerances.max_outer must be >= 1, got {tol['max_outer']}")
    if tol["cg_max"] < 1:
        raise ValidationError(f"tolerances.cg_max must be >= 1, got {tol['cg_max']}")

    seed = _integer(raw.get("seed", 0), "seed")

    return Scenario(
        name=str(raw.get("name", "scenario")),
        dim=dim,
        cells=cells,
        T=T,
        steps=steps,
        regions=tuple((k, regions[k]) for k in REGION_KEYS),
        mu1=mu1,
        mu2=mu2,
        nu1=nu1,
        nu2=nu2,
        lam=lam,
        mu_weight=mu_weight,
        epsilon=epsilon,
        preset=preset,
        preset_params=norm_params,
        y0=y0,
        target1=t1,
        target2=t2,
        tolerances=tuple(sorted(tol.items())),
        seed=seed,
    )


def _spec_tree(spec: tuple) -> dict:
    out = {}
    for k, v in spec:
        out[k] = list(v) if isinstance(v, tuple) else v
    return out


def scenario_to_tree(s: Scenario) -> dict:
    regions = {k: [list(iv) for iv in v] if s.dim > 1 else list(v[0]) for k, v in s.regions}
    return {
        "name": s.name,
        "grid": {"dim": s.dim, "cells": s.cells, "T": s.T, "steps": s.steps},
        "regions": regions,
        "weights": {
            "mu1": s.mu1,
            "mu2": s.mu2,
            "nu1": s.nu1,
            "nu2": s.nu2,
            "lambda": "auto" if s.lam is None else s.lam,
            "mu": s.mu_weight,
            "epsilon": s.epsilon,
        },
        "nonlinearity": {"preset": s.preset, "params": dict(s.preset_params)},
        "data": {
            "y0": _spec_tree(s.y0),
            "y1_target": _spec_tree(s.target1),
            "y2_target": _spec_tree(s.target2),
        },
        "tolerances": dict(s.tolerances),
        "seed": s.seed,
    }


def emit_scenario(s: Scenario, path: str | None = None) -> str:
    """Canonical serialization; load(emit(s)) == s."""
    text = yaml.safe_dump(scenario_to_tree(s), sort_keys=True, default_flow_style=None)
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text
