#!/usr/bin/env python3
"""Byte comparison of the CLI artifacts of two checkouts.

    python3 scripts/artifact_diff.py PARENT CHANGE --out DIR

Runs the same fixed set of commands in both checkouts, each with that
checkout's ``src`` on PYTHONPATH and its own ``scenarios/`` files, under
HIERCONTROL_THREADS=1:

* ``solve`` on every shipped scenario (the ``*.cfg`` files of CHANGE),
* ``verify --suite all`` on heat_lq_16x32, on advection_lq_16x32 (the
  linear-quadratic case with lower-order terms) and on heat_2d, the one
  run of the 2D observability, second-order and Carleman checks,
* ``verify --suite nash-oracle`` on heat_lq_24x48, the stacked KKT
  oracle's size limit, and on heat_2d, where its state block carries the
  2D Kronecker Laplacian,
* ``verify --suite duality`` on gradient_diffusion,
* ``verify --suite second-order`` on gradient_diffusion and on
  mild_quasilinear, the runs where the coefficient curvature the check
  differentiates has non-zero second derivatives,
* ``verify --suite carleman`` and ``verify --suite observability`` on
  mild_quasilinear, the probes on a quasi-linear roster,
* ``leader`` on heat_1d, on mild_quasilinear and on heat_2d, the one 2D
  run of the leader solution rebuilt from the Krylov basis,
* ``nash`` on gradient_diffusion,
* ``weights`` on heat_1d, whose rho_hat column reaches e^434, and on
  heat_2d,
* ``solve`` and ``nash`` on two scenarios derived from heat_lq_16x32 whose
  nonlinearity is ``cubic-f`` (a0 = 1, c = 1) or ``burgers-f`` (a0 = 1,
  c = 0.5), the presets no shipped scenario uses, and on two derived from
  heat_2d whose nonlinearity is ``linear-f`` (a0 = 1, c1 = 0.5, c2 = 0.3),
  the 2D path with lower-order terms, or ``mild-quasilinear`` (a0 = 1,
  q = 1, c = 0.5), the 2D march that refreshes its step matrix, and on one
  derived from heat_2d with ``linear-f`` (a0 = 1, c1 = 0.5, c2 = 0), whose
  constant reaction without advection keeps every slice in the sine basis,
* ``solve`` on one scenario derived from mild_quasilinear with
  ``max_outer: 1``, whose Nash finalization starts from the follower pair
  of an unconverged linearization.

A derived scenario replaces keys of top-level sections of its shipped
scenario (``DERIVED``): the whole nonlinearity, or single tolerances.

Each checkout's derived scenarios are written from its own shipped
scenario files into ``DIR/<side>/scenarios``.  Every command writes into
``DIR/<side>/<run>`` and runs there; bytecode goes to ``DIR/pycache``, so
nothing is written outside DIR.  The script prints every artifact as
identical or different, and every exit code.  For a differing CSV it
prints max|delta| / max|value| of the column where that ratio is largest;
for a differing JSON report, the key paths only one side has and the
changed leaves, with the largest relative change |a - b| / max(|a|, |b|)
of each numeric path.  A path writes list indices as [], so the entries of
one list count as one path.  It exits 0 only when both checkouts write the
same files with the same bytes and every command returns the same exit
code.
"""

import argparse
import glob
import json
import os
import re
import subprocess
import sys
from collections import defaultdict

import numpy as np
import yaml

FIXED_RUNS = (
    ("verify-all-heat_lq_16x32", ["verify", "--suite", "all"], "heat_lq_16x32"),
    ("verify-all-advection_lq_16x32", ["verify", "--suite", "all"], "advection_lq_16x32"),
    ("verify-all-heat_2d", ["verify", "--suite", "all"], "heat_2d"),
    ("verify-nash-oracle-heat_lq_24x48", ["verify", "--suite", "nash-oracle"], "heat_lq_24x48"),
    ("verify-nash-oracle-heat_2d", ["verify", "--suite", "nash-oracle"], "heat_2d"),
    ("verify-duality-gradient_diffusion", ["verify", "--suite", "duality"], "gradient_diffusion"),
    ("verify-second-order-gradient_diffusion", ["verify", "--suite", "second-order"], "gradient_diffusion"),
    ("verify-second-order-mild_quasilinear", ["verify", "--suite", "second-order"], "mild_quasilinear"),
    ("verify-carleman-mild_quasilinear", ["verify", "--suite", "carleman"], "mild_quasilinear"),
    ("verify-observability-mild_quasilinear", ["verify", "--suite", "observability"], "mild_quasilinear"),
    ("leader-heat_1d", ["leader"], "heat_1d"),
    ("leader-mild_quasilinear", ["leader"], "mild_quasilinear"),
    ("leader-heat_2d", ["leader"], "heat_2d"),
    ("nash-gradient_diffusion", ["nash"], "gradient_diffusion"),
    ("weights-heat_1d", ["weights"], "heat_1d"),
    ("weights-heat_2d", ["weights"], "heat_2d"),
)

# derived scenario -> (shipped scenario, commands run on it,
#                      {top-level section: the keys that replace its own})
DERIVED = {
    "heat_lq_16x32-cubic-f": ("heat_lq_16x32", ("solve", "nash"), {
        "nonlinearity": {"preset": "cubic-f", "params": {"a0": 1.0, "c": 1.0}}}),
    "heat_lq_16x32-burgers-f": ("heat_lq_16x32", ("solve", "nash"), {
        "nonlinearity": {"preset": "burgers-f", "params": {"a0": 1.0, "c": 0.5}}}),
    "heat_2d-linear-f": ("heat_2d", ("solve", "nash"), {
        "nonlinearity": {"preset": "linear-f", "params": {"a0": 1.0, "c1": 0.5, "c2": 0.3}}}),
    "heat_2d-linear-f-reaction": ("heat_2d", ("solve", "nash"), {
        "nonlinearity": {"preset": "linear-f", "params": {"a0": 1.0, "c1": 0.5, "c2": 0.0}}}),
    "heat_2d-mild-quasilinear": ("heat_2d", ("solve", "nash"), {
        "nonlinearity": {"preset": "mild-quasilinear", "params": {"a0": 1.0, "q": 1.0, "c": 0.5}}}),
    "mild_quasilinear-max_outer-1": ("mild_quasilinear", ("solve",), {
        "tolerances": {"max_outer": 1}}),
}


def runs(change: str) -> list[tuple[str, list[str], str]]:
    names = sorted(os.path.basename(p)[:-4] for p in glob.glob(os.path.join(change, "scenarios", "*.cfg")))
    derived = [(f"{cmd}-{name}", [cmd], name) for name, (_, cmds, _) in DERIVED.items() for cmd in cmds]
    return [(f"solve-{name}", ["solve"], name) for name in names] + list(FIXED_RUNS) + derived


def write_derived(checkout: str, folder: str) -> None:
    """Write every DERIVED scenario from the checkout's own shipped file into folder."""
    os.makedirs(folder, exist_ok=True)
    for name, (base, _, overrides) in DERIVED.items():
        with open(os.path.join(checkout, "scenarios", f"{base}.cfg"), encoding="utf-8") as fh:
            tree = yaml.safe_load(fh)
        for section, keys in overrides.items():
            tree[section] = {**(tree.get(section) or {}), **keys}
        with open(os.path.join(folder, f"{name}.cfg"), "w", encoding="utf-8") as fh:
            yaml.safe_dump(tree, fh, sort_keys=False)


def run_cli(checkout: str, argv: list[str], config: str, out: str, pycache: str) -> int:
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), HIERCONTROL_THREADS="1",
               PYTHONPYCACHEPREFIX=pycache)
    cmd = [sys.executable, "-m", "hiercontrol.cli", *argv, "--config", config, "--out", out]
    return subprocess.run(cmd, cwd=out, env=env, capture_output=True).returncode


def csv_gap(a: str, b: str) -> str:
    """The largest max|delta| / max|value| of a column of two CSV files of the same shape.

    Each column is scaled by its own values, so a column of small values
    (a follower control) is not measured against the coordinate columns.
    """
    try:
        x = np.loadtxt(a, delimiter=",", skiprows=1, ndmin=2)
        y = np.loadtxt(b, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return f"not numeric ({exc})"
    if x.shape != y.shape:
        return f"shapes {x.shape} vs {y.shape}"
    scale = np.maximum(np.maximum(np.abs(x).max(axis=0, initial=0.0),
                                  np.abs(y).max(axis=0, initial=0.0)), 1e-300)
    gap = float((np.abs(x - y).max(axis=0, initial=0.0) / scale).max(initial=0.0))
    return f"max|delta|/max|value| = {gap:.3e} (largest over columns)"


def _leaves(tree, path=""):
    """(path, value) of every leaf of a JSON tree; an empty dict or list is a leaf."""
    if isinstance(tree, dict) and tree:
        for key, value in tree.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(tree, list) and tree:
        for i, value in enumerate(tree):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, tree


def _relative(a, b) -> float | None:
    """|a - b| / max(|a|, |b|) of two numbers; None when either is not a number."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        return None
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def json_gap(a: str, b: str) -> list[str]:
    """Key paths added and removed between two JSON files, then the changed leaves."""
    with open(a, encoding="utf-8") as fa, open(b, encoding="utf-8") as fb:
        x, y = dict(_leaves(json.load(fa))), dict(_leaves(json.load(fb)))

    def group(path):
        return re.sub(r"\[\d+\]", "[]", path)

    lines = [f"{label}  {path}"
             for label, paths in (("added", y.keys() - x.keys()), ("removed", x.keys() - y.keys()))
             for path in sorted({group(p) for p in paths})]
    changed = defaultdict(list)
    for path in sorted(x.keys() & y.keys()):
        if x[path] != y[path]:
            changed[group(path)].append(_relative(x[path], y[path]))
    for path, gaps in changed.items():
        numeric = [g for g in gaps if g is not None]
        largest = f"largest relative change {max(numeric):.3e}" if numeric else "not numeric"
        lines.append(f"changed  {path}  (leaves changed: {len(gaps)}, {largest})")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the reference version")
    ap.add_argument("change", help="checkout of the changed version")
    ap.add_argument("--out", required=True, help="directory for every artifact and bytecode")
    args = ap.parse_args()
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    out = os.path.abspath(args.out)
    pycache = os.path.join(out, "pycache")
    derived_dirs = {side: os.path.join(out, side, "scenarios") for side in sides}
    for side in sides:
        write_derived(sides[side], derived_dirs[side])

    def config(side: str, scenario: str) -> str:
        folder = derived_dirs[side] if scenario in DERIVED else os.path.join(sides[side], "scenarios")
        return os.path.join(folder, f"{scenario}.cfg")

    codes_ok = True
    files = same = 0
    for label, argv, scenario in runs(sides["change"]):
        dirs = {side: os.path.join(out, side, label) for side in sides}
        codes = {side: run_cli(sides[side], argv, config(side, scenario), dirs[side], pycache)
                 for side in sides}
        match = codes["parent"] == codes["change"]
        codes_ok &= match
        print(f"{label}: exit {codes['parent']} / {codes['change']}"
              f"{'' if match else '  EXIT CODES DIFFER'}", flush=True)
        names = sorted(set(os.listdir(dirs["parent"])) | set(os.listdir(dirs["change"])))
        for name in names:
            a, b = (os.path.join(dirs[side], name) for side in sides)
            files += 1
            if not (os.path.exists(a) and os.path.exists(b)):
                print(f"  only in {'parent' if os.path.exists(a) else 'change'}  {name}")
                continue
            with open(a, "rb") as fa, open(b, "rb") as fb:
                identical = fa.read() == fb.read()
            if identical:
                same += 1
                print(f"  identical  {name}")
            else:
                gap = f"  {csv_gap(a, b)}" if name.endswith(".csv") else ""
                print(f"  different  {name}{gap}")
                if name.endswith(".json"):
                    for line in json_gap(a, b):
                        print(f"    {line}")
    print(f"\n{same} of {files} files identical; exit codes {'all match' if codes_ok else 'differ'}")
    return 0 if codes_ok and same == files else 1


if __name__ == "__main__":
    sys.exit(main())
