"""Deterministic artifact writers: CSV trajectories, JSON reports, SVG charts.

Every writer is bit-exact for identical inputs: fixed float formatting
(17 significant digits in CSV, sorted keys in JSON), fixed newlines, no
timestamps, no environment-dependent content.

Numeric CSV tables are written with a single %-format call per file:
weight fields over all the values of one (rows, cols) float block
(``write_block``), trajectories over their value column alone, after
rendering each time level and each node once (``emit_csv``).  The values
get ``+ 0.0`` first, which turns -0.0 into 0.0, so every cell reads
exactly as ``format_value`` renders it: "%.17g", with zero of either sign
as plain 0.  ``write_rows`` is the cell-by-cell writer for rows that mix
strings and numbers.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .errors import ValidationError
from .grids import SpaceTimeField


def format_value(v: float) -> str:
    """17-significant-digit decimal; exact zero renders as plain 0."""
    if v == 0.0:
        return "0"
    return "%.17g" % v


def write_rows(path: str, header: list[str], rows) -> None:
    """CSV writer with fixed formatting; numbers go through format_value."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(
                    ",".join(c if isinstance(c, str) else format_value(float(c)) for c in row)
                    + "\n"
                )
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def write_block(path: str, header: list[str], block: np.ndarray) -> None:
    """CSV writer for a (rows, cols) float block, each cell as format_value renders it."""
    rows, cols = block.shape
    line = "%.17g," * (cols - 1) + "%.17g\n"
    _write_table(path, header, (line * rows) % tuple((block + 0.0).ravel().tolist()))


def _write_table(path: str, header: list[str], text: str) -> None:
    """Write the header line, then the rendered rows ``text``."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def coordinate_header(dim: int) -> list[str]:
    """CSV column names of a node's coordinates, one per axis: x, then y."""
    return ["x", "y"][:dim]


def emit_csv(trajectory: SpaceTimeField, path: str) -> None:
    """Full space-time trajectory, time-major then space-major.

    Header is t, ``coordinate_header`` and value; row count is
    (steps + 1) * n_nodes.  Every cell reads as ``format_value`` renders
    it.  The "t,x," prefix of each row is built from the time levels and
    the nodes, each rendered once, so the file's one %-format call renders
    only the value column.
    """
    grid, tgrid = trajectory.grid, trajectory.tgrid
    header = ["t", *coordinate_header(grid.dim), "value"]
    times = ["%.17g," % t for t in (tgrid.times + 0.0).tolist()]
    nodes = [("%.17g," * grid.dim) % tuple(x) for x in (grid.nodes + 0.0).tolist()]
    # a rendered float holds no "%", so the prefixes are literal in the format
    line = "".join([t + x + "%.17g\n" for t in times for x in nodes])
    _write_table(path, header, line % tuple((trajectory.values + 0.0).ravel().tolist()))


def emit_report(report, path: str, extra: dict | None = None) -> None:
    """Pretty-printed JSON with sorted keys and a trailing newline.

    ``report`` is a dict or a result dataclass, written as ``_plain`` renders
    it; ``extra`` adds the top-level keys that are not fields of the result.
    """
    text = json.dumps(_plain(report) | _plain(extra or {}), sort_keys=True, indent=2)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _plain(obj):
    """The report rule: a result, recursively, in JSON types.

    A dataclass becomes {field: value} over its fields, leaving out every
    trajectory (a SpaceTimeField or ndarray value), since trajectories go to
    CSV; a nested dataclass becomes a nested block, and None stays null.
    Elsewhere tuples and arrays become lists, numpy scalars Python numbers,
    and a non-finite float its repr.
    """
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(v) for f in dataclasses.fields(obj)
                if not isinstance(v := getattr(obj, f.name), (SpaceTimeField, np.ndarray))}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return _plain(obj.item())
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


# ---------------------------------------------------------------------------
# SVG line charts

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_VIEW_W, _VIEW_H = 800, 500
_ML, _MR, _MT, _MB = 70, 24, 36, 52


def _ticks(lo: float, hi: float, count: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    raw = np.linspace(lo, hi, count)
    return [float(t) for t in raw]


def emit_svg(series, path: str, title: str = "", xlabel: str = "", ylabel: str = "",
             ylog: bool = False) -> None:
    """Line chart of one or more (x, y) series in a fixed 800x500 viewBox.

    ``series`` is a list of {"label": str, "x": seq, "y": seq}.  With
    ``ylog`` the y data are log10-transformed (nonpositive values are
    dropped from that curve).  When no point is left to draw, as for a
    log-scale chart of zero data, the chart is the frame on the unit box
    with no curve.  An empty ``series`` list or a series whose x and y
    differ in shape raises ValidationError.
    """
    if not series:
        raise ValidationError("emit_svg needs at least one series")
    curves = []
    for s in series:
        x = np.asarray(s["x"], dtype=float)
        y = np.asarray(s["y"], dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ValidationError(f"series {s.get('label', '?')!r} has mismatched x/y")
        if ylog:
            keep = y > 0
            x, y = x[keep], np.log10(y[keep])
        if x.size:
            curves.append((str(s.get("label", "")), x, y))

    xlo = min((float(c[1].min()) for c in curves), default=0.0)
    xhi = max((float(c[1].max()) for c in curves), default=1.0)
    ylo = min((float(c[2].min()) for c in curves), default=0.0)
    yhi = max((float(c[2].max()) for c in curves), default=1.0)
    if xhi <= xlo:
        xhi = xlo + 1.0
    if yhi <= ylo:
        yhi = ylo + 1.0
    pw = _VIEW_W - _ML - _MR
    ph = _VIEW_H - _MT - _MB

    def X(v):
        return _ML + (v - xlo) / (xhi - xlo) * pw

    def Y(v):
        return _MT + (yhi - v) / (yhi - ylo) * ph

    def f(v):
        return "%.6g" % v

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_VIEW_W} {_VIEW_H}" '
        f'font-family="monospace" font-size="12">',
        f'<rect x="0" y="0" width="{_VIEW_W}" height="{_VIEW_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="black" stroke-width="1"/>',
    ]
    if title:
        out.append(
            f'<text x="{_VIEW_W // 2}" y="{_MT - 12}" text-anchor="middle" '
            f'font-size="14">{_esc(title)}</text>'
        )
    for t in _ticks(xlo, xhi):
        px = X(t)
        out.append(f'<line x1="{f(px)}" y1="{_MT + ph}" x2="{f(px)}" y2="{_MT + ph + 5}" stroke="black"/>')
        out.append(
            f'<text x="{f(px)}" y="{_MT + ph + 18}" text-anchor="middle">{f(t)}</text>'
        )
    for t in _ticks(ylo, yhi):
        py = Y(t)
        label = f(t) if not ylog else "1e%s" % f(t)
        out.append(f'<line x1="{_ML - 5}" y1="{f(py)}" x2="{_ML}" y2="{f(py)}" stroke="black"/>')
        out.append(
            f'<text x="{_ML - 8}" y="{f(py + 4)}" text-anchor="end">{label}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{_ML + pw // 2}" y="{_VIEW_H - 14}" text-anchor="middle">{_esc(xlabel)}</text>'
        )
    if ylabel:
        cy = _MT + ph // 2
        out.append(
            f'<text x="18" y="{cy}" text-anchor="middle" '
            f'transform="rotate(-90 18 {cy})">{_esc(ylabel)}</text>'
        )
    for idx, (label, x, y) in enumerate(curves):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{f(X(a))},{f(Y(b))}" for a, b in zip(x, y))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if label:
            ly = _MT + 16 + 16 * idx
            out.append(
                f'<line x1="{_ML + pw - 150}" y1="{ly - 4}" x2="{_ML + pw - 126}" '
                f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>'
            )
            out.append(f'<text x="{_ML + pw - 120}" y="{ly}">{_esc(label)}</text>')
    out.append("</svg>")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(out) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
