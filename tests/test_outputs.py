"""Artifact writers: formats, determinism, structure."""

import dataclasses
import json
import os

import numpy as np
import pytest

from hiercontrol.errors import ValidationError
from hiercontrol.grids import SpaceTimeField, build_grid, build_time_grid
from hiercontrol.outputs import (
    emit_csv,
    emit_report,
    emit_svg,
    format_value,
    write_block,
    write_rows,
)


def _traj(cells=8, steps=16, seed=0):
    g = build_grid(1, cells)
    tg = build_time_grid(1.0, steps)
    rng = np.random.default_rng(seed)
    return SpaceTimeField(g, tg, rng.standard_normal((tg.n_slices, g.n_nodes)))


class TestFormatting:
    def test_exact_zero(self):
        assert format_value(0.0) == "0"
        assert format_value(-0.0) == "0"

    def test_seventeen_digits_round_trip(self):
        for v in (1.0 / 3.0, np.pi, 1e-300, -2.5e17, 1.024664106e-5):
            assert float(format_value(v)) == v

    def test_write_rows_header_and_newlines(self, tmp_path):
        path = os.path.join(tmp_path, "rows.csv")
        write_rows(path, ["a", "b"], [(1.0, 0.0), ("x", 2.5)])
        with open(path, "rb") as fh:
            raw = fh.read()
        assert raw == b"a,b\n1,0\nx,2.5\n"

    def test_write_rows_bad_path(self, tmp_path):
        with pytest.raises(OSError, match="cannot write"):
            write_rows(os.path.join(tmp_path, "nope", "rows.csv"), ["a"], [(1.0,)])


class TestCsv:
    def test_row_count_and_order(self, tmp_path):
        traj = _traj(cells=8, steps=16)
        path = os.path.join(tmp_path, "y.csv")
        emit_csv(traj, path)
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "t,x,value"
        assert len(lines) == 1 + traj.tgrid.n_slices * traj.grid.n_nodes
        # first block is slice 0 in node order
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
        assert float(first[2]) == traj.values[0, 0]

    def test_2d_header(self, tmp_path):
        g = build_grid(2, 8)
        tg = build_time_grid(1.0, 16)
        traj = SpaceTimeField(g, tg, np.zeros((tg.n_slices, g.n_nodes)))
        path = os.path.join(tmp_path, "y2.csv")
        emit_csv(traj, path)
        with open(path, "r", encoding="utf-8") as fh:
            assert fh.readline().strip() == "t,x,y,value"

    @pytest.mark.parametrize("dim,cells", [(1, 8), (2, 8)])
    def test_block_matches_per_cell_rendering(self, tmp_path, dim, cells):
        g = build_grid(dim, cells)
        tg = build_time_grid(0.7, 16)
        rng = np.random.default_rng(dim)
        shape = (tg.n_slices, g.n_nodes)
        vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        vals[1, :4] = (-0.0, 5e-324, 1e300, -1e300)
        vals[2] = 0.0
        vals[3] = -0.0
        traj = SpaceTimeField(g, tg, vals)
        path = os.path.join(tmp_path, "y.csv")
        emit_csv(traj, path)
        header = ["t", "x", "value"] if dim == 1 else ["t", "x", "y", "value"]
        lines = [",".join(header)]
        for m in range(tg.n_slices):
            for i in range(g.n_nodes):
                row = (tg.times[m], *g.nodes[i], vals[m, i])
                lines.append(",".join(format_value(float(c)) for c in row))
        with open(path, "rb") as fh:
            assert fh.read() == ("\n".join(lines) + "\n").encode()

    def test_write_block_bad_path(self, tmp_path):
        with pytest.raises(OSError, match="cannot write"):
            write_block(os.path.join(tmp_path, "nope", "b.csv"), ["a"], np.zeros((1, 1)))

    def test_deterministic_bytes(self, tmp_path):
        a = os.path.join(tmp_path, "a.csv")
        b = os.path.join(tmp_path, "b.csv")
        emit_csv(_traj(seed=3), a)
        emit_csv(_traj(seed=3), b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()


class TestReport:
    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        path = os.path.join(tmp_path, "r.json")
        emit_report({"zeta": 1, "alpha": {"b": 2.0, "a": np.float64(3.0)}}, path)
        with open(path, "rb") as fh:
            raw = fh.read()
        assert raw.endswith(b"\n")
        text = raw.decode()
        assert text.index('"alpha"') < text.index('"zeta"')
        parsed = json.loads(text)
        assert parsed["alpha"]["a"] == 3.0

    def test_dataclass_is_its_own_report(self, tmp_path):
        # fields become keys, trajectories are left out, a nested result is
        # a nested block, None stays null and NaN is written as its repr
        @dataclasses.dataclass
        class Inner:
            traj: SpaceTimeField
            count: int
            history: tuple

        @dataclasses.dataclass
        class Outer:
            values: np.ndarray
            value: float
            scaled: np.float64
            inner: Inner
            missing: Inner | None

        rep = Outer(np.arange(3.0), float("nan"), np.float64("nan"),
                    Inner(_traj(), 2, (0.5, float("inf"))), None)
        path = os.path.join(tmp_path, "r.json")
        emit_report(rep, path, extra={"scenario": "demo"})
        assert json.loads(open(path, "r", encoding="utf-8").read()) == {
            "value": "nan", "scaled": "nan", "scenario": "demo",
            "inner": {"count": 2, "history": [0.5, "inf"]}, "missing": None,
        }

    def test_arrays_and_nonfinite(self, tmp_path):
        path = os.path.join(tmp_path, "r.json")
        emit_report({"arr": np.arange(3.0), "bad": float("inf")}, path)
        parsed = json.loads(open(path, "r", encoding="utf-8").read())
        assert parsed["arr"] == [0.0, 1.0, 2.0]
        assert parsed["bad"] == "inf"


class TestSvg:
    def test_viewbox_and_determinism(self, tmp_path):
        xs = list(np.linspace(0.0, 1.0, 20))
        ys = list(np.exp(-3.0 * np.asarray(xs)))
        series = [{"label": "decay", "x": xs, "y": ys}]
        a = os.path.join(tmp_path, "a.svg")
        b = os.path.join(tmp_path, "b.svg")
        emit_svg(series, a, title="demo", xlabel="t", ylabel="v")
        emit_svg(series, b, title="demo", xlabel="t", ylabel="v")
        raw = open(a, "rb").read()
        assert raw == open(b, "rb").read()
        text = raw.decode()
        assert 'viewBox="0 0 800 500"' in text
        assert "demo" in text and "decay" in text

    def test_log_scale_drops_nonpositive(self, tmp_path):
        series = [{"label": "mixed", "x": [0.0, 1.0, 2.0], "y": [1.0, 0.0, 1e-3]}]
        path = os.path.join(tmp_path, "log.svg")
        emit_svg(series, path, ylog=True)
        text = open(path, "r", encoding="utf-8").read()
        assert "<svg" in text

    def test_log_scale_of_zero_data_is_an_empty_frame(self, tmp_path):
        series = [{"label": "zero", "x": [0.0, 1.0, 2.0], "y": [0.0, 0.0, 0.0]},
                  {"label": "empty", "x": [], "y": []}]
        path = os.path.join(tmp_path, "zero.svg")
        emit_svg(series, path, title="zero", ylog=True)
        text = open(path, "r", encoding="utf-8").read()
        assert 'viewBox="0 0 800 500"' in text and "zero" in text
        assert "<polyline" not in text
        # no series at all, or x and y that do not match, still raise
        path = os.path.join(tmp_path, "bad.svg")
        with pytest.raises(ValidationError, match="at least one series"):
            emit_svg([], path, ylog=True)
        with pytest.raises(ValidationError, match="mismatched"):
            emit_svg([{"label": "m", "x": [0.0, 1.0], "y": [1.0]}], path, ylog=True)
        assert not os.path.exists(path)

    def test_escaping(self, tmp_path):
        path = os.path.join(tmp_path, "esc.svg")
        emit_svg([{"label": "a<b&c", "x": [0.0, 1.0], "y": [1.0, 2.0]}], path, title="x<y>z")
        text = open(path, "r", encoding="utf-8").read()
        assert "a<b" not in text
        assert "a&lt;b&amp;c" in text
