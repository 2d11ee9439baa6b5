"""Command-line interface: exit codes, artifacts, determinism."""

import json
import os

import pytest

from conftest import scenario_path
from hiercontrol.cli import build_parser, main

LQ = scenario_path("heat_lq_16x32")


def _run(tmp_path, *argv):
    out = os.path.join(tmp_path, "out")
    os.makedirs(out, exist_ok=True)
    rc = main([*argv, "--out", out])
    return rc, out


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for cmd in ("solve", "nash", "leader", "weights", "verify"):
            args = parser.parse_args([cmd, "--config", "x.cfg"])
            assert args.command == cmd

    def test_verify_suites(self):
        parser = build_parser()
        for suite in ("duality", "nash-oracle", "second-order", "observability",
                      "carleman", "all"):
            args = parser.parse_args(["verify", "--config", "x.cfg", "--suite", suite])
            assert args.suite == suite
        with pytest.raises(SystemExit):
            parser.parse_args(["verify", "--config", "x.cfg", "--suite", "vibes"])


class TestSolve:
    def test_artifacts_and_exit(self, tmp_path):
        rc, out = _run(tmp_path, "solve", "--config", LQ)
        assert rc == 0
        for name in ("solve_report.json", "u.csv", "y.csv", "v1.csv", "v2.csv",
                     "update_norms.svg", "state_norm.svg"):
            assert os.path.exists(os.path.join(out, name)), name
        report = json.loads(_read(os.path.join(out, "solve_report.json")))
        assert report["converged"] is True
        lead = report["leader"]
        assert -1e-12 * lead["ritz_max"] <= lead["ritz_min"] <= lead["ritz_max"]
        assert lead["eps_over_ritz_max"] == report["epsilon"] / lead["ritz_max"]
        assert lead["terminal_residual"] <= 1.01 * 1e-8  # the scenario's cg_tol
        assert 0.0 < lead["control_effect"] < 1.0

    def test_byte_identical_reruns(self, tmp_path):
        rc1, out1 = _run(os.path.join(tmp_path, "1"), "solve", "--config", LQ)
        rc2, out2 = _run(os.path.join(tmp_path, "2"), "solve", "--config", LQ)
        assert rc1 == 0 and rc2 == 0
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2))
        for name in names:
            assert _read(os.path.join(out1, name)) == _read(os.path.join(out2, name)), name


class TestNash:
    def test_report_carries_residuals(self, tmp_path):
        rc, out = _run(tmp_path, "nash", "--config", LQ)
        assert rc == 0
        report = json.loads(_read(os.path.join(out, "nash_report.json")))
        r1, r2 = report["first_order_residuals"]
        assert r1 < 1e-9 and r2 < 1e-9
        for name in ("v1.csv", "v2.csv", "y.csv"):
            assert os.path.exists(os.path.join(out, name))


class TestLeader:
    def test_artifacts(self, tmp_path):
        rc, out = _run(tmp_path, "leader", "--config", LQ)
        assert rc == 0
        report = json.loads(_read(os.path.join(out, "leader_report.json")))
        assert report["terminal_norm"] <= report["free_terminal_norm"]
        assert report["duality_gap"] < 1e-9
        assert report["cg_iterations"] == len(report["cg_residuals"])
        assert report["ritz_min"] <= report["ritz_max"]
        assert report["eps_over_ritz_max"] == report["epsilon"] / report["ritz_max"]
        assert report["control_effect"] == (
            report["terminal_norm"] / report["free_terminal_norm"])
        assert report["terminal_residual"] <= 1.01 * 1e-8  # the scenario's cg_tol
        for name in ("u.csv", "y.csv", "state_norm.svg", "cg_residuals.svg",
                     "control_slices.svg"):
            assert os.path.exists(os.path.join(out, name)), name

    def test_epsilon_override(self, tmp_path):
        rc, out = _run(tmp_path, "leader", "--config", LQ, "--epsilon", "1e-4")
        assert rc == 0
        report = json.loads(_read(os.path.join(out, "leader_report.json")))
        assert report["epsilon"] == 1e-4


class TestWeights:
    def test_csv_header_and_report(self, tmp_path):
        rc, out = _run(tmp_path, "weights", "--config", LQ)
        assert rc == 0
        with open(os.path.join(out, "weights.csv"), "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
        assert header == "t,x,beta,nu,rho_hat"
        report = json.loads(_read(os.path.join(out, "weights_report.json")))
        assert report["lambda"] > 0.0
        assert report["mu"] == 2.0

    def test_lambda_override(self, tmp_path):
        rc, out = _run(tmp_path, "weights", "--config", LQ, "--lambda", "0.05")
        assert rc == 0
        report = json.loads(_read(os.path.join(out, "weights_report.json")))
        assert report["lambda"] == 0.05


class TestVerify:
    @pytest.mark.parametrize("suite", ["duality", "nash-oracle", "second-order"])
    def test_suites_pass(self, tmp_path, suite, capsys):
        rc, out = _run(tmp_path, "verify", "--config", LQ, "--suite", suite)
        assert rc == 0
        assert os.path.exists(os.path.join(out, f"verify_{suite}.json"))
        assert "pass" in capsys.readouterr().out

    def test_all_suites(self, tmp_path):
        rc, out = _run(tmp_path, "verify", "--config", LQ, "--suite", "all")
        assert rc == 0
        report = json.loads(_read(os.path.join(out, "verify_all.json")))
        assert report["passed"] is True
        assert set(report["reports"]) == {"duality", "nash-oracle", "second-order",
                                          "observability", "carleman"}

    def test_all_suites_solve_the_equilibrium_once(self, tmp_path, monkeypatch):
        # nash-oracle and second-order differentiate at one equilibrium,
        # solved at the scenario's nash_tol (1e-12 in heat_lq_16x32)
        import hiercontrol.nash
        import hiercontrol.verification

        orig = hiercontrol.nash.compute_nash
        tols = []

        def counted(problem, u=None, tol=1e-11, **kw):
            tols.append(tol)
            return orig(problem, u=u, tol=tol, **kw)

        monkeypatch.setattr(hiercontrol.nash, "compute_nash", counted)
        monkeypatch.setattr(hiercontrol.verification, "compute_nash", counted)
        rc, _ = _run(tmp_path, "verify", "--config", LQ, "--suite", "all")
        assert rc == 0
        assert tols == [1e-12]


class TestFailureModes:
    def test_missing_config(self, tmp_path, capsys):
        rc, _ = _run(tmp_path, "solve", "--config", os.path.join(tmp_path, "none.cfg"))
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_scenario(self, tmp_path, capsys):
        import yaml

        with open(LQ, "r", encoding="utf-8") as fh:
            tree = yaml.safe_load(fh)
        tree["weights"]["mu1"] = -3.0
        bad = os.path.join(tmp_path, "bad.cfg")
        with open(bad, "w", encoding="utf-8") as fh:
            yaml.safe_dump(tree, fh)
        rc, _ = _run(tmp_path, "solve", "--config", bad)
        assert rc == 2
        assert "mu1" in capsys.readouterr().err

    def test_parse_error_position(self, tmp_path, capsys):
        bad = os.path.join(tmp_path, "torn.cfg")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write("grid: {dim: 1,\n  cells: [unclosed\n")
        rc, _ = _run(tmp_path, "weights", "--config", bad)
        assert rc == 2
        assert "line" in capsys.readouterr().err
