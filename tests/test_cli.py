"""Command-line interface: exit codes, artifacts, determinism."""

import ast
import dataclasses
import json
import os

import numpy as np
import pytest

from conftest import scenario_path
from hiercontrol import cli
from hiercontrol.cli import build_parser, main
from hiercontrol.fixedpoint import FixedPointReport
from hiercontrol.leader import LeaderSolution
from hiercontrol.nash import NashSolution
from hiercontrol.verification import NashOracleReport, ProbeReport, SecondOrderReport

LQ = scenario_path("heat_lq_16x32")
ADVECTION = scenario_path("advection_lq_16x32")


def _run(tmp_path, *argv):
    out = os.path.join(tmp_path, "out")
    os.makedirs(out, exist_ok=True)
    rc = main([*argv, "--out", out])
    return rc, out


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


# field annotations of the trajectories, which go to CSV and not into reports
TRAJECTORY_TYPES = ("SpaceTimeField", "np.ndarray")

# the result each verify suite reports
SUITE_RESULTS = {"duality": ProbeReport, "nash-oracle": NashOracleReport,
                 "second-order": SecondOrderReport, "observability": ProbeReport,
                 "carleman": ProbeReport}

# the top-level keys of a verify report, around its suites' results
VERIFY_KEYS = {"scenario", "suite", "reports", "passed"}


def _fields(cls, trajectories=False):
    """Names of the reported (or, with ``trajectories``, the left-out) fields of cls."""
    return {f.name for f in dataclasses.fields(cls) if (f.type in TRAJECTORY_TYPES) == trajectories}


def _keys(tree):
    """Every key of a JSON tree, at any depth."""
    if isinstance(tree, dict):
        return set(tree).union(*map(_keys, tree.values()))
    if isinstance(tree, list):
        return set().union(*map(_keys, tree))
    return set()


class TestReportRule:
    def test_reports_are_their_results(self, tmp_path):
        reports = {}
        for cmd in ("solve", "leader", "nash"):
            rc, out = _run(os.path.join(tmp_path, cmd), cmd, "--config", LQ)
            assert rc == 0
            reports[cmd] = json.loads(_read(os.path.join(out, f"{cmd}_report.json")))
        assert set(reports["leader"]) == _fields(LeaderSolution) | {
            "scenario", "lambda", "mu", "duality_gap"}
        assert set(reports["nash"]) == _fields(NashSolution) | {"scenario"}
        solve = reports["solve"]
        assert set(solve) == _fields(FixedPointReport) | {"scenario"}
        assert set(solve["leader"]) == _fields(LeaderSolution)
        assert set(solve["nash"]) == _fields(NashSolution)
        # the blocks are the results themselves: the terminal norm is reported
        lead = solve["leader"]
        assert lead["control_effect"] == lead["terminal_norm"] / lead["free_terminal_norm"]
        left_out = set().union(*(_fields(cls, trajectories=True)
                                 for cls in (FixedPointReport, LeaderSolution, NashSolution)))
        assert left_out >= {"u", "y", "p1", "p2", "v1", "v2", "phi_T"}
        for cmd, report in reports.items():
            assert not _keys(report) & left_out, cmd

    def test_verify_blocks_are_their_results(self, tmp_path):
        rc, out = _run(tmp_path, "verify", "--config", LQ, "--suite", "all")
        assert rc == 0
        report = json.loads(_read(os.path.join(out, "verify_all.json")))
        assert set(report) == VERIFY_KEYS
        assert set(report["reports"]) == set(SUITE_RESULTS)
        for suite, block in report["reports"].items():
            assert set(block) == _fields(SUITE_RESULTS[suite]), suite
            assert block["name"] == suite

    def test_cli_copies_no_reported_field(self):
        # a quantity added to a result reaches every report through the
        # report rule, so the CLI spells no reported field out by hand; the
        # verify report's own top-level keys wrap its suites' results
        reported = set().union(*map(_fields, (FixedPointReport, LeaderSolution, NashSolution,
                                              *SUITE_RESULTS.values())))
        with open(cli.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        dicts = [{key.value for key in node.keys if isinstance(key, ast.Constant)}
                 for node in ast.walk(tree) if isinstance(node, ast.Dict)]
        assert VERIFY_KEYS in dicts
        named = set().union(*(keys for keys in dicts if keys != VERIFY_KEYS))
        assert not named & reported


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

    def test_all_suites_march_the_uncontrolled_state_once(self, tmp_path, monkeypatch):
        # the duality check linearizes at the march the two probes share;
        # verification takes that state from its caller and marches none
        import hiercontrol.solvers
        import hiercontrol.verification

        assert not hasattr(hiercontrol.verification, "solve_forward_quasilinear")
        calls = []
        orig = hiercontrol.solvers.solve_forward_quasilinear

        def counted(*args, **kw):
            calls.append(args)
            return orig(*args, **kw)

        monkeypatch.setattr(hiercontrol.solvers, "solve_forward_quasilinear", counted)
        rc, _ = _run(tmp_path, "verify", "--config", LQ, "--suite", "all")
        assert rc == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("suite,budget", [("nash-oracle", "NASH_ORACLE_BUDGET"),
                                              ("second-order", "SECOND_ORDER_BUDGET")])
    def test_budget_violation_exits_4(self, tmp_path, monkeypatch, capsys, suite, budget):
        # each check reads its own budget constant when it decides `passed`
        import hiercontrol.verification

        monkeypatch.setattr(hiercontrol.verification, budget, 0.0)
        rc, out = _run(tmp_path, "verify", "--config", LQ, "--suite", suite)
        assert rc == 4
        report = json.loads(_read(os.path.join(out, f"verify_{suite}.json")))
        assert report["passed"] is False
        assert report["reports"][suite]["passed"] is False
        assert report["reports"][suite]["budget"] == 0.0
        assert f"verify[{suite}]: FAIL" in capsys.readouterr().out

    def test_carleman_probe_samples_the_full_roster(self, tmp_path):
        # the probe's backward equation carries the scenario's lower-order
        # terms: it is the adjoint of the state side linearize_at freezes
        from hiercontrol.fixedpoint import linearize_at
        from hiercontrol.scenario import load_scenario
        from hiercontrol.solvers import solve_forward_quasilinear
        from hiercontrol.verification import probe_carleman

        s = load_scenario(ADVECTION)
        problem = s.build_problem()
        z0 = solve_forward_quasilinear(problem.nl, problem.grid, problem.tgrid, problem.y0)
        w = s.build_carleman_weights(problem)
        ctx = linearize_at(problem, z0, weights=w)
        assert np.abs(ctx.c.f0).max() > 0.0 and np.abs(ctx.c.f_adv).max() > 0.0
        expected = probe_carleman(ctx, samples=8, seed=s.seed)
        rc, out = _run(tmp_path, "verify", "--config", ADVECTION, "--suite", "carleman")
        assert rc == 0
        report = json.loads(_read(os.path.join(out, "verify_carleman.json")))["reports"]["carleman"]
        assert report["ratios"] == list(expected.ratios)
        assert report["worst_ratio"] == expected.worst_ratio


class TestZeroData:
    @pytest.mark.parametrize("cmd,report", [("solve", "solve_report.json"),
                                            ("leader", "leader_report.json")])
    def test_zero_data_runs_and_writes_every_artifact(self, tmp_path, cmd, report):
        # a log-scale chart of zero norms has nothing to draw: it is written
        # as an empty frame instead of failing the run
        import yaml

        with open(LQ, "r", encoding="utf-8") as fh:
            tree = yaml.safe_load(fh)
        for key in ("y0", "y1_target", "y2_target"):
            tree["data"][key] = {"profile": "zero"}
        zero = os.path.join(tmp_path, "zero.cfg")
        with open(zero, "w", encoding="utf-8") as fh:
            yaml.safe_dump(tree, fh)
        rc, out = _run(os.path.join(tmp_path, "zero"), cmd, "--config", zero)
        rc_ref, out_ref = _run(os.path.join(tmp_path, "ref"), cmd, "--config", LQ)
        assert rc == 0 and rc_ref == 0
        assert sorted(os.listdir(out)) == sorted(os.listdir(out_ref))
        assert json.loads(_read(os.path.join(out, report)))["terminal_norm"] == 0.0


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

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_max_outer_override_below_one(self, tmp_path, capsys, cap):
        # the override is checked as the scenario file's tolerances.max_outer
        rc, _ = _run(tmp_path, "solve", "--config", LQ, "--max-outer", cap)
        assert rc == 2
        assert "max_outer" in capsys.readouterr().err

    @pytest.mark.parametrize("command,option,value,key", [
        ("leader", "--epsilon", "nan", "weights.epsilon"),
        ("leader", "--epsilon", "inf", "weights.epsilon"),
        ("solve", "--epsilon", "nan", "weights.epsilon"),
        ("leader", "--cg-tol", "nan", "tolerances.cg_tol"),
        ("leader", "--cg-max", "0", "tolerances.cg_max"),
        ("weights", "--mu", "nan", "weights.mu"),
        ("weights", "--lambda", "nan", "weights.lambda"),
        ("leader", "--lambda", "inf", "weights.lambda"),
    ])
    def test_bad_override_names_its_key(self, tmp_path, capsys, command, option, value, key):
        # an override is validated by the reader of the scenario key it replaces
        rc, _ = _run(tmp_path, command, "--config", LQ, option, value)
        assert rc == 2
        assert key in capsys.readouterr().err

    def test_parse_error_position(self, tmp_path, capsys):
        bad = os.path.join(tmp_path, "torn.cfg")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write("grid: {dim: 1,\n  cells: [unclosed\n")
        rc, _ = _run(tmp_path, "weights", "--config", bad)
        assert rc == 2
        assert "line" in capsys.readouterr().err
