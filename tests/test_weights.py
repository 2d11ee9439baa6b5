"""Weight family: profile construction, closed-form anchors, monotonicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiercontrol.errors import EtaConstructionError, WeightDomainError
from hiercontrol.grids import build_grid, build_time_grid
from hiercontrol.weights import (
    SAMPLED,
    build_eta,
    build_weights,
    eval_terminal_weights,
    eval_weights,
    lambda_auto,
)

# the weight fields CarlemanWeights samples on the time grid
FIELDS = ("beta", "nu", "rho_hat", "rho_hat_inv2", "rho_tilde_inv2", "energy_grad", "energy_zero")


@pytest.fixture
def w_unit():
    g = build_grid(1, 16)
    tg = build_time_grid(1.0, 32)
    return build_weights(g, tg, (0.4, 0.6), mu=1.0)


class TestEta:
    def test_symmetric_focus_is_parabola(self):
        # centred focus forces tilt c = 0, so eta = x(1-x)/max = 4x(1-x)
        g = build_grid(1, 16)
        eta = build_eta(g, (0.4, 0.6))
        x = g.nodes[:, 0]
        assert np.allclose(eta.values, 4.0 * x * (1.0 - x), atol=1e-14)

    def test_off_centre_focus_moves_the_peak(self):
        g = build_grid(1, 128)
        eta = build_eta(g, (0.55, 0.8))
        xm = g.nodes[int(np.argmax(eta.values)), 0]
        assert 0.55 < xm < 0.8
        assert eta.values.max() == pytest.approx(1.0, abs=1e-3)

    def test_vanishes_on_boundary(self):
        g = build_grid(2, 10)
        eta = build_eta(g, [[0.4, 0.6], [0.4, 0.6]])
        assert np.all(eta.values[g.boundary] == 0.0)
        assert np.all(eta.values[~g.boundary] > 0.0)

    def test_degenerate_focus_rejected(self):
        g = build_grid(1, 16)
        with pytest.raises(EtaConstructionError):
            build_eta(g, (0.0, 0.5))


class TestClosedForms:
    def test_nu_at_eta_peak(self, w_unit):
        # node 8 sits at x = 1/2 where eta = 1; theta(1/2) = 1/4
        vals = eval_weights(w_unit, 0.5)
        expected = 4.0 * (math.e - math.e**2)
        assert vals["nu"][8] == pytest.approx(expected, rel=1e-13)

    def test_beta_at_midtime(self, w_unit):
        vals = eval_weights(w_unit, 0.5)
        expected = 4.0 * np.exp(w_unit.mu * w_unit.eta)
        np.testing.assert_allclose(vals["beta"], expected, rtol=1e-12)

    def test_beta0_is_one_over_theta(self, w_unit):
        # beta0 = 1 / theta is beta on the boundary, where eta = 0
        t = 0.3
        vals = eval_weights(w_unit, t)
        assert vals["beta"][0] == pytest.approx(1.0 / (t * (1.0 - t)), rel=1e-13)

    def test_nu_strictly_negative(self, w_unit):
        for t in (0.05, 0.5, 0.95):
            vals = eval_weights(w_unit, t)
            assert np.all(vals["nu"] < 0.0)

    def test_lambda_auto_frozen_value(self):
        # balance rule at mu = 2, eta_max = 1, T = 1
        assert lambda_auto(2.0, 1.0, 1.0) == pytest.approx(0.06276349150248234, rel=1e-14)


class TestTerminalFamily:
    def test_l_continuous_at_midtime(self, w_unit):
        below = eval_terminal_weights(w_unit, 0.5)
        above = eval_terminal_weights(w_unit, 0.5 + 1e-9)
        assert below["l"] == pytest.approx(0.25, abs=1e-15)
        assert above["l"] == pytest.approx(0.25, abs=1e-8)

    def test_l_flat_then_decaying(self, w_unit):
        assert eval_terminal_weights(w_unit, 0.0)["l"] == 0.25
        assert eval_terminal_weights(w_unit, 0.25)["l"] == 0.25
        assert eval_terminal_weights(w_unit, 0.75)["l"] == pytest.approx(0.1875)

    def test_log_rho_hat_nondecreasing_and_positive(self, w_unit):
        logs = [
            eval_terminal_weights(w_unit, float(t))["log_rho_hat"]
            for t in w_unit.tgrid.times[:-1]
        ]
        assert all(v > 0.0 for v in logs)
        assert all(b >= a - 1e-15 for a, b in zip(logs, logs[1:]))

    def test_rho_hat_finite_up_to_the_overflow_point(self):
        # lambda puts the last interior slice's log rho_hat at 709.4, above
        # 709 but below log(DBL_MAX) = 709.78, where exp is still finite
        g = build_grid(1, 16)
        tg = build_time_grid(1.0, 64)
        t = float(tg.times[-2])
        unit = build_weights(g, tg, (0.4, 0.6), mu=1.0, lam=1.0)
        lam = 709.4 / eval_terminal_weights(unit, t)["log_rho_hat"]
        w = build_weights(g, tg, (0.4, 0.6), mu=1.0, lam=lam)
        tw = eval_terminal_weights(w, t)
        assert 709.0 <= tw["log_rho_hat"] < math.log(np.finfo(float).max)
        assert math.isfinite(tw["rho_hat"])
        assert tw["rho_hat"] == math.exp(tw["log_rho_hat"])
        assert w.rho_hat[-2] == tw["rho_hat"]

    def test_rho_hat_overflow_reports_inf(self):
        g = build_grid(1, 16)
        tg = build_time_grid(1.0, 64)
        w = build_weights(g, tg, (0.4, 0.6), mu=1.0, lam=500.0)
        tw = eval_terminal_weights(w, float(tg.times[-2]))
        assert tw["rho_hat"] == math.inf
        assert math.isfinite(tw["log_rho_hat"])


class TestObservationWeight:
    def test_auto_lambda_peaks_at_one(self):
        g = build_grid(1, 16)
        tg = build_time_grid(1.0, 32)
        w = build_weights(g, tg, (0.4, 0.6), mu=2.0)
        traj = w.rho_tilde_inv2
        # peak sits at the eta maximum (node 8) at t = T/2 (slice 16)
        assert traj.max() == pytest.approx(1.0, rel=1e-12)
        assert traj[16, 8] == pytest.approx(1.0, rel=1e-12)

    def test_endpoint_rows_zero(self, w_unit):
        traj = w_unit.rho_tilde_inv2
        assert traj.shape == (w_unit.tgrid.n_slices, w_unit.grid.n_nodes)
        assert np.all(traj[0] == 0.0)
        assert np.all(traj[-1] == 0.0)
        assert np.all(traj[1:-1] > 0.0)
        # one endpoint rule for every sampled field; rho_hat is one value per slice
        for name in FIELDS:
            field = getattr(w_unit, name)
            per_node = name not in ("rho_hat", "rho_hat_inv2")
            assert field.shape == traj.shape[: 1 + per_node], name
            assert np.all(field[0] == 0.0) and np.all(field[-1] == 0.0), name
            assert np.all(field[SAMPLED] != 0.0), name

    def test_domain_errors(self, w_unit):
        with pytest.raises(WeightDomainError):
            eval_weights(w_unit, 0.0)
        with pytest.raises(WeightDomainError):
            eval_weights(w_unit, 1.0)
        with pytest.raises(WeightDomainError):
            eval_weights(w_unit, w_unit.tgrid.times)  # an array holding 0 and T
        with pytest.raises(WeightDomainError):
            eval_terminal_weights(w_unit, -0.1)
        with pytest.raises(WeightDomainError):
            eval_terminal_weights(w_unit, 1.0)

    def test_parameter_validation(self):
        g = build_grid(1, 16)
        tg = build_time_grid(1.0, 32)
        with pytest.raises(WeightDomainError):
            build_weights(g, tg, (0.4, 0.6), mu=-1.0)
        with pytest.raises(WeightDomainError):
            build_weights(g, tg, (0.4, 0.6), mu=1.0, lam=0.0)
        for bad in ({"mu": math.nan}, {"mu": math.inf}, {"lam": math.nan}, {"lam": math.inf}):
            with pytest.raises(WeightDomainError, match="finite"):
                build_weights(g, tg, (0.4, 0.6), **{"mu": 1.0, "lam": 0.1, **bad})

    def test_lambda_auto_overflow_rejected(self):
        # exp(2 mu eta_max) overflows a double from mu of about 354
        g, tg = build_grid(1, 16), build_time_grid(1.0, 32)
        with pytest.raises(WeightDomainError, match="mu=1000"):
            build_weights(g, tg, (0.4, 0.6), mu=1000.0)
        with pytest.raises(WeightDomainError, match="eta_max=1.0"):
            lambda_auto(360.0, 1.0, 1.0)
        assert lambda_auto(350.0, 1.0, 1.0) > 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        mu=st.floats(min_value=0.2, max_value=3.0),
        T=st.floats(min_value=0.25, max_value=3.0),
    )
    def test_balance_rule_property(self, mu, T):
        # the auto lambda makes the peak observation weight exactly one,
        # independent of mu and T
        lam = lambda_auto(mu, 1.0, T)
        beta_c = 4.0 * math.exp(mu) / (T * T)
        nu_c = (math.exp(mu) - math.exp(2.0 * mu)) * 4.0 / (T * T)
        assert math.exp(2.0 * lam * nu_c + 7.0 * math.log(beta_c)) == pytest.approx(
            1.0, rel=1e-10
        )



def _weights_2d():
    g = build_grid(2, 12)
    tg = build_time_grid(1.0, 24)
    return build_weights(g, tg, [[0.4, 0.6], [0.4, 0.6]], mu=2.0)


class TestSampledFields:
    """The weight fields on the time grid, sampled once per weight family."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_each_interior_row_is_the_per_time_formula(self, w_unit, dim):
        # bit for bit, slice by slice
        w = w_unit if dim == 1 else _weights_2d()
        lam, mu = w.lam, w.mu
        for m in range(1, w.tgrid.steps):
            t = float(w.tgrid.times[m])
            ev, tw = eval_weights(w, t), eval_terminal_weights(w, t)
            base, log_beta = 2.0 * lam * ev["nu"], np.log(ev["beta"])
            expected = {
                "beta": ev["beta"],
                "nu": ev["nu"],
                "rho_hat": tw["rho_hat"],
                "rho_hat_inv2": np.exp(-2.0 * tw["log_rho_hat"]),
                "rho_tilde_inv2": np.exp(base + 7.0 * log_beta),
                "energy_grad": np.exp(base + np.log(lam * mu**2) + log_beta),
                "energy_zero": np.exp(base + np.log(lam**3 * mu**4) + 3.0 * log_beta),
            }
            for name, value in expected.items():
                row = getattr(w, name)[m]
                assert row.tobytes() == np.asarray(value, dtype=float).tobytes(), (name, m)

    def test_cached_and_read_only(self, w_unit):
        for name in FIELDS:
            field = getattr(w_unit, name)
            assert getattr(w_unit, name) is field, name
            assert not field.flags.writeable, name
            with pytest.raises(ValueError):
                field[1] = 0.0

    def test_each_formula_runs_once(self, w_unit, monkeypatch):
        from hiercontrol import weights

        calls = []
        for fname in ("eval_weights", "eval_terminal_weights"):
            def spy(*args, _orig=getattr(weights, fname), _name=fname):
                calls.append(_name)
                return _orig(*args)

            monkeypatch.setattr(weights, fname, spy)
        for name in FIELDS:
            getattr(w_unit, name)
        assert sorted(calls) == ["eval_terminal_weights", "eval_weights"]
