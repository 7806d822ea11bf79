"""Tests for the round-off propagation model and its worst-case bounds."""

import math
import warnings

import numpy as np
import pytest
from mpmath import mp

from lagspec.errmodel import (
    DOUBLE_EPS,
    ErrorBoundInput,
    Regime,
    abs_error_bound,
    energy_bound,
    growth_factor,
    measure_actual_error,
    simulate_energy,
    simulate_error_propagation,
    zeta_envelopes,
)
from lagspec.oracle import _poly_series_mpf
from lagspec.recurrence import LagParams, eval_poly_modified, eval_poly_standard


def _inp(**kw):
    base = dict(n=10, alpha=0.0, x=0.1, eta=0.25, e1=1e-16, zeta_max=1e-16)
    base.update(kw)
    return ErrorBoundInput(**base)


class TestInputValidation:
    def test_eta_positive(self):
        with pytest.raises(ValueError):
            _inp(eta=0.0)

    @pytest.mark.parametrize("eta", [0.0, -0.25, math.nan])
    def test_eta_named_with_its_value(self, eta):
        # NaN fails "eta > 0" here, before the hypothesis could name it
        with pytest.raises(ValueError,
                           match=f"^eta must be positive, got {eta}$"):
            _inp(eta=eta)

    def test_hypothesis_guard(self):
        with pytest.raises(ValueError):
            _inp(alpha=2.0, x=1.0)  # 3 - alpha - x - eta <= 0

    @pytest.mark.parametrize("x", [-0.1, -5e-324, math.inf, math.nan])
    def test_x_finite_and_nonnegative(self, x):
        # the bounds' theorem holds for x >= 0 only
        with pytest.raises(ValueError, match=f"^x must be finite and >= 0, "
                           f"got {x}$"):
            _inp(x=x)

    @pytest.mark.parametrize("field", ["e1", "zeta_max"])
    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_errors_finite(self, field, v):
        with pytest.raises(ValueError, match=f"^{field} must be finite, "
                           f"got {v}$"):
            _inp(**{field: v})

    def test_n_at_least_one(self):
        with pytest.raises(ValueError):
            _inp(n=0)

    def test_regime_classification(self):
        assert _inp(alpha=0.0, x=0.1).regime is Regime.NONEXPANSIVE
        assert _inp(alpha=0.8, x=0.1).regime is Regime.EXPANSIVE

    def test_outside_both_regimes(self):
        # discriminant below -1.5 with negative alpha: no regime applies
        with pytest.raises(ValueError):
            _inp(alpha=-0.5, x=2.9, eta=0.5).regime


class TestEnvelopes:
    def test_zeta_positive_and_scales_with_eps(self):
        a = zeta_envelopes(0.0, 6, 0.3)
        assert np.all(a > 0)

    def test_zeta_explicit_small_case(self):
        series = eval_poly_standard(LagParams(0.0, 2), 0.5)
        got = zeta_envelopes(0.0, 3, 0.5)[1]  # step n = 2
        v = series
        expect = (2 + 0.5 / 3) * abs(v[2]) * DOUBLE_EPS + abs(v[1]) * DOUBLE_EPS
        assert got == pytest.approx(expect, rel=1e-12)

    def test_delta_envelope_smaller_at_small_x(self):
        # the difference form was built to shrink the per-step perturbation
        x = 0.05
        std = zeta_envelopes(0.0, 51, x)[49]  # step n = 50
        mod = zeta_envelopes(0.0, 51, x, mode="delta")[49]
        assert mod < std


class TestGrowthFactor:
    def test_explicit_small_value(self):
        # n = 1: Gamma ratio collapses to (2 + alpha) / (3 - alpha - x - eta)
        alpha, x, eta = 0.5, 0.2, 0.25
        expect = (2.0 + alpha) / (3.0 - alpha - x - eta)
        assert growth_factor(1, alpha, x, eta) == pytest.approx(expect, rel=1e-12)

    def test_monotone_in_n(self):
        vals = [growth_factor(n, 0.5, 0.2, 0.25) for n in (1, 5, 25, 100)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_large_n_finite(self):
        assert math.isfinite(growth_factor(10_000, 0.5, 0.2, 0.25))


class TestBounds:
    def test_nonexpansive_energy_formula(self):
        # the energy bound needs only the regime: x >= 1/4 and x = 0, where
        # abs_error_bound refuses, still get it
        for x in (0.1, 0.5, 0.0):
            inp = _inp(n=4, alpha=0.0, x=x)
            res = energy_bound(inp)
            e1sq = (x + 1.0) * inp.e1 ** 2
            expect = e1sq + 5.0 * 6.0 * 11.0 / (6.0 * 0.25) * inp.zeta_max ** 2
            assert res.regime is Regime.NONEXPANSIVE
            assert res.beta_n is None
            assert res.energy_bound == pytest.approx(expect, rel=1e-12), x

    def test_expansive_carries_growth_factor(self):
        res = energy_bound(_inp(alpha=0.8, x=0.1))
        assert res.regime is Regime.EXPANSIVE
        assert res.beta_n == pytest.approx(growth_factor(10, 0.8, 0.1, 0.25),
                                           rel=1e-12)

    def test_abs_bound_first_branch_guard(self):
        with pytest.raises(ValueError):
            abs_error_bound(_inp(alpha=0.0, x=0.3, eta=0.1))  # x >= 1/4

    def test_abs_bound_zero_x_rejected(self):
        with pytest.raises(ValueError):
            abs_error_bound(_inp(x=0.0))

    def test_bounds_grow_with_n(self):
        lo = abs_error_bound(_inp(n=5))
        hi = abs_error_bound(_inp(n=50))
        assert hi > lo


class TestSimulation:
    def test_deterministic_per_seed(self):
        a = simulate_error_propagation(0.0, 60, 0.2, rng_seed=7)
        b = simulate_error_propagation(0.0, 60, 0.2, rng_seed=7)
        c = simulate_error_propagation(0.0, 60, 0.2, rng_seed=8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_trajectory_shape_and_start(self):
        e = simulate_error_propagation(0.0, 30, 0.1)
        assert e.shape == (31,)
        assert e[0] == 0.0
        assert e[1] == abs(1.0 + 0.0 - 0.1) * DOUBLE_EPS

    def test_delta_mode_runs(self):
        e = simulate_error_propagation(0.0, 30, 0.1, mode="delta")
        assert np.all(np.isfinite(e))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            simulate_error_propagation(0.0, 30, 0.1, mode="bogus")

    def test_degree_below_one_rejected(self):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            simulate_error_propagation(0.0, 0, 0.1)

    def test_energy_identity(self):
        e = simulate_error_propagation(0.5, 20, 0.1)
        E = simulate_energy(0.5, 0.1, e)
        assert E.shape == (20,)
        n = 7
        expect = 0.1 * e[n] ** 2 + (n + 0.5) * (e[n] - e[n - 1]) ** 2
        assert E[n - 1] == pytest.approx(expect, rel=1e-12)

    def test_simulated_error_stays_under_bound(self):
        alpha, x, n_max = 0.0, 0.1, 200
        e = simulate_error_propagation(alpha, n_max, x, rng_seed=3)
        env = float(zeta_envelopes(alpha, n_max, x).max())
        for n in (10, 50, 199):
            bound = abs_error_bound(ErrorBoundInput(
                n=n, alpha=alpha, x=x, eta=0.25, e1=abs(e[1]), zeta_max=env))
            assert abs(e[n + 1]) <= bound


class TestMeasured:
    def test_small_degree_error_tiny(self):
        # entry n is degree n
        assert measure_actual_error(0.0, 6, 0.3)[4] < 1e-14

    def test_delta_mode_beats_standard_at_small_x(self):
        # averaged over a few degrees; the improvement is the module's point
        x, degrees = 0.01, [80, 90, 100]
        std = np.mean(measure_actual_error(0.0, 101, x)[degrees])
        mod = np.mean(measure_actual_error(0.0, 101, x, mode="delta")[degrees])
        assert mod < std

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            measure_actual_error(0.0, 5, 0.3, mode="bogus")

    @pytest.mark.parametrize("alpha, x", [(math.inf, 0.3), (0.0, math.inf)])
    def test_infinite_input_rejected(self, alpha, x):
        # the oracle's int series has no infinity to carry it through; the
        # double series before it only overflows
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match="must be finite"):
            measure_actual_error(alpha, 5, x)

    def test_infinite_alpha_rejected_before_any_series(self):
        # LagParams names alpha before the double series can overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="alpha must be finite"):
                measure_actual_error(math.inf, 3, 0.1)

    @pytest.mark.parametrize("mode", ["standard", "delta"])
    @pytest.mark.parametrize("x", [0.05, 0.2])
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_series_entry_equals_single_degree(self, alpha, x, mode):
        # slicing one series of degree 100 gives, bitwise, the error of
        # a degree-n double series against a degree-n 24-digit series
        errs = measure_actual_error(alpha, 100, x, mode)
        assert errs.shape == (101,)
        evaluate = (eval_poly_standard if mode == "standard"
                    else eval_poly_modified)
        with mp.workdps(24):
            for n in (0, 1, 7, 100):
                val = evaluate(LagParams(alpha=alpha, n=n), x)[n]
                ref = _poly_series_mpf(mp.mpf(alpha), n, mp.mpf(x))[n]
                expect = float(abs(mp.mpf(float(val)) - ref))
                assert errs[n] == expect
