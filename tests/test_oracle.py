"""Tests for the extended-precision reference layer."""

import math

import numpy as np
import pytest
from mpmath import mp
from scipy.special import eval_genlaguerre, roots_laguerre

from lagspec.oracle import (
    HpContext,
    _poly_series_mpf,
    hp_eval,
    hp_gauss_nodes_mpf,
)


class TestContext:
    def test_digit_bounds(self):
        with pytest.raises(ValueError):
            HpContext(digits=16)
        with pytest.raises(ValueError):
            HpContext(digits=100)
        assert HpContext(digits=40).digits == 40


class TestValues:
    def test_poly_matches_scipy(self, hp_ctx):
        got = float(hp_eval(hp_ctx, 0.5, 12, 3.25)[0])
        assert got == pytest.approx(eval_genlaguerre(12, 0.5, 3.25), rel=1e-12)

    def test_fun_is_weighted_poly(self, hp_ctx):
        x = 7.5
        p, f = map(float, hp_eval(hp_ctx, 0.0, 9, x))
        assert f == pytest.approx(p * math.exp(-x / 2.0), rel=1e-12)

    def test_series_consistent_with_single_values(self, hp_ctx):
        with mp.workdps(hp_ctx.digits):
            series = _poly_series_mpf(mp.mpf(1.0), 6, mp.mpf(2.0))
        assert len(series) == 7
        assert float(series[6]) == pytest.approx(
            float(hp_eval(hp_ctx, 1.0, 6, 2.0)[0]), rel=1e-20)

    def test_float_inputs_taken_bit_exactly(self, hp_ctx):
        # 0.1 the double, not the decimal: both entry points must agree
        a = hp_eval(hp_ctx, 0.0, 5, 0.1)
        b = hp_eval(hp_ctx, 0.0, 5, float(np.float64(0.1)))
        assert a == b


class TestNodes:
    def test_small_rule_matches_scipy(self, hp_ctx):
        got = np.array([float(v) for v in hp_gauss_nodes_mpf(hp_ctx, 0.0, 11)])
        ref, _ = roots_laguerre(12)
        np.testing.assert_allclose(got, ref, rtol=5e-15)
