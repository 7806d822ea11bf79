"""Tests for the extended-precision reference layer."""

import math

import numpy as np
import pytest
from mpmath import mp
from scipy.special import eval_genlaguerre, roots_laguerre

from lagspec import oracle
from lagspec.oracle import (
    HpContext,
    _poly_series_mpf,
    hp_eval,
    hp_gauss_nodes_mpf,
)
from lagspec.quadrature import nodes_eigen_seed


def _mpf_operator_series(alpha, n: int, x):
    """The three-term recurrence on mpf operators: the bitwise reference
    for ``_poly_series_mpf``."""
    values = [mp.mpf(1)]
    if n >= 1:
        values.append(alpha + 1 - x)
    for k in range(1, n):
        values.append(((2 * k + alpha + 1 - x) * values[k]
                       - (k + alpha) * values[k - 1]) / (k + 1))
    return values


class TestContext:
    def test_digit_bounds(self):
        with pytest.raises(ValueError):
            HpContext(digits=16)
        with pytest.raises(ValueError):
            HpContext(digits=100)
        assert HpContext(digits=40).digits == 40

    @pytest.mark.parametrize("digits", [30.5, "30", None])
    def test_digits_must_be_an_integer(self, digits):
        with pytest.raises(ValueError, match="digits"):
            HpContext(digits=digits)

    def test_numpy_integer_digits_accepted(self):
        assert HpContext(digits=np.int64(30)).digits == 30


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


def _mpf_operator_nodes(ctx, alpha, N: int):
    """``hp_gauss_nodes_mpf``'s Newton iteration on mpf operators, with the
    derivative as ``-sum`` of the series: its bitwise reference."""
    with mp.workdps(ctx.digits + 10):
        a, tol = mp.mpf(alpha), mp.mpf(10) ** (2 - ctx.digits)
        out = []
        for seed in nodes_eigen_seed(float(alpha), N):
            x = mp.mpf(float(seed))
            for _ in range(60):
                vals = _mpf_operator_series(a, N + 1, x)
                step = vals[N + 1] / -sum(vals[:N + 1])
                x = x - step
                if abs(step) <= tol * x:
                    break
            out.append(x)
        return out


class TestBitwiseSeries:
    """The int-mantissa series equals the mpf-operator one, tuple for
    tuple."""

    ALPHAS = [0.0, 0.5, 0.7015463661686019, 1e-9, 3.3, -0.5]
    DEGREES = [0, 1, 2, 255]
    XS = [0.0, 1e-300, 0.1, 7.5, 900.0]

    @staticmethod
    def _wide(num, den):
        # an mpf carrying more bits than any working precision below
        with mp.workdps(80):
            return mp.mpf(num) / den

    def _check(self, alpha, n, digits):
        with mp.workdps(digits):
            a = mp.mpf(alpha)
            for x in [mp.mpf(v) for v in self.XS] + [self._wide(10, 3)]:
                got = _poly_series_mpf(a, n, x)
                ref = _mpf_operator_series(a, n, x)
                assert [v._mpf_ for v in got] == [v._mpf_ for v in ref], (
                    alpha, n, digits, x)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("n", DEGREES)
    def test_matches_mpf_operators(self, alpha, n):
        # 24, 30 and 64 digits, then 24 again, in one process: a factor
        # table cached at one precision must not serve the other
        oracle._step_factors.cache_clear()
        for digits in (24, 30, 64, 24):
            self._check(alpha, n, digits)

    @pytest.mark.parametrize("prec", [4, 5, 8, 13, 53])
    def test_matches_mpf_operators_at_low_precision(self, prec):
        # at a few bits, half-way ties and carries to 2**prec are common;
        # the inputs carry 53 bits, so the factors round as well
        rng = np.random.default_rng(prec)
        with mp.workprec(53):
            alphas = [mp.mpf(float(v)) for v in rng.uniform(-0.99, 4.0, 20)]
            dyadic = [mp.mpf(int(m)) / 2 ** int(j) for m, j in zip(
                rng.integers(1, 2000, 40), rng.integers(0, 8, 40))]
        with mp.workprec(prec):
            for i, a in enumerate(alphas):
                for x in dyadic[2 * i:2 * i + 2] + [a + 1]:
                    got = [v._mpf_ for v in _poly_series_mpf(a, 40, x)]
                    ref = [v._mpf_ for v in _mpf_operator_series(a, 40, x)]
                    assert got == ref, (prec, a, x)
                # x = alpha + 1 at this precision makes L_1 exactly 0
                assert got[1] == ref[1] == (0, 0, 0, 0)

    @pytest.mark.parametrize("prec", [4, 5, 8, 13, 53, 113])
    def test_newton_sum_matches_mpf_sum(self, prec):
        # the Newton derivative's sum: a node hardly feels its last bits,
        # so it is compared with mpf's sum directly, over series whose
        # terms change sign and span many binades
        rng = np.random.default_rng(prec)
        with mp.workprec(prec):
            for a, x in zip(rng.uniform(-0.99, 4.0, 12),
                            rng.uniform(0.0, 60.0, 12)):
                vals = _mpf_operator_series(mp.mpf(a), 40, mp.mpf(x))
                got = oracle._sum([oracle._pair(v) for v in vals], prec)
                assert oracle._mpf(got)._mpf_ == sum(vals)._mpf_, (a, x)

    @pytest.mark.parametrize("digits", [24, 64])
    def test_wide_inputs_are_not_rounded_first(self, digits):
        # with alpha wider than mp.prec, 2*k + alpha rounds, so the
        # factor 2k+alpha+1 shows whether it was rounded once or twice
        with mp.workdps(digits):
            a, x = self._wide(10, 7), self._wide(10, 3)
            got = [v._mpf_ for v in _poly_series_mpf(a, 255, x)]
            ref = [v._mpf_ for v in _mpf_operator_series(a, 255, x)]
            assert got == ref
            # unary plus rounds to mp.prec: the extra bits do matter
            for ra, rx in ((+a, x), (a, +x)):
                assert got != [v._mpf_
                               for v in _mpf_operator_series(ra, 255, rx)]


class TestInputs:
    @pytest.mark.parametrize("alpha, n, x, name", [
        (0.0, -1, 2.0, "n"),
        (0.0, -2, 2.0, "n"),
        (0.0, 2.5, 2.0, "n"),
        (0.0, 3, float("nan"), "x"),
        (0.0, 3, float("inf"), "x"),
        (0.0, 3, float("-inf"), "x"),
        (float("nan"), 3, 2.0, "alpha"),
        (float("inf"), 3, 2.0, "alpha"),
        (-1.0, 3, 2.0, "alpha"),
        (-2.5, 3, 2.0, "alpha"),
    ])
    def test_hp_eval_rejects(self, hp_ctx, alpha, n, x, name):
        with pytest.raises(ValueError, match=rf"^{name} must"):
            hp_eval(hp_ctx, alpha, n, x)

    def test_series_rejects_negative_degree(self, hp_ctx):
        with mp.workdps(hp_ctx.digits):
            with pytest.raises(ValueError, match="n must"):
                _poly_series_mpf(mp.mpf(0), -1, mp.mpf(2))

    def test_integer_types_accepted(self, hp_ctx):
        assert hp_eval(hp_ctx, 0.0, np.int64(5), 0.1) == hp_eval(
            hp_ctx, 0.0, 5, 0.1)


class TestNodes:
    @pytest.mark.parametrize("alpha, N", [(0.0, 15), (0.5, 40), (0.0, 64)])
    def test_matches_mpf_operators(self, hp_ctx, alpha, N):
        got = hp_gauss_nodes_mpf(hp_ctx, alpha, N)
        ref = _mpf_operator_nodes(hp_ctx, alpha, N)
        assert [v._mpf_ for v in got] == [v._mpf_ for v in ref]

    def test_small_rule_matches_scipy(self, hp_ctx):
        got = np.array([float(v) for v in hp_gauss_nodes_mpf(hp_ctx, 0.0, 11)])
        ref, _ = roots_laguerre(12)
        np.testing.assert_allclose(got, ref, rtol=5e-15)
