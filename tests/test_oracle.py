"""Tests for the extended-precision reference layer."""

import math

import numpy as np
import pytest
from mpmath import mp
from mpmath.libmp import from_rational, round_nearest
from scipy.special import eval_genlaguerre, roots_laguerre

from lagspec import oracle
from lagspec.oracle import (
    HpContext,
    _poly_series_mpf,
    hp_eval,
    hp_gauss_nodes_mpf,
)


def _exact_series(alpha, n: int, x):
    """``_series``'s values ``L_0 .. L_n`` and sum ``L_0 + ... + L_{n-1}``,
    each the exact rational rounded once to ``mp.prec`` bits, to nearest,
    as ``(m, e)`` pairs: their reference.

    For alpha = A / 2**s and x = X / 2**s, T_k = k! 2**(s k) L_k(x) is an
    integer: T_0 = 1, T_1 = 2**s + A - X and
    T_{k+1} = ((2k+1) 2**s + A - X) T_k - k (k 2**s + A) 2**s T_{k-1}.
    ``from_rational`` divides by k! alone: the power of two is taken out
    of the numerator first, which it would strip eight bits at a time
    (seconds at x = 1e-300), and out of the denominator altogether.
    """
    (am, ae), (xm, xe) = oracle._pair(alpha), oracle._pair(x)
    s = max(0, -ae, -xe)
    d, a, xx = 1 << s, am << (ae + s), xm << (xe + s)

    def rounded(p, f, k):  # p / (f 2**(s k))
        if not p:
            return 0, 0
        v = (p & -p).bit_length() - 1
        sign, man, exp, _ = from_rational(p >> v, f, mp.prec, round_nearest)
        return (-man if sign else man), exp + v - s * k

    vals, total = [], (0, 0)
    prev, t, f, num = 0, 1, 1, 0
    for k in range(n + 1):
        vals.append(rounded(t, f, k))
        num = num * k * d + t  # k! 2**(s k) (L_0 + ... + L_k)
        if k == n - 1:
            total = rounded(num, f, k)
        prev, t = t, (((2 * k + 1) * d + a - xx) * t
                      - k * (k * d + a) * d * prev)
        f *= k + 1
    return vals, total


def _rounded(pairs):
    return [oracle._mpf(v)._mpf_ for v in pairs]


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


class TestBitwiseSeries:
    """Every value and sum of the guard-bit series is the exact one,
    correctly rounded: tuple for tuple against ``_exact_series``."""

    ALPHAS = [0.0, 0.5, 0.7015463661686019, 1e-9, 3.3, -0.5]
    DEGREES = [0, 1, 2, 255]
    XS = [0.0, 1e-300, 0.1, 7.5, 900.0]

    @staticmethod
    def _wide(num, den):
        # an mpf carrying more bits than any working precision below
        with mp.workdps(80):
            return mp.mpf(num) / den

    @staticmethod
    def _same(alpha, n, x):
        got, got_sum = oracle._series(alpha, n, x)
        ref, ref_sum = _exact_series(alpha, n, x)
        return _rounded(got + [got_sum]) == _rounded(ref + [ref_sum])

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("n", DEGREES)
    def test_matches_mpf_operators(self, alpha, n):
        for digits in (24, 30, 64):
            with mp.workdps(digits):
                a = mp.mpf(alpha)
                for x in [mp.mpf(v) for v in self.XS] + [self._wide(10, 3)]:
                    assert self._same(a, n, x), (alpha, n, digits, x)

    @pytest.mark.parametrize("prec", [4, 5, 8, 13, 53])
    def test_matches_mpf_operators_at_low_precision(self, prec):
        # at a few bits, values near half-way are common; the inputs carry
        # 53 bits, more than the precision
        rng = np.random.default_rng(prec)
        with mp.workprec(53):
            alphas = [mp.mpf(float(v)) for v in rng.uniform(-0.99, 4.0, 20)]
            dyadic = [mp.mpf(int(m)) / 2 ** int(j) for m, j in zip(
                rng.integers(1, 2000, 40), rng.integers(0, 8, 40))]
        with mp.workprec(60):
            ones = [a + 1 for a in alphas]  # exact
        with mp.workprec(prec):
            for i, a in enumerate(alphas):
                for x in dyadic[2 * i:2 * i + 2] + [ones[i]]:
                    assert self._same(a, 40, x), (prec, a, x)
                # x = alpha + 1 makes L_1 exactly 0
                assert _rounded(oracle._series(a, 1, ones[i])[0])[1] == (
                    0, 0, 0, 0)

    @pytest.mark.parametrize("prec", [4, 5, 8, 13, 53, 113])
    def test_newton_sum_matches_mpf_sum(self, prec):
        # the Newton derivative's sum, over series whose terms change
        # sign and span many binades
        rng = np.random.default_rng(prec)
        with mp.workprec(prec):
            for a, x in zip(rng.uniform(-0.99, 4.0, 12),
                            rng.uniform(0.0, 60.0, 12)):
                a, x = mp.mpf(a), mp.mpf(x)
                got = oracle._series(a, 40, x)[1]
                assert _rounded([got]) == _rounded(
                    [_exact_series(a, 40, x)[1]]), (a, x)

    @pytest.mark.parametrize("digits", [24, 64])
    def test_wide_inputs_are_not_rounded_first(self, digits):
        # alpha and x wider than mp.prec enter the series with every bit
        with mp.workdps(digits):
            a, x = self._wide(10, 7), self._wide(10, 3)
            assert self._same(a, 255, x)
            # unary plus rounds to mp.prec: the extra bits do matter
            got = _rounded(oracle._series(a, 255, x)[0])
            for ra, rx in ((+a, x), (a, +x)):
                assert got != _rounded(_exact_series(ra, 255, rx)[0])


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
    def test_matches_mpf_operators(self, hp_ctx, alpha, N, monkeypatch):
        # the nodes of Newton on exact values, correctly rounded; L_{N+1}
        # cancels near a node far past the guard bits, but its error stays
        # far below the node's last place
        got = hp_gauss_nodes_mpf(hp_ctx, alpha, N)
        monkeypatch.setattr(oracle, "_series", _exact_series)
        ref = hp_gauss_nodes_mpf(hp_ctx, alpha, N)
        assert [v._mpf_ for v in got] == [v._mpf_ for v in ref]

    def test_small_rule_matches_scipy(self, hp_ctx):
        got = np.array([float(v) for v in hp_gauss_nodes_mpf(hp_ctx, 0.0, 11)])
        ref, _ = roots_laguerre(12)
        np.testing.assert_allclose(got, ref, rtol=5e-15)
