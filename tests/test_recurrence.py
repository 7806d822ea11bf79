"""Tests for the three-term recurrence evaluation routes."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

from lagspec import recurrence
from lagspec.oracle import hp_eval
from lagspec.quadrature import gauss_rule
from lagspec.recurrence import (
    LagParams,
    eval_fun_derivative,
    eval_fun_modified,
    eval_fun_stable,
    eval_fun_standard,
    eval_poly_derivative,
    eval_poly_modified,
    eval_poly_standard,
    fun_series_stable,
    fun_value_deriv_stable,
    norm_const,
)


class TestParams:
    def test_alpha_at_minus_one_rejected(self):
        with pytest.raises(ValueError):
            LagParams(alpha=-1.0, n=3)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            LagParams(alpha=0.0, n=-1)

    def test_negative_abscissa_rejected(self):
        with pytest.raises(ValueError):
            eval_poly_standard(LagParams(0.0, 3), -0.5)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_nan_abscissa_rejected_on_array_routes(self, n):
        xs = np.array([0.5, np.nan, 2.0])
        for route in (fun_series_stable, fun_value_deriv_stable,
                      eval_poly_standard, eval_poly_modified,
                      eval_fun_standard, eval_fun_modified,
                      eval_fun_derivative):
            with pytest.raises(ValueError, match="got nan"):
                route(LagParams(0.0, n), xs)

    def test_rescale_thresholds_within_budget(self):
        # every intermediate stays representable only while k1 + k2 < 80
        assert recurrence._K1 > 0 and recurrence._K2 > 0
        assert recurrence._K1 + recurrence._K2 < 80.0


class TestPolynomialValues:
    def test_degree_zero_and_one(self):
        s = eval_poly_standard(LagParams(alpha=0.5, n=1), 2.0)
        assert s.values[0] == 1.0
        assert s.values[1] == pytest.approx(0.5 + 1.0 - 2.0)

    def test_degree_two_closed_form(self):
        # L_2(x) = x^2/2 - 2x + 1 at alpha = 0
        x = 1.7
        s = eval_poly_standard(LagParams(0.0, 2), x)
        assert s.values[2] == pytest.approx(x * x / 2 - 2 * x + 1, rel=1e-14)

    def test_value_at_origin_is_binomial(self):
        # L_n(0) = Gamma(n + alpha + 1) / (Gamma(alpha + 1) n!)
        alpha, n = 1.5, 7
        s = eval_poly_standard(LagParams(alpha, n), 0.0)
        expect = math.exp(math.lgamma(n + alpha + 1)
                          - math.lgamma(alpha + 1) - math.lgamma(n + 1))
        assert s.values[n] == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("x", [0.3, 4.0, 17.5])
    def test_matches_scipy(self, alpha, x):
        s = eval_poly_standard(LagParams(alpha, 20), x)
        for k in (5, 12, 20):
            assert s.values[k] == pytest.approx(
                eval_genlaguerre(k, alpha, x), rel=1e-10)

    def test_standard_and_modified_agree(self):
        p = LagParams(alpha=0.25, n=60)
        a = eval_poly_standard(p, 3.7).values
        b = eval_poly_modified(p, 3.7).values
        np.testing.assert_allclose(a, b, rtol=1e-11)

    def test_modified_deltas_are_differences(self):
        s = eval_poly_modified(LagParams(0.0, 10), 2.2)
        np.testing.assert_allclose(s.deltas, np.diff(s.values), atol=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(-0.9, 3.0), x=st.floats(0.0, 30.0), n=st.integers(1, 40))
    def test_modified_matches_scipy_property(self, alpha, x, n):
        val = eval_poly_modified(LagParams(alpha, n), x).values[n]
        ref = eval_genlaguerre(n, alpha, x)
        assert val == pytest.approx(ref, rel=1e-8, abs=1e-8)


class TestDerivatives:
    def test_poly_derivative_partial_sum_identity(self):
        # L_n' = -(L_0 + ... + L_{n-1})
        s = eval_poly_standard(LagParams(0.0, 8), 1.3)
        d = eval_poly_derivative(s)
        assert d[0] == 0.0
        assert d[8] == pytest.approx(-np.sum(s.values[:8]), rel=1e-13)

    def test_poly_derivative_finite_difference(self):
        p = LagParams(0.5, 6)
        x, h = 2.4, 1e-6
        d = eval_poly_derivative(eval_poly_standard(p, x))
        fd = (eval_poly_standard(p, x + h).values
              - eval_poly_standard(p, x - h).values) / (2 * h)
        np.testing.assert_allclose(d, fd, atol=1e-7)

    def test_fun_derivative_finite_difference(self):
        p = LagParams(0.0, 12)
        x, h = 5.0, 1e-6
        d = eval_fun_derivative(p, x)
        fd = (fun_series_stable(p, x + h) - fun_series_stable(p, x - h)) / (2 * h)
        np.testing.assert_allclose(d, fd, atol=1e-7)


class TestFunctionRoutes:
    def test_fun_is_weighted_poly(self):
        p = LagParams(0.0, 15)
        x = 6.0
        poly = eval_poly_standard(p, x).values
        fun = eval_fun_standard(p, x).values
        np.testing.assert_allclose(fun, poly * math.exp(-x / 2), rtol=1e-12)

    def test_fun_modified_matches_standard(self):
        p = LagParams(1.0, 40)
        a = eval_fun_standard(p, 9.5).values
        b = eval_fun_modified(p, 9.5).values
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_fun_standard_underflow_passthrough(self):
        # prefactor exp(-x/2) underflows; the collapse is deliberate
        vals = eval_fun_standard(LagParams(0.0, 5), 1500.0).values
        assert np.all(vals == 0.0)

    def test_stable_matches_direct_at_moderate_x(self):
        p = LagParams(0.0, 30)
        for x in (0.1, 3.0, 40.0):
            direct = eval_fun_standard(p, x).values[-1]
            assert eval_fun_stable(p, x) == pytest.approx(direct, rel=1e-10)

    def test_stable_small_degrees(self):
        assert eval_fun_stable(LagParams(0.0, 0), 2.0) == pytest.approx(
            math.exp(-1.0))
        assert eval_fun_stable(LagParams(0.5, 1), 2.0) == pytest.approx(
            (1.5 - 2.0 + 1.0 - 1.0) * math.exp(-1.0))

    def test_stable_survives_where_direct_fails(self):
        # large degree and large argument: the direct route loses everything
        p = LagParams(0.0, 900)
        x = 3000.0
        direct = eval_fun_standard(p, x).values[-1]
        assert direct == 0.0 or not math.isfinite(direct)
        val = eval_fun_stable(p, x)
        assert math.isfinite(val)

    def test_series_stable_scalar_vs_array(self):
        p = LagParams(0.0, 50)
        xs = np.array([0.5, 12.0, 130.0])
        arr = fun_series_stable(p, xs)
        assert arr.shape == (51, 3)
        for j, x in enumerate(xs):
            np.testing.assert_allclose(arr[:, j], fun_series_stable(p, float(x)),
                                       rtol=1e-12)

    def test_series_stable_matches_oracle(self, hp_ctx):
        p = LagParams(0.0, 200)
        for x in (1.0, 300.0, 700.0):
            ref = float(hp_eval(hp_ctx, 0.0, 200, x)[1])
            assert fun_series_stable(p, x)[-1] == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("x", [0.0, 0.3, 40.0, 3000.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 500])
    def test_eval_fun_stable_is_kernel_value(self, n, x):
        p = LagParams(0.5, n)
        val = eval_fun_stable(p, x)
        assert type(val) is float
        assert np.float64(val).tobytes() == \
            np.float64(fun_value_deriv_stable(p, x)[0]).tobytes()

    @pytest.mark.parametrize("x", [float("nan"), -0.5])
    def test_eval_fun_stable_rejects_bad_abscissa(self, x):
        with pytest.raises(ValueError, match="must be >= 0"):
            eval_fun_stable(LagParams(0.5, 3), x)

    def test_value_deriv_value_matches_series(self):
        p = LagParams(0.0, 80)
        xs = np.array([0.7, 50.0, 250.0])
        val, _ = fun_value_deriv_stable(p, xs)
        series = fun_series_stable(p, xs)
        np.testing.assert_allclose(val, series[-1], rtol=1e-11)

    def test_value_deriv_derivative_finite_difference(self):
        p = LagParams(0.0, 80)
        h = 1e-6
        for x in (0.7, 50.0, 250.0):
            _, der = fun_value_deriv_stable(p, x)
            vp, _ = fun_value_deriv_stable(p, x + h)
            vm, _ = fun_value_deriv_stable(p, x - h)
            assert der == pytest.approx((vp - vm) / (2 * h), rel=1e-6, abs=1e-10)

    def test_value_deriv_small_degrees(self):
        w = math.exp(-1.0)
        val, der = fun_value_deriv_stable(LagParams(0.0, 0), 2.0)
        assert val == pytest.approx(w)
        assert der == pytest.approx(-0.5 * w)
        val, der = fun_value_deriv_stable(LagParams(0.0, 1), 2.0)
        assert val == pytest.approx(-w)
        assert der == pytest.approx(-0.5 * w)


# zero, a tiny point, a spread of moderate ones, and 1500 and
# 3000, where the plain function routes underflow and the plain polynomial
# routes overflow at high degree
_CONVENTION_XS = np.concatenate([[0.0, 1e-300, 1500.0, 3000.0],
                                 np.geomspace(1e-3, 900.0, 46)])


def _route_arrays(route, p, x):
    """Every array one of the six plain-convention evaluators returns."""
    if route == "poly_derivative":
        return [eval_poly_derivative(eval_poly_standard(p, x)),
                eval_poly_derivative(eval_poly_modified(p, x))]
    if route == "fun_derivative":
        return [eval_fun_derivative(p, x)]
    series = {"poly_standard": eval_poly_standard,
              "poly_modified": eval_poly_modified,
              "fun_standard": eval_fun_standard,
              "fun_modified": eval_fun_modified}[route](p, x)
    return [series.values] + ([] if series.deltas is None
                              else [series.deltas])


class TestArrayConvention:
    """An array of abscissae gives, column by column, the bits and the
    shapes (plus a trailing axis) of the per-point scalar calls."""

    @pytest.mark.parametrize("route", [
        "poly_standard", "poly_modified", "fun_standard", "fun_modified",
        "poly_derivative", "fun_derivative"])
    @pytest.mark.parametrize("n", [0, 1, 2, 17, 255])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, -0.5])
    def test_array_call_equals_point_calls_bitwise(self, route, n, alpha):
        p = LagParams(alpha, n)
        xs = _CONVENTION_XS
        with np.errstate(over="ignore", invalid="ignore"):
            arrays = _route_arrays(route, p, xs)
            assert arrays[0].shape == (n + 1, xs.size)
            for j, x in enumerate(xs):
                points = _route_arrays(route, p, float(x))
                assert len(points) == len(arrays)
                for arr, pt in zip(arrays, points):
                    assert arr.shape == pt.shape + (xs.size,)
                    assert arr[:, j].tobytes() == pt.tobytes(), \
                        f"x = {x}"


@pytest.fixture(scope="module")
def nodes_2049():
    return gauss_rule(0.0, 2048).nodes


class TestRescaledKernel:
    """The array kernel behind ``fun_series_stable`` and
    ``fun_value_deriv_stable``: rescaling only triggered points, every few
    steps, must not change a bit of the output."""

    @pytest.mark.parametrize("k1,k2", [(20.0, 40.0), (48.0, 16.0),
                                       (16.0, 48.0)])
    def test_threshold_independence_bitwise(self, nodes_2049, k1, k2,
                                            monkeypatch):
        mids = 0.5 * (nodes_2049[:-1] + nodes_2049[1:])
        probe = np.concatenate([mids[:-10:16], mids[-10:]])
        p = LagParams(0.0, 2048)
        base = np.array(fun_value_deriv_stable(p, mids))
        base_series = fun_series_stable(p, probe)
        monkeypatch.setattr(recurrence, "_K1", k1)
        monkeypatch.setattr(recurrence, "_K2", k2)
        other = np.array(fun_value_deriv_stable(p, mids))
        assert other.tobytes() == base.tobytes()
        assert fun_series_stable(p, probe).tobytes() == base_series.tobytes()

    @pytest.mark.parametrize("x", [1e4, 1e30, 1e100, 1e140])
    def test_huge_abscissae_stay_finite(self, x):
        # the check interval shrinks with the largest abscissa; a fixed one
        # overflows here
        p = LagParams(0.0, 2048)
        xs = np.array([1.0, x])
        val, der = fun_value_deriv_stable(p, xs)
        series = fun_series_stable(p, xs)
        assert np.all(np.isfinite(val)) and np.all(np.isfinite(der))
        assert np.all(np.isfinite(series))
        assert val[0] == series[-1, 0]

    @pytest.mark.parametrize("n", [2, 50])
    @pytest.mark.parametrize("k1,k2", [(20.0, 40.0), (48.0, 16.0),
                                       (16.0, 48.0)])
    def test_underflowed_zero_sign_threshold_independent(self, n, k1, k2,
                                                         monkeypatch):
        # at x = 1e18 every value underflows and 1 + t_lo < 0; the sign of
        # a zero must still not depend on the rescale thresholds
        p = LagParams(0.0, n)
        xs = np.array([1e18])
        base = np.array(fun_value_deriv_stable(p, xs))
        base_series = fun_series_stable(p, xs)
        monkeypatch.setattr(recurrence, "_K1", k1)
        monkeypatch.setattr(recurrence, "_K2", k2)
        assert np.array(fun_value_deriv_stable(p, xs)).tobytes() \
            == base.tobytes()
        assert fun_series_stable(p, xs).tobytes() == base_series.tobytes()

    @staticmethod
    def _rows_xs(huge=True):
        # huge adds abscissae that underflow or need a short check interval
        nodes = gauss_rule(0.0, 200).nodes
        return np.concatenate([nodes, [0.0, 1e4, 1e30]]) if huge else nodes

    # Rows either side of the edges of the kernel's row blocks at n = 40.  A
    # check at step k finalizes rows up to k + 1, and a block also ends once
    # 16 rows wait.  With 1e30 the checks come every 9 steps, so they end
    # the blocks (2|3, 11|12, 20|21, 29|30, 38|39); over the 201-point nodes
    # alone they come every 96, so after 2|3 the row cap does (18|19, 34|35).
    @pytest.mark.parametrize("a", [0.0, 0.5, 3.7])
    @pytest.mark.parametrize("k", [2, 3, 11, 12, 15, 16, 17, 18, 19, 20, 21,
                                   29, 30, 31, 32, 33, 34, 35, 38, 39, 40])
    def test_series_row_equals_single_degree_bitwise(self, k, a):
        for huge in (True, False):
            xs = self._rows_xs(huge)
            row = fun_series_stable(LagParams(a, 40), xs)[k]
            val, _ = fun_value_deriv_stable(LagParams(a, k), xs)
            assert row.tobytes() == val.tobytes(), f"huge={huge}"

    @pytest.mark.parametrize("a", [0.0, 0.5, 3.7])
    @pytest.mark.parametrize("n", [0, 1])
    def test_short_series_equals_leading_rows_bitwise(self, n, a):
        # fewer rows than one block; degrees 0 and 1 have their own closed
        # form in fun_value_deriv_stable, so compare with the long series
        xs = self._rows_xs()
        short = fun_series_stable(LagParams(a, n), xs)
        assert short.tobytes() == \
            fun_series_stable(LagParams(a, 40), xs)[:n + 1].tobytes()

    def test_series_memory_near_result_size(self):
        # a memory count, not a timing: finalizing must not make another
        # full-size array per temporary.  At n = 512 the checks come every
        # 71 steps over the nodes and every 582 over [0, 1], so the second
        # set holds the 16-row cap on the finalized blocks
        for xs in (gauss_rule(0.0, 2050).nodes, np.linspace(0.0, 1.0, 2051)):
            fun_series_stable(LagParams(0.0, 8), xs)  # one-off allocations
            tracemalloc.start()
            try:
                out = fun_series_stable(LagParams(0.0, 512), xs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.6 * out.nbytes, \
                f"peak {peak / out.nbytes:.2f}x result, x_max {xs[-1]}"

    def test_views_agree_with_oracle(self, nodes_2049, hp_ctx):
        p = LagParams(0.0, 2048)
        xs = nodes_2049[-5:]
        ref = np.array([float(hp_eval(hp_ctx, 0.0, 2048, float(x))[1])
                        for x in xs])
        val, _ = fun_value_deriv_stable(p, xs)
        np.testing.assert_allclose(val, ref, rtol=1e-11, atol=0.0)
        np.testing.assert_allclose(fun_series_stable(p, xs)[-1], ref,
                                   rtol=1e-11, atol=0.0)


class TestNormConst:
    def test_alpha_zero_is_one(self):
        assert norm_const(LagParams(0.0, 37)) == pytest.approx(1.0, rel=1e-13)

    def test_degree_zero_is_gamma(self):
        assert norm_const(LagParams(1.5, 0)) == pytest.approx(
            math.gamma(2.5), rel=1e-13)

    def test_large_degree_finite(self):
        assert math.isfinite(norm_const(LagParams(2.0, 5000)))
