"""Tests for the three-term recurrence evaluation routes."""

import functools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.special import eval_genlaguerre

from lagspec import oracle, recurrence
from lagspec.oracle import hp_eval
from lagspec.problems import make_case
from lagspec.quadrature import cached_gauss_rule, gauss_rule
from lagspec.recurrence import (
    LagParams,
    eval_fun_derivative,
    eval_fun_modified,
    eval_fun_standard,
    eval_poly_derivative,
    eval_poly_modified,
    eval_poly_standard,
    fun_series_stable,
    fun_value_deriv_stable,
    norm_const,
)
from lagspec.spectral import solve

# every evaluator that takes abscissae, by name
ABSCISSA_ROUTES = ["eval_poly_standard", "eval_poly_modified",
                   "eval_fun_standard", "eval_fun_modified",
                   "fun_series_stable", "fun_value_deriv_stable",
                   "eval_fun_derivative", "SpectralSolution.evaluate",
                   "SpectralSolution.evaluate_deriv"]


@pytest.fixture(scope="module")
def abscissa_routes():
    sol = solve(make_case("u1").problem, 4)
    routes = {"SpectralSolution.evaluate": sol.evaluate,
              "SpectralSolution.evaluate_deriv": sol.evaluate_deriv}
    for f in (eval_poly_standard, eval_poly_modified, eval_fun_standard,
              eval_fun_modified, fun_series_stable, fun_value_deriv_stable,
              eval_fun_derivative):
        routes[f.__name__] = functools.partial(f, LagParams(2.5, 5))
    return routes


class TestParams:
    def test_alpha_at_minus_one_rejected(self):
        with pytest.raises(ValueError):
            LagParams(alpha=-1.0, n=3)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            LagParams(alpha=0.0, n=-1)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_alpha_must_be_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            LagParams(alpha, 3)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3"])
    def test_degree_must_be_an_integer(self, n):
        with pytest.raises(ValueError,
                           match="degree must be an integer >= 0"):
            LagParams(0.0, n)

    def test_numpy_integer_degree_accepted(self):
        assert LagParams(0.0, np.int64(3)).n == 3

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

    @pytest.mark.parametrize("x,shown", [
        (math.inf, "inf"), (-math.inf, "-inf"), ([2.0, math.inf], "inf"),
        ([0.5, math.nan], "nan"), (-0.5, "-0.5")])
    @pytest.mark.parametrize("route", ABSCISSA_ROUTES)
    def test_bad_abscissa_is_a_usage_error(self, abscissa_routes, route, x,
                                           shown):
        # an infinite abscissa stops at the input check, before any
        # arithmetic can warn or overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite and >= 0, got "
                               + re.escape(shown) + "$"):
                abscissa_routes[route](x)


class TestPolynomialValues:
    def test_degree_zero_and_one(self):
        s = eval_poly_standard(LagParams(alpha=0.5, n=1), 2.0)
        assert s[0] == 1.0
        assert s[1] == pytest.approx(0.5 + 1.0 - 2.0)

    def test_degree_two_closed_form(self):
        # L_2(x) = x^2/2 - 2x + 1 at alpha = 0
        x = 1.7
        s = eval_poly_standard(LagParams(0.0, 2), x)
        assert s[2] == pytest.approx(x * x / 2 - 2 * x + 1, rel=1e-14)

    def test_value_at_origin_is_binomial(self):
        # L_n(0) = Gamma(n + alpha + 1) / (Gamma(alpha + 1) n!)
        alpha, n = 1.5, 7
        s = eval_poly_standard(LagParams(alpha, n), 0.0)
        expect = math.exp(math.lgamma(n + alpha + 1)
                          - math.lgamma(alpha + 1) - math.lgamma(n + 1))
        assert s[n] == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("x", [0.3, 4.0, 17.5])
    def test_matches_scipy(self, alpha, x):
        s = eval_poly_standard(LagParams(alpha, 20), x)
        for k in (5, 12, 20):
            assert s[k] == pytest.approx(
                eval_genlaguerre(k, alpha, x), rel=1e-10)

    def test_standard_and_modified_agree(self):
        p = LagParams(alpha=0.25, n=60)
        a = eval_poly_standard(p, 3.7)
        b = eval_poly_modified(p, 3.7)
        np.testing.assert_allclose(a, b, rtol=1e-11)

    def test_modified_deltas_are_differences(self):
        s, deltas = recurrence._difference(
            LagParams(0.0, 10), recurrence._abscissae(2.2), 1.0)
        np.testing.assert_allclose(deltas, np.diff(s), atol=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(-0.9, 3.0), x=st.floats(0.0, 30.0), n=st.integers(1, 40))
    def test_modified_matches_scipy_property(self, alpha, x, n):
        val = eval_poly_modified(LagParams(alpha, n), x)[n]
        ref = eval_genlaguerre(n, alpha, x)
        assert val == pytest.approx(ref, rel=1e-8, abs=1e-8)


class TestDerivatives:
    def test_poly_derivative_partial_sum_identity(self):
        # L_n' = -(L_0 + ... + L_{n-1})
        s = eval_poly_standard(LagParams(0.0, 8), 1.3)
        d = eval_poly_derivative(s)
        assert d[0] == 0.0
        assert d[8] == pytest.approx(-np.sum(s[:8]), rel=1e-13)

    def test_poly_derivative_finite_difference(self):
        p = LagParams(0.5, 6)
        x, h = 2.4, 1e-6
        d = eval_poly_derivative(eval_poly_standard(p, x))
        fd = (eval_poly_standard(p, x + h)
              - eval_poly_standard(p, x - h)) / (2 * h)
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
        poly = eval_poly_standard(p, x)
        fun = eval_fun_standard(p, x)
        np.testing.assert_allclose(fun, poly * math.exp(-x / 2), rtol=1e-12)

    def test_fun_modified_matches_standard(self):
        p = LagParams(1.0, 40)
        a = eval_fun_standard(p, 9.5)
        b = eval_fun_modified(p, 9.5)
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_fun_standard_underflow_passthrough(self):
        # prefactor exp(-x/2) underflows; the collapse is deliberate
        vals = eval_fun_standard(LagParams(0.0, 5), 1500.0)
        assert np.all(vals == 0.0)

    def test_stable_matches_direct_at_moderate_x(self):
        p = LagParams(0.0, 30)
        for x in (0.1, 3.0, 40.0):
            direct = eval_fun_standard(p, x)[-1]
            assert fun_value_deriv_stable(p, x)[0] == pytest.approx(
                direct, rel=1e-10)

    def test_stable_small_degrees(self):
        assert fun_value_deriv_stable(LagParams(0.0, 0), 2.0)[0] == \
            pytest.approx(math.exp(-1.0))
        assert fun_value_deriv_stable(LagParams(0.5, 1), 2.0)[0] == \
            pytest.approx((1.5 - 2.0 + 1.0 - 1.0) * math.exp(-1.0))

    def test_stable_survives_where_direct_fails(self):
        # large degree and large argument: the direct route loses everything
        p = LagParams(0.0, 900)
        x = 3000.0
        direct = eval_fun_standard(p, x)[-1]
        assert direct == 0.0 or not math.isfinite(direct)
        val, _ = fun_value_deriv_stable(p, x)
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
    """Every array one of the six plain-convention evaluators, or one of
    the two stable views, returns."""
    if route == "series_stable":
        return [fun_series_stable(p, x)]
    if route == "value_deriv_stable":
        return list(fun_value_deriv_stable(p, x))
    if route == "poly_derivative":
        return [eval_poly_derivative(eval_poly_standard(p, x)),
                eval_poly_derivative(eval_poly_modified(p, x))]
    if route == "fun_derivative":
        return [eval_fun_derivative(p, x)]
    series = {"poly_standard": eval_poly_standard,
              "poly_modified": eval_poly_modified,
              "fun_standard": eval_fun_standard,
              "fun_modified": eval_fun_modified}[route](p, x)
    if not route.endswith("modified"):
        return [series]
    # the differences the error model reads, from the same loop
    xs = recurrence._abscissae(x)
    w = 1.0 if route == "poly_modified" else recurrence._exp(-xs / 2.0)
    return [series, recurrence._difference(p, xs, w)[1]]


# every evaluator that returns a series, by the route it takes
_SERIES_EVALUATORS = {
    "poly_standard": eval_poly_standard,
    "poly_modified": eval_poly_modified,
    "fun_standard": eval_fun_standard,
    "fun_modified": eval_fun_modified,
    "poly_derivative_standard":
        lambda p, x: eval_poly_derivative(eval_poly_standard(p, x)),
    "poly_derivative_modified":
        lambda p, x: eval_poly_derivative(eval_poly_modified(p, x)),
    "fun_derivative": eval_fun_derivative,
    "series_stable": fun_series_stable,
}


class TestArrayConvention:
    """An array of abscissae gives, column by column, the bits and the
    shapes (plus a trailing axis) of the per-point scalar calls."""

    @pytest.mark.parametrize("route", sorted(_SERIES_EVALUATORS))
    @pytest.mark.parametrize("x", [2.5, _CONVENTION_XS[4:14].reshape(2, 5)],
                             ids=["scalar", "2d"])
    @pytest.mark.parametrize("n", [0, 1, 17])
    def test_series_is_a_plain_array(self, route, x, n):
        series = _SERIES_EVALUATORS[route](LagParams(0.5, n), x)
        assert type(series) is np.ndarray
        assert series.shape == (n + 1,) + np.shape(x)

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

    @pytest.mark.parametrize("route", [
        "poly_standard", "poly_modified", "fun_standard", "fun_modified",
        "poly_derivative", "fun_derivative", "series_stable",
        "value_deriv_stable"])
    @pytest.mark.parametrize("n", [0, 1, 17])
    def test_2d_call_equals_flat_call_reshaped(self, route, n):
        p = LagParams(0.5, n)
        grid = _CONVENTION_XS.reshape(5, 10)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _route_arrays(route, p, grid)
            flat = _route_arrays(route, p, grid.ravel())
        assert len(got) == len(flat)
        for g, f in zip(got, flat):
            assert g.shape == f.shape[:-1] + grid.shape
            assert g.tobytes() == f.tobytes()

    @pytest.mark.parametrize("n", [0, 1, 17])
    def test_stable_views_keep_scalar_types(self, n):
        p = LagParams(0.5, n)
        assert all(type(v) is np.float64
                   for v in fun_value_deriv_stable(p, 2.0))
        assert fun_series_stable(p, 2.0).shape == (n + 1,)


@pytest.fixture(scope="module")
def nodes_2049():
    return gauss_rule(0.0, 2048).nodes


class TestOnePointPass:
    """A single abscissa runs through the kernel as two copies; the value
    is the one the kernel gives that point alone."""

    @pytest.mark.parametrize("alpha,n,x", [
        (0.0, 1000, 3.0), (2.5, 40, 0.7), (0.0, 3, 1e-300), (150.0, 1000, 1e4),
        (0.7, 2049, 8000.0), (0.0, 2, 5.0)])
    def test_scalar_value_deriv_is_the_unpadded_kernel(self, alpha, n, x):
        val, _, der = recurrence._rescaled_recurrence(alpha, n,
                                                      np.array([x]))
        got = fun_value_deriv_stable(LagParams(alpha, n), x)
        assert np.array(got).tobytes() == np.array([val[0], der[0]]).tobytes()


@pytest.mark.parametrize("x", [0.0, 5e-324, 0.7, 1e4])
@pytest.mark.parametrize("n", [1, 2, 3, 40, 1000])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.5])
def test_prev_is_the_lower_degree_value(alpha, n, x):
    # the rule weights take the degree-(n-1) value at a zero from the
    # degree-n pass's partial sum S = -L_n' by x L_n' = n L_n - (n+alpha)
    # L_{n-1} (DLMF 18.9.14), which holds at every x: within 4 ulps of the
    # terms' scale (0.71 seen), L_0 finalized on its own at n = 1
    val, S, _ = recurrence._value_sum(alpha, n, np.array([x]))
    prev = (n * val[0] + x * S[0]) / (n + alpha)
    lower = fun_value_deriv_stable(LagParams(alpha, n - 1), x)[0]
    scale = (n * abs(val[0]) + x * abs(S[0])) / (n + alpha)
    assert abs(prev - lower) <= 4.0 * np.finfo(float).eps * scale


# check-interval margins in nats: 32 is the default, 700 leaves no headroom
# and checks every step
MARGINS = [0.0, 8.0, 32.0, 200.0, 700.0]

# one call per group, as the check interval follows a call's largest
# abscissa: at 1e200 and above it is one step under every margin
SCHEDULE_XS = [[0.0, 5e-324, 1e-300, 0.5, 2.0, 50.0, 1e4], [1e30, 1e100],
               [1e200, 1.7e308]]


def _schedule_outputs(nodes):
    """The kernel's outputs that a check schedule could move, as bytes."""
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    probe = np.concatenate([mids[:-10:16], mids[-10:]])
    p = LagParams(0.0, 2048)
    out = [np.array(fun_value_deriv_stable(p, mids)),
           fun_series_stable(p, probe),
           fun_value_deriv_stable(LagParams(0.0, 2047), mids)[0],
           recurrence._rescaled_recurrence(0.0, 2048, mids)[2]]
    for alpha in (-0.5, 0.0, 2.5, 20.0):
        for n in (0, 1, 2, 5, 40, 2048):
            p = LagParams(alpha, n)
            for xs in SCHEDULE_XS:
                out += [fun_series_stable(p, xs),
                        np.array(fun_value_deriv_stable(p, xs))]
    return [v.tobytes() for v in out]


@pytest.fixture(scope="module")
def default_schedule_outputs(nodes_2049):
    return _schedule_outputs(nodes_2049)


class TestRescaledKernel:
    """The array kernel behind ``fun_series_stable`` and
    ``fun_value_deriv_stable``: rescaling every point to its own binary
    exponent, every few steps, must not change a bit of the output."""

    @pytest.mark.parametrize("margin", MARGINS)
    def test_schedule_independence_bitwise(self, nodes_2049, margin,
                                           default_schedule_outputs,
                                           monkeypatch):
        monkeypatch.setattr(recurrence, "_CHECK_MARGIN", margin)
        got = _schedule_outputs(nodes_2049)
        assert got == default_schedule_outputs

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

    @pytest.mark.parametrize("a", [0.0, 2.5])
    @pytest.mark.parametrize("x", [1e200, 1e300, 1.7e308])
    def test_first_check_comes_before_first_step(self, x, a):
        # x L_1 overflows above about 1e154 unless L_1 is rescaled first:
        # every value is then the signed zero it is at x = 1e150, and x = 2
        # beside it keeps the bits it has alone
        for n in (2, 5, 40):
            p = LagParams(a, n)
            for route in (fun_series_stable, fun_value_deriv_stable):
                ref = [np.array(route(p, np.array([v]))) for v in (1e150, 2.0)]
                alone = np.array(route(p, np.array([x])))
                pair = np.array(route(p, np.array([x, 2.0])))
                assert alone.tobytes() == ref[0].tobytes(), (n, route)
                assert pair.tobytes() == \
                    np.concatenate(ref, axis=-1).tobytes(), (n, route)

    @pytest.mark.parametrize("n", [2, 50])
    @pytest.mark.parametrize("margin", MARGINS)
    def test_underflowed_zero_sign_schedule_independent(self, n, margin,
                                                        monkeypatch):
        # at x = 1e18 every value underflows (q is capped, so exp(-r) is 0);
        # a zero takes the sign of the iterate, which no schedule changes
        p = LagParams(0.0, n)
        xs = np.array([1e18])
        base = np.array(fun_value_deriv_stable(p, xs))
        base_series = fun_series_stable(p, xs)
        monkeypatch.setattr(recurrence, "_CHECK_MARGIN", margin)
        assert np.array(fun_value_deriv_stable(p, xs)).tobytes() \
            == base.tobytes()
        assert fun_series_stable(p, xs).tobytes() == base_series.tobytes()

    @pytest.mark.parametrize("alpha,n,xs", [
        (200.0, 4096, [50.0, 20000.0]), (300.0, 2048, [3000.0]),
        (500.0, 4096, [300.0])])
    def test_overflowing_value_spares_the_others(self, alpha, n, xs, hp_ctx):
        # exp(-x/2) L_n(x) at x = 1 is past the double range here (about
        # e^813 at alpha 200, n 4096): it comes out as +inf without a
        # warning, as an underflowed value comes out as a zero, and the
        # abscissae in the same call keep their values
        p = LagParams(alpha, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, _ = fun_value_deriv_stable(p, [1.0] + xs)
            series = fun_series_stable(p, [1.0] + xs)
        assert val[0] == np.inf
        assert series[-1].tobytes() == val.tobytes()
        ref = [float(hp_eval(hp_ctx, alpha, n, x)[1]) for x in xs]
        np.testing.assert_allclose(val[1:], ref, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("alpha,n", [(500.0, 4096), (300.0, 2048)])
    def test_overflowing_derivative_is_a_signed_infinity(self, alpha, n):
        # past the double range the value and the partial sum overflow
        # together, from x = 15.3 and 13 with opposite signs, and their
        # combination must still be a signed infinity, not NaN: that of the
        # oracle's -(L_0 + .. + L_{n-1}) - L_n/2 at the first, first
        # positive and last infinite derivative
        xs = np.linspace(0.0, 60.0, 601)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, der = fun_value_deriv_stable(LagParams(alpha, n), xs)
        assert not np.isnan(der).any()
        inf = np.flatnonzero(np.isinf(der))
        for j in (inf[0], inf[der[inf] > 0][0], inf[-1]):
            with mp.workprec(200):
                vals = oracle._poly_series_mpf(alpha, n, mp.mpf(xs[j]))
                ref = -mp.fsum(vals[:n]) - vals[n] / 2
            assert np.sign(der[j]) == mp.sign(ref), xs[j]

    @staticmethod
    def _rows_xs(huge=True):
        # huge adds abscissae that underflow or need a short check interval
        nodes = gauss_rule(0.0, 200).nodes
        return np.concatenate([nodes, [0.0, 1e4, 1e30]]) if huge else nodes

    # Rows either side of the edges of the kernel's row blocks at n = 40.  A
    # check at k (made before step k+1) finalizes rows up to k + 1, and a
    # block also ends once 16 rows wait.  With 1e30 the checks come every 9
    # steps, so they end the blocks (1|2, 10|11, 19|20, 28|29, 37|38); over
    # the 201-point nodes alone they come every 101, so after 1|2 the row cap
    # does (17|18, 33|34).  Degrees 0 and 1 are finalized on their own.
    @pytest.mark.parametrize("a", [0.0, 0.5, 3.7])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 10, 11, 12, 15, 16, 17, 18,
                                   19, 20, 21, 28, 29, 30, 31, 32, 33, 34,
                                   35, 37, 38, 39, 40])
    def test_series_row_equals_single_degree_bitwise(self, k, a):
        for huge in (True, False):
            xs = self._rows_xs(huge)
            row = fun_series_stable(LagParams(a, 40), xs)[k]
            val, _ = fun_value_deriv_stable(LagParams(a, k), xs)
            assert row.tobytes() == val.tobytes(), f"huge={huge}"

    @pytest.mark.parametrize("a", [0.0, 0.5, 3.7])
    @pytest.mark.parametrize("n", [0, 1])
    def test_short_series_equals_leading_rows_bitwise(self, n, a):
        # fewer rows than one block, and no step of the recurrence
        xs = self._rows_xs()
        short = fun_series_stable(LagParams(a, n), xs)
        assert short.tobytes() == \
            fun_series_stable(LagParams(a, 40), xs)[:n + 1].tobytes()

    def test_finalize_within_one_and_a_half_ulps(self, monkeypatch):
        # every normal cell against the kernel's own iterates (L, M)
        # finalized at 200 bits, at 30 middle nodes of the 4099-point rule
        # and 30 over the top of the range where its degree-1024 values are
        # normal: 1.38 ulps at worst (2,641 with the compensated exponent
        # that finalized each cell before)
        nodes = cached_gauss_rule(0.0, 4098).nodes
        xs = np.concatenate([nodes[2034:2064], nodes[2800:3160:12]])
        blocks, finalize = [], recurrence._finalize

        def spy(L, M, red, out=None):
            blocks.append((np.array(L), np.broadcast_to(M, L.shape).copy()))
            return finalize(L, M, red, out)

        monkeypatch.setattr(recurrence, "_finalize", spy)
        got = fun_series_stable(LagParams(0.0, 1024), xs)
        L, M = (np.concatenate(v) for v in zip(*blocks))
        assert L.shape == got.shape
        worst, tiny = 0.0, np.finfo(float).tiny
        with mp.workprec(200):
            w = [mp.exp(-mp.mpf(x) / 2) for x in xs.tolist()]
            for cells in zip(L.tolist(), M.tolist(), got.tolist()):
                for wj, lk, m, v in zip(w, *cells):
                    ref = mp.ldexp(wj * lk, m)
                    hi = float(ref)
                    if abs(hi) >= tiny:
                        err = abs((v - hi) - float(ref - hi)) / math.ulp(hi)
                        worst = max(worst, err)
        assert worst <= 1.5

    def test_series_memory_near_result_size(self):
        # a memory count, not a timing: finalizing must not make another
        # full-size array per temporary.  At n = 512 the checks come every
        # 74 steps over the nodes and every 611 over [0, 1], so the second
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
