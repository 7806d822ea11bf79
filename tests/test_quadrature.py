"""Tests for Gauss and Gauss-Radau rule construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_genlaguerre, roots_laguerre

from lagspec import quadrature
from lagspec.quadrature import (
    GaussRule,
    RuleKind,
    cached_gauss_rule,
    gauss_radau_rule,
    gauss_rule,
    nodes_eigen_seed,
    refine_newton,
)
from lagspec.recurrence import LagParams, fun_value_deriv_stable

# the seeded alpha of the benchmark's last rule (seed 1): its nodes cycle
# with period 4
BENCH_ALPHA = 0.7015463661686019


def _plain_newton(alpha, N, seeds):
    """Newton polish that evaluates every node on every iteration, the
    loop ``refine_newton`` must match bit for bit."""
    params = LagParams(alpha=alpha, n=N + 1)
    x = np.asarray(seeds, dtype=float).copy()
    for _ in range(quadrature._NEWTON_MAX_ITERS):
        val, der = fun_value_deriv_stable(params, x)
        step = val / (der + 0.5 * val)
        x_new = x - step
        if np.all(np.abs(step) <= quadrature._NEWTON_REL_STEP_TOL * x):
            x = x_new
            break
        x = x_new
    return x


def _assert_matches_plain_newton(alpha, N):
    seeds = nodes_eigen_seed(alpha, N)
    assert (refine_newton(alpha, N, seeds).tobytes()
            == _plain_newton(alpha, N, seeds).tobytes())


class TestSeeds:
    def test_matches_scipy_roots(self):
        seeds = nodes_eigen_seed(0.0, 9)
        ref, _ = roots_laguerre(10)
        np.testing.assert_allclose(seeds, ref, rtol=1e-10)

    def test_generalized_family(self):
        seeds = nodes_eigen_seed(1.5, 7)
        ref, _ = roots_genlaguerre(8, 1.5)
        np.testing.assert_allclose(seeds, ref, rtol=1e-10)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            nodes_eigen_seed(-1.0, 5)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            nodes_eigen_seed(0.0, -1)

    @pytest.mark.parametrize("rule", [gauss_rule, gauss_radau_rule])
    def test_infinite_alpha_is_a_usage_error(self, rule):
        # rejected by LagParams, not by the eigensolver
        with pytest.raises(ValueError, match="alpha must be finite"):
            rule(math.inf, 3)


class TestNewton:
    def test_refined_nodes_are_roots(self):
        # refined nodes should sit on scipy's high-accuracy roots
        seeds = nodes_eigen_seed(0.0, 19)
        refined = refine_newton(0.0, 19, seeds)
        ref, _ = roots_laguerre(20)
        np.testing.assert_allclose(refined, ref, rtol=5e-15)

    def test_bad_seeds_rejected(self):
        with pytest.raises(ValueError):
            refine_newton(0.0, 2, np.array([1.0, 0.5, 3.0]))

    @pytest.mark.parametrize("seeds", [
        [], [[1.0, 2.0], [3.0, 4.0]], 1.0, [1.0, math.nan, 3.0],
        [1.0, 2.0, math.inf]])
    def test_bad_seed_arrays_are_usage_errors(self, seeds):
        with pytest.raises(ValueError, match="seeds"):
            refine_newton(0.0, 2, np.array(seeds))

    def test_seed_count_need_not_be_n_plus_one(self):
        seeds = nodes_eigen_seed(0.0, 9)
        full = refine_newton(0.0, 9, seeds)
        np.testing.assert_allclose(refine_newton(0.0, 9, seeds[2:6]),
                                   full[2:6], rtol=4e-15)

    @pytest.mark.parametrize("alpha, N", [
        (0.0, 2048), (BENCH_ALPHA, 999), (0.0, 2050), (0.0, 999),
        (1.0, 998)])
    def test_bitwise_equal_to_plain_loop(self, alpha, N):
        _assert_matches_plain_newton(alpha, N)

    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(-0.9, 20.0, exclude_min=True),
           N=st.integers(0, 300))
    def test_bitwise_equal_to_plain_loop_property(self, alpha, N):
        _assert_matches_plain_newton(alpha, N)

    # caps 7 and 9 stop these runs after every node has cycled, at a row
    # of another phase than 10, so they check the copied step tests
    @pytest.mark.parametrize("cap", [1, 2, 7, 9])
    @pytest.mark.parametrize("alpha, N", [(0.0, 2048), (BENCH_ALPHA, 999)])
    def test_bitwise_equal_at_iteration_cap(self, monkeypatch, cap, alpha,
                                            N):
        monkeypatch.setattr(quadrature, "_NEWTON_MAX_ITERS", cap)
        _assert_matches_plain_newton(alpha, N)

    def test_cycled_nodes_not_evaluated_again(self, monkeypatch):
        # at N = 2048 a few nodes bounce between neighbouring doubles, so
        # all 10 iterations run; the plain loop evaluates 10 x 2049 points
        seeds = nodes_eigen_seed(0.0, 2048)
        expected = _plain_newton(0.0, 2048, seeds)
        points = []

        def counted(params, x):
            points.append(np.size(x))
            return fun_value_deriv_stable(params, x)

        monkeypatch.setattr(quadrature, "fun_value_deriv_stable", counted)
        nodes = refine_newton(0.0, 2048, seeds)
        assert sum(points) <= 2.5 * 2049
        assert nodes.tobytes() == expected.tobytes()

    def test_escaped_node_falls_back_to_seed(self):
        seeds = nodes_eigen_seed(0.0, 9)
        # from just below the midpoint of seeds 3 and 4, where L' is
        # small, Newton leaves node 3's bracket
        seeds[3] = 0.5 * (seeds[3] + seeds[4]) - 0.02 * (seeds[4] - seeds[3])
        with pytest.warns(RuntimeWarning, match=r"indices \[3\]"):
            nodes = refine_newton(0.0, 9, seeds)
        assert nodes[3] == seeds[3]
        assert np.all(np.diff(nodes) > 0)


class TestGaussRule:
    def test_against_scipy_small(self):
        rule = gauss_rule(0.0, 7)
        x, w = roots_laguerre(8)
        np.testing.assert_allclose(rule.nodes, x, rtol=1e-13)
        np.testing.assert_allclose(rule.weights, w, rtol=1e-12)

    def test_generalized_against_scipy(self):
        rule = gauss_rule(2.0, 11)
        x, w = roots_genlaguerre(12, 2.0)
        np.testing.assert_allclose(rule.nodes, x, rtol=1e-13)
        np.testing.assert_allclose(rule.weights, w, rtol=1e-11)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_weights_sum_to_gamma(self, alpha):
        rule = gauss_rule(alpha, 30)
        assert rule.weights.sum() == pytest.approx(math.gamma(alpha + 1.0),
                                                   rel=1e-13)

    def test_function_weights_relation(self):
        rule = gauss_rule(0.0, 15)
        np.testing.assert_allclose(rule.fun_weights,
                                   np.exp(rule.nodes) * rule.weights,
                                   rtol=1e-12)

    def test_npoints(self):
        assert gauss_rule(0.0, 4).npoints == 5

    def test_moment_exactness(self):
        # monomial moments: integral of x^k x^alpha e^-x = Gamma(k+alpha+1)
        alpha = 1.0
        rule = gauss_rule(alpha, 10)
        for k in (0, 3, 10, 21):  # up to degree 2N+1
            got = rule.weights @ rule.nodes ** k
            assert got == pytest.approx(math.gamma(k + alpha + 1), rel=1e-12)

    def test_large_rule_fun_weights_finite(self):
        rule = gauss_rule(0.0, 500)
        assert rule.npoints == 501
        assert np.all(np.isfinite(rule.fun_weights))
        assert np.all(rule.fun_weights > 0)

    def test_validation_rejects_unsorted(self):
        with pytest.raises(ValueError):
            GaussRule(alpha=0.0, kind=RuleKind.GAUSS,
                      nodes=np.array([2.0, 1.0]),
                      weights=np.array([0.5, 0.5]),
                      fun_weights=np.array([1.0, 1.0]))

    def test_validation_rejects_zero_first_node(self):
        with pytest.raises(ValueError):
            GaussRule(alpha=0.0, kind=RuleKind.GAUSS,
                      nodes=np.array([0.0, 1.0]),
                      weights=np.array([0.5, 0.5]),
                      fun_weights=np.array([1.0, 1.0]))


class TestRadauRule:
    def test_first_node_at_origin(self):
        rule = gauss_radau_rule(0.0, 12)
        assert rule.nodes[0] == 0.0
        assert rule.npoints == 13

    def test_origin_weight_closed_form(self):
        alpha, N = 1.0, 9
        rule = gauss_radau_rule(alpha, N)
        expect = ((alpha + 1.0) * math.gamma(alpha + 1.0) ** 2
                  * math.gamma(N + 1.0) / math.gamma(N + alpha + 2.0))
        assert rule.weights[0] == pytest.approx(expect, rel=1e-13)

    def test_interior_nodes_from_shifted_family(self):
        rule = gauss_radau_rule(0.5, 8)
        shifted = gauss_rule(1.5, 7)
        np.testing.assert_allclose(rule.nodes[1:], shifted.nodes, rtol=1e-14)

    def test_moment_exactness_degree_2N(self):
        alpha, N = 0.0, 8
        rule = gauss_radau_rule(alpha, N)
        for k in (0, 5, 16):  # exact through degree 2N
            got = rule.weights @ rule.nodes ** k
            assert got == pytest.approx(math.gamma(k + alpha + 1), rel=1e-12)

    def test_needs_at_least_one_interior(self):
        with pytest.raises(ValueError):
            gauss_radau_rule(0.0, 0)


class TestCacheAndIntegrate:
    def test_cached_rule_identity(self):
        a = cached_gauss_rule(0.0, 16)
        b = cached_gauss_rule(0.0, 16)
        assert a is b

    def test_cached_rule_arrays_are_read_only(self):
        rule = cached_gauss_rule(0.0, 15)
        for a in (rule.nodes, rule.weights, rule.fun_weights):
            with pytest.raises(ValueError):
                a[0] = 99.0
        assert cached_gauss_rule(0.0, 15).nodes[0] != 99.0

    def test_caller_arrays_stay_writeable(self):
        nodes = np.array([1.0, 2.0])
        rule = GaussRule(alpha=0.0, kind=RuleKind.GAUSS, nodes=nodes,
                         weights=np.array([0.5, 0.5]),
                         fun_weights=np.array([1.0, 1.0]))
        assert nodes.flags.writeable and not rule.nodes.flags.writeable

    def test_cached_radau_kind(self):
        rule = cached_gauss_rule(0.0, 5, RuleKind.GAUSS_RADAU)
        assert rule.kind is RuleKind.GAUSS_RADAU

    def test_function_form_integration(self):
        # integral of e^{-2x} dx over (0, inf) = 1/2, integrand carries decay
        rule = gauss_rule(0.0, 40)
        got = rule.fun_weights @ np.exp(-2.0 * rule.nodes)
        assert got == pytest.approx(0.5, rel=1e-9)
