"""Tests for Gauss and Gauss-Radau rule construction."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.special import roots_genlaguerre, roots_laguerre

from lagspec import oracle, quadrature, recurrence
from lagspec.quadrature import (
    GaussRule,
    RuleKind,
    cached_gauss_rule,
    gauss_radau_rule,
    gauss_rule,
    nodes_eigen_seed,
    refine_newton,
)

# the seeded alpha of the benchmark's last rule (seed 1): its nodes cycle
# with period 4
BENCH_ALPHA = 0.7015463661686019


def _plain_newton(alpha, N, seeds):
    """Newton polish that evaluates every node on every iteration, the
    loop ``refine_newton`` must match bit for bit."""
    x = np.asarray(seeds, dtype=float).copy()
    for _ in range(quadrature._NEWTON_MAX_ITERS):
        val, S, _ = recurrence._value_sum(alpha, N + 1, x)
        step = val / -S
        x_new = x - step
        if np.all(np.abs(step) <= quadrature._NEWTON_REL_STEP_TOL * x):
            x = x_new
            break
        x = x_new
    return x


def _plain_rule(alpha, N, kind):
    """Nodes, weights and function weights from one plain pass at the
    seeds, Halley's step node by node, ``_plain_newton`` from the steps it
    does not vouch for and one plain weight line, the bytes a rule must
    match.  S at a node Newton finished or the pass saw (a seed, or a
    double within 8 ulps of one of the 8 smallest) is evaluated there
    again, as the kernel is a pointwise map; elsewhere it is carried."""
    # the nodes are the zeros of L^(a)_n: Radau's interior nodes are the
    # (alpha+1, N-1) Gauss nodes
    radau = kind is RuleKind.GAUSS_RADAU
    n, a = N + 1 - radau, alpha + radau
    x0 = quadrature._seeds(a, n - 1)
    val, S, _ = recurrence._value_sum(a, n, x0)
    seen = set(x0.tolist()) | {v + k * math.ulp(v) for v in x0[:8].tolist()
                               for k in range(-8, 9)}
    x, redo = x0.copy(), []
    for j, v in enumerate(x0.tolist()):
        h = val[j] / -S[j]
        r1 = -(a + 1.0 - v + n * h) / v
        r2 = -((a + 2.0 - v) * r1 + n - 1.0) / v
        d = -h / (1.0 - 0.5 * h * r1)
        x[j] = v + d
        S[j] *= 1.0 + d * (r1 - 0.5 + 0.5 * d * (r2 - r1 + 0.25))
        lo = 0.5 * (x0[j - 1] + v) if j else 0.0
        hi = 0.5 * (v + x0[j + 1]) if j + 1 < n else v * 2.0 + 1.0
        if not lo < x[j] < hi:
            x[j] = v  # Newton restarts from the seed
            redo.append(j)
        elif not (abs(0.25 * r1 * r1 - r2 / 6.0) * abs(d) ** 3
                  < 0.0625 * np.spacing(x[j])):
            redo.append(j)
    if redo:
        x[redo] = _plain_newton(a, n - 1, x[redo])
    fresh = redo + [j for j in range(n) if x[j] in seen]
    if fresh:
        S[fresh] = recurrence._value_sum(a, n, x[fresh])[1]
    log_fun_w = (math.lgamma(n + alpha + 1.0) - math.lgamma(n + 1.0)
                 + radau * math.log(n + a) - (1 + radau) * np.log(x)
                 - 2.0 * np.log(np.abs(S)))
    nodes, w, fun_w = x, np.exp(log_fun_w - x), np.exp(log_fun_w)
    if radau:
        w0 = math.exp(math.log(alpha + 1.0) + 2.0 * math.lgamma(alpha + 1.0)
                      + math.lgamma(N + 1.0) - math.lgamma(N + alpha + 2.0))
        nodes, w, fun_w = (np.concatenate(([v0], v)) for v0, v in (
            (0.0, nodes), (w0, w), (w0, fun_w)))
    return b"".join(v.tobytes() for v in (nodes, w, fun_w))


def _exact_fun_weight(alpha, N, kind, node):
    """The function weight at the zero next to a rule's interior ``node``,
    at 200 bits: one Newton step on the oracle's series moves the node to
    the zero of L^(alpha)_{N+1} (Radau: of L^(alpha+1)_N), and the weight
    is the closed form in L^(alpha)_N,
    ``Gamma(N+alpha+1) x e^x / ((N+alpha+1) (N+1)! L_N^2)`` for Gauss and
    ``Gamma(N+alpha+1) e^x / ((N+alpha+1) N! L_N^2)`` for Radau."""
    radau = kind is RuleKind.GAUSS_RADAU
    n = N + 1 - radau
    with mp.workprec(200):
        x = mp.mpf(float(node))
        last, total = oracle._series(mp.mpf(alpha) + radau, n, x)
        x += oracle._mpf(last) / oracle._mpf(total)
        LN = oracle._mpf(oracle._series(alpha, N, x)[0])
        return float(mp.gamma(N + alpha + 1) * x ** (1 - radau) * mp.exp(x)
                     / ((N + alpha + 1) * mp.factorial(n) * LN ** 2))


def _assert_matches_plain(alpha, N):
    seeds = quadrature._seeds(alpha, N)
    assert (refine_newton(alpha, N, seeds).tobytes()
            == _plain_newton(alpha, N, seeds).tobytes())
    for kind in RuleKind:
        if kind is RuleKind.GAUSS or N >= 1:
            rule = (gauss_rule if kind is RuleKind.GAUSS
                    else gauss_radau_rule)(alpha, N)
            assert b"".join(v.tobytes() for v in (
                rule.nodes, rule.weights, rule.fun_weights)) \
                == _plain_rule(alpha, N, kind)


@pytest.fixture
def kernel_passes(monkeypatch):
    """``(alpha, degree, points)`` of each rescaled-kernel pass while the
    test runs; Newton and every stable view run through this name."""
    original = recurrence._rescaled_recurrence
    passes = []

    def counted(alpha, n, xs, out=None):
        passes.append((alpha, n, xs.size))
        return original(alpha, n, xs, out)

    monkeypatch.setattr(recurrence, "_rescaled_recurrence", counted)
    return passes


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

    def test_unsorted_eigenvalues_are_a_numeric_failure(self, monkeypatch):
        # the eigensolver's ascending order is checked, not restored
        solver = quadrature._tridiagonal_eigvals
        monkeypatch.setattr(quadrature, "_tridiagonal_eigvals",
                            lambda d, e: solver(d, e)[::-1])
        with pytest.raises(ArithmeticError,
                           match="not strictly increasing"):
            nodes_eigen_seed(0.0, 9)

    # 10 rows run dense in numpy, 500 rows (alpha below 0, which keeps the
    # eigen seeds) in scipy's tridiagonal solver
    @pytest.mark.parametrize("module, name, alpha, N", [
        (np.linalg, "eigvalsh", 0.0, 9),
        (scipy.linalg, "eigvalsh_tridiagonal", -0.5, 499)])
    def test_lapack_failure_is_a_numeric_failure(self, monkeypatch, module,
                                                 name, alpha, N):
        def fail(*args):
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        monkeypatch.setattr(module, name, fail)
        with pytest.raises(ArithmeticError, match="eigensolver failed"):
            gauss_rule(alpha, N)

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

    # N <= 2 covers the rule whose S is L_0 finalized on its own (N = 0)
    # and the first ones that read it from a kernel pass
    @pytest.mark.parametrize("alpha, N", [
        (0.0, 2048), (BENCH_ALPHA, 999), (0.0, 2050), (0.0, 999),
        (1.0, 998), (0.5, 0), (0.5, 1), (2.0, 2)])
    def test_bitwise_equal_to_plain_loop(self, alpha, N):
        _assert_matches_plain(alpha, N)

    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(-0.9, 20.0, exclude_min=True),
           N=st.integers(0, 300))
    def test_bitwise_equal_to_plain_loop_property(self, alpha, N):
        _assert_matches_plain(alpha, N)

    # caps 7 and 9 stop refine_newton's runs after every node has cycled,
    # at another phase than 10; cap 1 stops after one step, and the rule's
    # pass after Newton makes S at its final nodes.  The rules at alpha 0 and
    # BENCH_ALPHA finish every node in Halley's step; those at alpha 20 and
    # 50 send 39 and 377 nodes through Newton
    @pytest.mark.parametrize("cap", [1, 2, 7, 9])
    @pytest.mark.parametrize("alpha, N", [(0.0, 2048), (BENCH_ALPHA, 999),
                                          (20.0, 511), (50.0, 999)])
    def test_bitwise_equal_at_iteration_cap(self, monkeypatch, cap, alpha,
                                            N):
        monkeypatch.setattr(quadrature, "_NEWTON_MAX_ITERS", cap)
        _assert_matches_plain(alpha, N)

    @pytest.mark.parametrize("alpha, N", [
        (0.0, 2048), (BENCH_ALPHA, 999), (0.0, 2050)])
    def test_kernel_passes_per_rule(self, kernel_passes, alpha, N):
        # one pass at the seeds and the 128 doubles next to the 8 smallest:
        # Halley's step finishes every node, and the weights take S from
        # that pass
        gauss_rule(alpha, N)
        assert kernel_passes == [(alpha, N + 1, N + 1 + 128)]

    @pytest.mark.parametrize("alpha, N", [
        (0.0, 999), (BENCH_ALPHA, 999), (0.0, 2048)])
    def test_radau_kernel_passes_are_newtons(self, kernel_passes, alpha, N):
        # the interior nodes and weights come from one pass on the alpha+1
        # family at degree N, with no weight pass of their own
        gauss_radau_rule(alpha, N)
        assert kernel_passes == [(alpha + 1.0, N, N + 128)]

    def test_nodes_halley_cannot_vouch_for_go_through_newton(
            self, kernel_passes):
        # at alpha 20 the seeds near the top are off by 1e-7, so Halley's
        # remainder passes 1/16 ulp there: Newton's passes finish those
        # nodes, each on under a tenth of the rule, and every one of the top
        # 60 ends within 1 ulp of its zero (0.58 measured; 3.02 without
        # Newton), from one Newton step on the oracle's series at 160 bits
        N = 511
        nodes = gauss_rule(20.0, N).nodes
        assert len(kernel_passes) > 1
        assert all(p < (N + 1) / 10 for _, _, p in kernel_passes[1:])
        with mp.workprec(160):
            for x in nodes[-60:]:
                last, total = oracle._series(mp.mpf(20.0), N + 1, mp.mpf(x))
                zero = mp.mpf(x) + oracle._mpf(last) / oracle._mpf(total)
                assert abs(mp.mpf(x) - zero) <= np.spacing(x), x

    @pytest.mark.parametrize("N, steps", [(2048, 10), (19, 2)])
    def test_one_kernel_pass_per_newton_step(self, kernel_passes, N, steps):
        # (0, 2048) runs to the cap with 39 nodes in 2-cycles; the final
        # nodes take no pass of their own
        refine_newton(0.0, N, nodes_eigen_seed(0.0, N))
        assert kernel_passes == [(0.0, N + 1, N + 1)] * steps

    @pytest.mark.parametrize("alpha, N, passes, newton", [
        (20.0, 511, 3, 39), (50.0, 999, 4, 377)])
    def test_weight_pass_covers_only_newtons_nodes(self, kernel_passes,
                                                   alpha, N, passes, newton):
        # the seed pass, Newton's steps and one pass that gives S at the
        # nodes Newton finished
        gauss_rule(alpha, N)
        assert kernel_passes[1:] == [(alpha, N + 1, newton)] * (passes - 1)

    def test_iterate_that_is_no_abscissa_is_a_numeric_failure(self):
        # at alpha = 1e4 exp(-x/2) L underflows at every seed, the step is
        # 0/0, and the NaN iterate is due for evaluation on pass 1
        with np.errstate(all="ignore"), pytest.raises(
                ArithmeticError, match="Newton iterate 1, node 0: nan"):
            gauss_rule(1e4, 10)

    def test_escaped_node_falls_back_to_seed(self):
        seeds = nodes_eigen_seed(0.0, 9)
        # from just below the midpoint of seeds 3 and 4, where L' is
        # small, Newton leaves node 3's bracket
        seeds[3] = 0.5 * (seeds[3] + seeds[4]) - 0.02 * (seeds[4] - seeds[3])
        with pytest.warns(RuntimeWarning, match=r"indices \[3\]"):
            nodes = refine_newton(0.0, 9, seeds)
        assert nodes[3] == seeds[3]
        assert np.all(np.diff(nodes) > 0)


# the fast-seed grid: alpha from below the domain to 5, N from the first
# rule above the crossover to 4099 points
FAST_ALPHAS = [-0.5, 0.0, BENCH_ALPHA, 1.0, 2.0, 5.0]
FAST_NS = [quadrature._FAST_SEED_POINTS - 1, 999, 1024, 2048, 2050, 4098]
# worst seed error over this grid, relative to the eigen-seeded node:
# 3.8e-10 (alpha = 5 at N = 499, the 21st node from the top)
FAST_SEED_RTOL = 1e-9
# larger alpha over FAST_NS: the bound on the relative seed error and the
# most kernel passes of either kind of rule.  Measured: 1.28e-9 (the 21st
# node from the top at N = 499) and 1 at 7; 1.11e-7 (the same node) and 3
# at 20; 4.17e-6 (the same node) and 4 at 50.  Bessel zeros from the
# larger Ikebe matrix above alpha 5 keep the bottom nodes below these
HIGH_ALPHA_BOUNDS = {7.0: (1.5e-9, 1), 20.0: (1.5e-7, 3), 50.0: (5e-6, 4)}


@pytest.fixture(scope="module")
def eigen_newton():
    """Per (alpha, N), the eigen seeds and the nodes Newton makes of them,
    with every warning an error."""
    cache = {}

    def get(alpha, N):
        if (alpha, N) not in cache:
            seeds = nodes_eigen_seed(alpha, N)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cache[alpha, N] = {"seeds": seeds,
                                   "nodes": refine_newton(alpha, N, seeds)}
        return cache[alpha, N]
    return get


@pytest.fixture(scope="module")
def fast_rule():
    """Per (alpha, N), ``gauss_rule(alpha, N)`` built once, with every
    warning an error; a build that warns is not kept, so it raises again in
    each test that asks for it."""
    cache = {}

    def get(alpha, N):
        if (alpha, N) not in cache:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cache[alpha, N] = gauss_rule(alpha, N)
        return cache[alpha, N]
    return get


def _rule_passes(kernel_passes, alpha, N):
    """Kernel passes of ``gauss_rule(alpha, N)`` and of
    ``gauss_radau_rule(alpha, N)``."""
    counts = []
    for rule in (gauss_rule, gauss_radau_rule):
        kernel_passes.clear()
        rule(alpha, N)
        counts.append(len(kernel_passes))
    return counts


class _FastSeedChecks:
    def test_rules_do_not_warn(self, fast_rule, alpha, N):
        fast_rule(alpha, N)  # built with warnings as errors

    def test_nodes_within_16_ulps_of_eigen_seeded(self, eigen_newton,
                                                  fast_rule, alpha, N):
        # the rule's own nodes; node 0 below alpha = 0 is the next test's
        first = int(alpha < 0)
        ref = eigen_newton(alpha, N)["nodes"][first:]
        assert np.all(np.abs(fast_rule(alpha, N).nodes[first:] - ref)
                      <= 16 * np.spacing(ref))


# below alpha = 0 the smallest node, where the recurrence's absolute error
# dominates, depends on where Newton starts: the rule's ends up to 83 ulps
# from the eigen-seeded one (N = 999; 7 at N = 1024), a known defect kept
# visible here
@pytest.mark.parametrize("N", [N if N == 1024 else pytest.param(
    N, marks=pytest.mark.xfail(strict=True, reason="below alpha = 0 the "
                               "smallest node depends on its seed"))
    for N in FAST_NS])
def test_smallest_node_below_alpha_0_within_16_ulps(eigen_newton, fast_rule,
                                                     N):
    ref = eigen_newton(-0.5, N)["nodes"][0]
    assert abs(fast_rule(-0.5, N).nodes[0] - ref) <= 16 * np.spacing(ref)


@pytest.mark.parametrize("N", FAST_NS)
@pytest.mark.parametrize("alpha", FAST_ALPHAS)
class TestFastSeeds(_FastSeedChecks):
    def test_at_most_one_more_newton_pass(self, kernel_passes, alpha, N):
        # Halley's step finishes every node of both kinds: no Newton pass
        assert _rule_passes(kernel_passes, alpha, N) == [1, 1]

    def test_seed_error(self, eigen_newton, alpha, N):
        seeds, got = quadrature._seeds(alpha, N), eigen_newton(alpha, N)
        ref = got["nodes"]
        if alpha < 0:
            assert seeds.tobytes() == got["seeds"].tobytes()
        assert np.all(np.abs(seeds - ref) <= FAST_SEED_RTOL * ref)


@pytest.mark.parametrize("N", FAST_NS)
@pytest.mark.parametrize("alpha", list(HIGH_ALPHA_BOUNDS))
class TestFastSeedsAboveAlpha5(_FastSeedChecks):
    def test_newton_passes_and_seed_error(self, kernel_passes, eigen_newton,
                                          alpha, N):
        rtol, most = HIGH_ALPHA_BOUNDS[alpha]
        assert max(_rule_passes(kernel_passes, alpha, N)) <= most
        seeds = quadrature._seeds(alpha, N)
        ref = eigen_newton(alpha, N)["nodes"]
        assert np.all(np.abs(seeds - ref) <= rtol * ref)


class TestSeedPaths:
    @pytest.fixture
    def solves(self, monkeypatch):
        """Rows of every tridiagonal eigensolve while the test runs."""
        rows = []
        solver = quadrature._tridiagonal_eigvals
        monkeypatch.setattr(quadrature, "_tridiagonal_eigvals",
                            lambda d, e: rows.append(d.size) or solver(d, e))
        return rows

    @pytest.mark.parametrize("N", [quadrature._FAST_SEED_POINTS - 1, 4098])
    def test_no_full_size_eigensolve_above_crossover(self, solves, N):
        # the Bessel-zero matrix and a trailing block of 18 (N+1)^(1/3) rows
        gauss_rule(1.0, N)
        gauss_radau_rule(0.0, N + 1)  # interior: alpha 1, N points
        assert len(solves) == 4
        assert max(solves) <= 18 * (N + 1) ** (1 / 3) < (N + 1) / 3

    def test_no_full_size_eigensolve_above_alpha_5(self, solves):
        # per kind, the Bessel-zero matrix and a trailing block of 18 * 10 rows
        gauss_rule(5.5, 999)
        gauss_radau_rule(4.5, 1000)  # interior: alpha 5.5, 1000 points
        assert solves == [96, 180, 96, 180]

    @pytest.mark.parametrize("alpha, N", [
        (-0.25, 999), (1.0, quadrature._FAST_SEED_POINTS - 2)])
    def test_full_solve_outside_domain_or_below_crossover(self, solves,
                                                           alpha, N):
        gauss_rule(alpha, N)
        assert solves == [N + 1]

    def test_radau_interior_below_crossover(self, solves):
        # the interior family of the first fast Gauss size still has one
        # point fewer
        gauss_radau_rule(0.0, quadrature._FAST_SEED_POINTS - 1)
        assert solves == [quadrature._FAST_SEED_POINTS - 1]


class TestDenseEigensolve:
    """Below the crossover the eigensolve runs dense in numpy, and gives
    the bits of scipy's tridiagonal solver on every matrix the seeds build."""

    @pytest.fixture
    def matrices(self, monkeypatch):
        """(diag, off, eigenvalues) of every eigensolve while the test runs."""
        calls = []
        solver = quadrature._tridiagonal_eigvals

        def recorded(d, e):
            calls.append((d, e, solver(d, e)))
            return calls[-1][2]
        monkeypatch.setattr(quadrature, "_tridiagonal_eigvals", recorded)
        return calls

    def _check(self, calls, n):
        assert len(calls) == n
        for d, e, ev in calls:
            assert d.size < quadrature._FAST_SEED_POINTS  # the dense path
            assert ev.tobytes() == scipy.linalg.eigvalsh_tridiagonal(
                d, e).tobytes()

    @pytest.mark.parametrize("rows", [1, 2, 16, 96, 256, 499])
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.7, 1.0, 5.0, 7.0])
    def test_jacobi_matrices(self, matrices, alpha, rows):
        nodes_eigen_seed(alpha, rows - 1)
        self._check(matrices, 1)

    @pytest.mark.parametrize("N", [999, 2048, 4098, 16386])
    @pytest.mark.parametrize("alpha", [0.0, BENCH_ALPHA, 5.0, 50.0])
    def test_bessel_matrix_and_trailing_block(self, matrices, alpha, N):
        quadrature._seeds(alpha, N)
        self._check(matrices, 2)


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

    # worst relative error over these 13 nodes: 3.0e-14, at node 3500 of
    # the 4099-point rule (3.6e-13 with S at the rounded node, not carried
    # to the zero); the weight constant at alpha = 0 is exactly 0
    @pytest.mark.parametrize("N, idx", [
        (1023, np.round(np.linspace(512, 1023, 10)).astype(int)),
        (4098, [3500, 4000, 4098])])
    def test_fun_weights_against_200_bits(self, N, idx):
        rule = cached_gauss_rule(0.0, N)
        for j in idx:
            ref = _exact_fun_weight(0.0, N, RuleKind.GAUSS, rule.nodes[j])
            assert abs(rule.fun_weights[j] - ref) <= 1e-13 * ref, j

    # the three smallest nodes of the alpha = 0 rules, where L_N cancels
    # and S does not, node 0 at alpha != 0, where the lgamma constant
    # dominates, and both kinds' smallest, middle and top nodes
    @pytest.mark.parametrize("alpha, N, kind, idx, bound", [
        (0.0, 2048, RuleKind.GAUSS, [0, 1, 2], 1e-14),
        (0.0, 4098, RuleKind.GAUSS, [0, 1, 2], 1e-14),
        (0.0, 2048, RuleKind.GAUSS, [1024, 2048], 2e-12),
        (-0.5, 2048, RuleKind.GAUSS, [0], 1e-12),
        (20.0, 2048, RuleKind.GAUSS, [0], 1e-12),
        (BENCH_ALPHA, 999, RuleKind.GAUSS, [0], 1e-12),
        (0.0, 4098, RuleKind.GAUSS_RADAU, [1, 2, 3, 2049, 4098], 2e-12),
        (BENCH_ALPHA, 999, RuleKind.GAUSS_RADAU, [1, 2, 500, 999], 2e-12)])
    def test_fun_weights_at_exact_zeros(self, alpha, N, kind, idx, bound):
        rule = cached_gauss_rule(alpha, N, kind)
        for j in idx:
            ref = _exact_fun_weight(alpha, N, kind, rule.nodes[j])
            assert abs(rule.fun_weights[j] - ref) <= bound * ref, j

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

    @pytest.mark.parametrize("rule, alpha, N, match", [
        (gauss_rule, 150.0, 10, "Gauss rule weights"),
        (gauss_radau_rule, 150.0, 10, "Gauss-Radau rule weights"),
        (gauss_radau_rule, 1e3, 1, "Gauss-Radau weight w0")])
    def test_weights_out_of_range_are_numeric_failures(self, rule, alpha, N,
                                                       match):
        with np.errstate(all="ignore"), pytest.raises(ArithmeticError,
                                                      match=match):
            rule(alpha, N)

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

    @pytest.mark.parametrize("kind,nodes,weights,fun_weights,match", [
        (RuleKind.GAUSS_RADAU, [0.5, 1.0], [0.5, 0.5], [1.0, 1.0],
         "must include the endpoint 0"),
        ("radau", [0.5, 1.0], [0.5, 0.5], [1.0, 1.0],
         "must include the endpoint 0"),
        ("gauss", [0.0, 1.0], [0.5, 0.5], [1.0, 1.0], "all nodes > 0"),
        (RuleKind.GAUSS, [1.0, 2.0], [-0.5, 0.5], [1.0, 1.0],
         "weights must be positive"),
        (RuleKind.GAUSS, [1.0, 2.0], [0.5, 0.5], [1.0, np.inf],
         "function weights must be finite"),
        (RuleKind.GAUSS, [1.0, 2.0], [0.5, 0.5], [1.0, np.nan],
         "function weights must be finite"),
        ("bogus", [1.0, 2.0], [0.5, 0.5], [1.0, 1.0], "bogus"),
        # records that disagree with themselves, checked before any array
        # is read node by node
        ("gauss", [1.0, 2.0], [1.0], [1.0, 1.0, 3.0], "of one length"),
        ("gauss", [[1.0, 2.0]], [[0.5, 0.5]], [[1.0, 1.0]], "1-D arrays"),
        ("gauss", [], [], [], "nonempty"),
    ])
    def test_validation_branches(self, kind, nodes, weights, fun_weights,
                                 match):
        # a kind given by value gets its member's checks
        with pytest.raises(ValueError, match=match):
            GaussRule(alpha=0.0, kind=kind, nodes=np.array(nodes),
                      weights=np.array(weights),
                      fun_weights=np.array(fun_weights))

    def test_validation_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha must be finite"):
            GaussRule(alpha=-3.0, kind=RuleKind.GAUSS,
                      nodes=np.array([1.0, 2.0]),
                      weights=np.array([0.5, 0.5]),
                      fun_weights=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("value,member,first", [
        ("gauss", RuleKind.GAUSS, 1.0), ("radau", RuleKind.GAUSS_RADAU, 0.0)])
    def test_kind_given_by_value_is_stored_as_member(self, value, member,
                                                     first):
        rule = GaussRule(alpha=0.0, kind=value, nodes=np.array([first, 2.0]),
                         weights=np.array([0.5, 0.5]),
                         fun_weights=np.array([1.0, 1.0]))
        assert rule.kind is member


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

    # worst relative error over the 12 nodes: 1.7e-14 (node 908; 2.1e-13
    # with S at the rounded node, not carried to the zero) and 9.5e-13 (the
    # top node; at the second alpha lgamma's error in the constant
    # dominates)
    @pytest.mark.parametrize("alpha, bound", [
        (0.0, 5e-14), (BENCH_ALPHA, 1.75e-12)])
    def test_interior_weights_against_45_digits(self, alpha, bound):
        # the weights at the exact zeros, which Newton on the oracle's
        # series of the alpha+1 family finds from the rule's nodes
        N = 999
        rule = gauss_radau_rule(alpha, N)
        idx = np.round(np.linspace(1, N, 12)).astype(int)
        with mp.workdps(45):
            a = mp.mpf(alpha)
            c = mp.exp(mp.loggamma(N + a + 1) - mp.loggamma(N + 1)) / (
                N + a + 1)
            for j in idx:
                x = mp.mpf(float(rule.nodes[j]))
                for _ in range(6):
                    last, total = oracle._series(a + 1, N, x)
                    step = oracle._mpf(last) / -oracle._mpf(total)
                    x -= step
                    if abs(step) <= mp.mpf(10) ** -43 * x:
                        break
                ln = oracle._mpf(oracle._series(a, N, x)[0])
                ref = c * mp.exp(x) / ln ** 2
                assert abs(rule.fun_weights[j] - ref) <= bound * ref

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

    def test_kind_given_by_value(self):
        # "gauss" equals RuleKind.GAUSS as a cache key, so it must build
        # the Gauss rule the member's later lookup gets
        assert cached_gauss_rule(0.25, 11, "gauss").kind is RuleKind.GAUSS
        assert cached_gauss_rule(0.25, 11, RuleKind.GAUSS).kind \
            is RuleKind.GAUSS
        assert cached_gauss_rule(0.25, 11, "radau").kind \
            is RuleKind.GAUSS_RADAU

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            cached_gauss_rule(0.25, 11, "lobatto")

    def test_function_form_integration(self):
        # integral of e^{-2x} dx over (0, inf) = 1/2, integrand carries decay
        rule = gauss_rule(0.0, 40)
        got = rule.fun_weights @ np.exp(-2.0 * rule.nodes)
        assert got == pytest.approx(0.5, rel=1e-9)
