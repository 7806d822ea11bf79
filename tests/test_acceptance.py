"""Acceptance gate: one test per release criterion.

Each test is a self-contained end-to-end check of one headline capability.
Criteria that compare against literature-quoted values are asserted at the
quoted precision; where a quoted value is not reachable in the stated
metric, the test is kept faithful to the claim and the failure is analyzed
in its docstring rather than masked.
"""

import math

import numpy as np
import pytest
from mpmath import mp

from lagspec import errmodel, recurrence
from lagspec.oracle import _poly_series_mpf, hp_eval
from lagspec.problems import make_case
from lagspec.quadrature import (
    cached_gauss_rule,
    gauss_radau_rule,
    gauss_rule,
    nodes_eigen_seed,
    refine_newton,
)
from lagspec.recurrence import (
    LagParams,
    eval_fun_derivative,
    eval_poly_modified,
    eval_poly_standard,
)
from lagspec.spectral import (
    ModelProblem,
    assemble_system,
    beta_sweep,
    error_norms,
    solve,
)


def test_criterion_1_quadrature_golden_values():
    """Last weights of the 5/10/16-point Gauss rules and of the 17-point
    Radau rule match reference values to 4 significant digits.

    The 5- and 10-point Gauss values agree with independent tables.  The
    quoted 6.770e-23 is the last weight of the 17-point Gauss-Radau rule
    (Golub, SIAM Rev. 15, 1973), not of the 16-point Gauss rule, and is
    checked against the rule it belongs to.  The 16-point Gauss last
    weight is 4.161e-22.
    """
    for npoints, expected in ((5, 2.337e-5), (10, 9.912e-13)):
        rule = gauss_rule(0.0, npoints - 1)
        assert rule.weights[-1] == pytest.approx(expected, rel=5e-4, abs=0.0), \
            f"{npoints}-point last weight {rule.weights[-1]:.4e}"

    # 4.161462e-22 from scipy.special.roots_laguerre(16) (Golub-Welsch
    # eigen-solve), and 4.16146237037e-22 from x / (17^2 L_17(x)^2) on
    # 40-digit reference nodes
    gauss16 = gauss_rule(0.0, 15)
    assert gauss16.weights[-1] == pytest.approx(4.161e-22, rel=5e-4, abs=0.0), \
        f"16-point last weight {gauss16.weights[-1]:.4e}"

    # 6.770058714e-23 from a 50-digit Golub modified-Jacobi-matrix solve
    radau17 = gauss_radau_rule(0.0, 16)
    assert radau17.npoints == 17
    assert radau17.weights[-1] == pytest.approx(6.770e-23, rel=5e-4, abs=0.0), \
        f"17-point Radau last weight {radau17.weights[-1]:.4e}"


def test_criterion_2_exactness_property_suite():
    """Random polynomials of degree <= 2N+1 integrate to <= 1e-11 relative
    error against the closed-form moments.

    Coefficients are drawn for the Gamma-scaled monomial basis
    x^k / Gamma(k+alpha+1), whose exact integrals are the coefficients
    themselves; terms are assembled in log space so no intermediate value
    overflows at high degree.
    """
    rng = np.random.default_rng(20240817)
    for alpha in (0.0, 1.0, 2.0):
        for N in (4, 16, 64, 256):
            rule = cached_gauss_rule(alpha, N)
            k = np.arange(2 * N + 2, dtype=float)
            log_terms = (k[:, None] * np.log(rule.nodes)[None, :]
                         - rule.nodes[None, :]
                         - np.array([math.lgamma(kk + alpha + 1.0)
                                     for kk in k])[:, None])
            terms = np.exp(log_terms)  # shape (2N+2, N+1)
            for _ in range(50):
                g = rng.uniform(0.5, 1.5, size=2 * N + 2)
                got = (g @ terms) @ rule.fun_weights
                expect = g.sum()
                rel = abs(got - expect) / expect
                assert rel <= 1e-11, (
                    f"alpha={alpha} N={N}: relative error {rel:.3e}")


def test_criterion_3_stability_at_scale():
    """A 1000-point rule is constructed with all values finite, and the
    recorded negative test shows the naive squared-polynomial weight path
    stops working between 362 and 363 points."""
    rule = gauss_rule(0.0, 999)
    assert rule.npoints == 1000
    assert np.all(np.isfinite(rule.nodes))
    assert np.all(np.isfinite(rule.weights))
    assert np.all(np.isfinite(rule.fun_weights))
    vals, _ = recurrence.fun_value_deriv_stable(LagParams(alpha=0.0, n=999),
                                                rule.nodes)
    assert np.all(np.isfinite(vals))

    # negative test: the plain recurrence for the degree-(P-1) polynomial at
    # the largest node of a P-point scheme overflows once P reaches 363
    def plain_series_finite(P):
        nodes = nodes_eigen_seed(0.0, P - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            series = eval_poly_standard(LagParams(0.0, P - 1),
                                        float(nodes[-1]))
        return bool(np.all(np.isfinite(series)))

    assert plain_series_finite(362)
    assert not plain_series_finite(363)


def test_criterion_4_round_off_improvement(hp_ctx):
    """On the smallest 10 nodes of the 100-point rule, the difference
    recurrence is on average >= 2 decimal digits more accurate than the
    plain recurrence for the degree-99 value."""
    rule = cached_gauss_rule(0.0, 99)
    params = LagParams(alpha=0.0, n=99)
    gains = []
    with mp.workdps(hp_ctx.digits):
        for x in rule.nodes[:10]:
            ref = mp.mpf(hp_eval(hp_ctx, 0.0, 99, float(x))[0])
            std = eval_poly_standard(params, float(x))[-1]
            mod = eval_poly_modified(params, float(x))[-1]
            err_std = float(abs((mp.mpf(float(std)) - ref) / ref))
            err_mod = float(abs((mp.mpf(float(mod)) - ref) / ref))
            gains.append(math.log10(max(err_std, 1e-30)
                                    / max(err_mod, 1e-30)))
    mean_gain = float(np.mean(gains))
    assert mean_gain >= 2.0, f"mean digit gain {mean_gain:.2f}"


def test_criterion_5_newton_refinement(oracle_nodes_256):
    """At 256 points, Newton-refined nodes of the largest quartile reach
    1e-15 relative accuracy while raw eigenvalue seeds alone do not stay
    within 1e-14 over the full node set."""
    seeds = nodes_eigen_seed(0.0, 255)
    refined = refine_newton(0.0, 255, seeds)
    ref = oracle_nodes_256
    rel_seeds = np.abs(seeds - ref) / ref
    rel_refined = np.abs(refined - ref) / ref
    quartile = slice(192, 256)
    assert np.max(rel_refined[quartile]) <= 1e-15, (
        f"refined quartile max {np.max(rel_refined[quartile]):.3e}")
    assert np.max(rel_seeds) > 1e-14, (
        f"seeds unexpectedly accurate: {np.max(rel_seeds):.3e}")


def test_criterion_6_pde_golden_value():
    """Algebraic-decay benchmark at N=1024, beta=0.6: quoted L2 error
    below 3e-13.

    Fails in the continuous L2 norm, at 1.07e-8, and the target is kept as
    quoted until the source of the 3e-13 figure settles its norm.  The
    cause is tail truncation, not the solver:

    * psi_n(beta x) for n < 1024 is exponentially small beyond
      x ~ 4 N / beta ~ 6827, where the exact solution's L2 norm is
      (1+x)^{-2} / 2 = 1.07e-8; essentially all of the squared error lies
      there.  Continuous L2 below 3e-13 would need 4 N / beta > 1.3e6.
    * The interior error does not depend on the quadrature order:
      max |e| on x <= 10 is 2.9e-12 at both M = 2048 and M = 4096.
    * It falls with N: max |e| on x <= 10 is 2.7e-11, 2.9e-12 and 6e-13
      at N = 512, 1024 and 2048 (M = 2N, 2001 uniform samples).
    * The Galerkin solution is the energy-norm best approximation in the
      trial space, so no solver choice removes the tail.
    * No other norm tried reaches 3e-13 at this configuration: the
      e^{-y}-weighted discrete L2 is 1.65e-12, max |e| on [0, 2] is
      2.0e-12, and the discrete L2 at the solve's own M + 1 nodes is
      1.04e-8.
    """
    case = make_case("u2", r=2.5, gamma=2.0)
    sol = solve(case.problem, 1024, 2048, 0.6)
    rep = error_norms(sol)
    assert rep.l2_error < 3e-13, f"L2 error {rep.l2_error:.3e}"


def test_criterion_7_optimal_beta_reproduction():
    """For the oscillatory exponential-decay benchmark the predicted
    scaling 4.47 is the best grid value at every basis count, and the
    error there decays by >= 10x per doubling until the round-off floor."""
    case = make_case("u1", k=2.0, gamma=2.0)
    betas = [1.0, 2.0, 4.47, 8.0, 16.0]
    cells = beta_sweep(case.problem, [64, 128, 256], betas)
    by_n = {}
    for c in cells:
        by_n.setdefault(c["N"], {})[c["beta"]] = c["l2_error"]
    for N, errs in by_n.items():
        best = min(errs.values())
        at_pred = errs[4.47]
        # once every column has hit the round-off floor the argmin is a
        # coin flip among floor values; accept ties within 10x of the floor
        assert at_pred == best or (best <= 1e-12 and at_pred <= 10 * best), (
            f"N={N}: predicted-beta error {at_pred:.3e}, best {best:.3e}")
    # away from the floor the predicted value must win outright
    assert min(by_n[64], key=by_n[64].get) == 4.47

    errs = []
    for N in (8, 16, 32, 64):
        sol = solve(case.problem, N, 2 * N, 4.47)
        errs.append(error_norms(sol).l2_error)
    for a, b in zip(errs, errs[1:]):
        if a < 1e-13:  # saturated
            break
        assert a / b >= 10.0, f"decay ratio {a / b:.1f} below 10"


def test_criterion_8_error_bound_domination():
    """For 20 sampled configurations satisfying the bound hypotheses,
    simulated and oracle-measured recurrence errors stay below the
    explicit bounds for all degrees up to 500."""
    rng = np.random.default_rng(42)
    n_max = 500
    eta = 0.25
    for i in range(20):
        x = float(rng.uniform(0.02, 0.24))
        if i % 2 == 0:  # non-expansive draw
            alpha = float(rng.uniform(-0.5, min(0.25, (0.75 - x) / 2.0)))
        else:  # expansive draw
            lo = max((0.75 - x) / 2.0 + 0.01, 0.0)
            hi = (2.25 - x) / 2.0 - 0.01
            alpha = float(rng.uniform(lo, hi))
        series = eval_poly_standard(LagParams(alpha, n_max), x)
        zeta_running = np.maximum.accumulate(
            errmodel.zeta_envelopes(alpha, n_max, x))
        e1 = abs(1.0 + alpha - x) * errmodel.DOUBLE_EPS
        sim = errmodel.simulate_error_propagation(alpha, n_max, x,
                                                  rng_seed=i)
        with mp.workdps(30):
            ref = _poly_series_mpf(mp.mpf(alpha), n_max, mp.mpf(x))
            meas = np.array([float(abs(mp.mpf(float(series[n]))
                                       - ref[n]))
                             for n in range(n_max + 1)])
        for n in range(1, n_max):
            inp = errmodel.ErrorBoundInput(
                n=n, alpha=alpha, x=x, eta=eta, e1=e1,
                zeta_max=float(zeta_running[n - 1]))
            abs_bound = errmodel.abs_error_bound(inp)
            res = errmodel.energy_bound(inp)
            assert abs(sim[n + 1]) <= abs_bound, (
                f"cfg {i} (alpha={alpha:.3f}, x={x:.3f}) n={n}: "
                f"simulated {abs(sim[n + 1]):.3e} > bound {abs_bound:.3e}")
            assert meas[n + 1] <= abs_bound, (
                f"cfg {i} n={n}: measured {meas[n + 1]:.3e} > bound")
            energy = (x * sim[n + 1] ** 2
                      + (n + 1 + alpha) * (sim[n + 1] - sim[n]) ** 2)
            assert energy <= res.energy_bound, (
                f"cfg {i} n={n}: energy {energy:.3e} > bound")


def test_criterion_9_invariant_suite():
    """Structural invariants: interlacing, weight positivity and total
    mass, the Radau/shifted-family link, closed-form system matrices vs
    quadrature assembly, trial-space exactness, and invariance of the
    rescaled evaluation under its check schedule."""
    # node interlacing between consecutive rule sizes
    for alpha, N in ((0.0, 40), (1.5, 25)):
        small = gauss_rule(alpha, N - 1).nodes
        large = gauss_rule(alpha, N).nodes
        assert np.all(large[:-1] < small) and np.all(small < large[1:])

    # weight positivity and total mass
    for alpha in (0.0, 0.5, 2.0):
        rule = gauss_rule(alpha, 50)
        assert np.all(rule.weights >= 0)
        assert np.all(rule.fun_weights > 0)
        assert rule.weights.sum() == pytest.approx(math.gamma(alpha + 1.0),
                                                   rel=1e-12)

    # Radau interior nodes are the shifted-family Gauss nodes, and the
    # combined rule keeps the closed-form moments through degree 2N
    alpha, N = 0.5, 12
    radau = gauss_radau_rule(alpha, N)
    shifted = gauss_rule(alpha + 1.0, N - 1)
    np.testing.assert_allclose(radau.nodes[1:], shifted.nodes, rtol=1e-14)
    for k in (0, 7, 2 * N):
        got = float((radau.nodes ** k) @ radau.weights)
        assert got == pytest.approx(math.gamma(k + alpha + 1.0), rel=1e-11)

    # closed-form mass/stiffness vs quadrature assembly, entrywise 1e-12
    N, gamma_eff = 16, 0.5
    rule = gauss_rule(0.0, 2 * N + 2)
    lhat = recurrence.fun_series_stable(LagParams(alpha=0.0, n=N), rule.nodes)
    psi, dpsi = lhat[:-1] - lhat[1:], 0.5 * (lhat[:-1] + lhat[1:])
    w = rule.fun_weights
    full = (dpsi * w) @ dpsi.T + gamma_eff * ((psi * w) @ psi.T)
    diag, off = assemble_system(N, gamma_eff)
    assert np.max(np.abs(np.diag(full) - diag)) < 1e-12
    assert np.max(np.abs(np.diag(full, 1) - off)) < 1e-12
    stray = full.copy()
    stray -= np.diag(np.diag(stray))
    stray -= np.diag(np.diag(stray, 1), 1) + np.diag(np.diag(stray, -1), -1)
    assert np.max(np.abs(stray)) < 1e-12

    # Galerkin exactness for data in the trial space: the forcing whose
    # exact solution is psi_2(beta x), with psi_2'' = (Lhat_2' + Lhat_3')/2
    beta, gamma = 2.0, 1.5

    def f(x):
        y = beta * np.atleast_1d(np.asarray(x, dtype=float))
        lhat = recurrence.fun_series_stable(LagParams(alpha=0.0, n=3), y)
        psi = lhat[:-1] - lhat[1:]
        upp = np.empty(y.size)
        for i, yi in enumerate(y):
            d = eval_fun_derivative(LagParams(alpha=0.0, n=3), float(yi))
            upp[i] = 0.5 * (d[2] + d[3])
        return -beta ** 2 * upp + gamma * psi[2]

    sol = solve(ModelProblem(gamma=gamma, f=f), 8, 16, beta)
    expect = np.zeros(8)
    expect[2] = 1.0
    assert np.max(np.abs(sol.coeffs - expect)) <= 1e-10

    # the rescaling schedule must not change results beyond a few ulps;
    # probe between the zeros, where the value is not cancellation-limited
    params = LagParams(alpha=0.0, n=500)
    nodes = gauss_rule(0.0, 499).nodes
    probe = 0.5 * (nodes[:-1] + nodes[1:])[[0, 125, 250, 375, 498]]
    base, _ = recurrence.fun_value_deriv_stable(params, probe)
    for margin in (0.0, 8.0, 200.0, 700.0):
        with pytest.MonkeyPatch.context() as mpatch:
            mpatch.setattr(recurrence, "_CHECK_MARGIN", margin)
            other, _ = recurrence.fun_value_deriv_stable(params, probe)
        assert np.all(np.abs(other - base) <= 4.0 * np.spacing(np.abs(base)))
