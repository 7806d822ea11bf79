"""Tests for the half-line Galerkin solver and the benchmark cases."""

import dataclasses
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solveh_banded

from lagspec import spectral
from lagspec.problems import make_case
from lagspec.quadrature import gauss_rule
from lagspec.recurrence import LagParams, fun_series_stable
from lagspec.spectral import (
    ErrorReport,
    ModelProblem,
    assemble_system,
    beta_sweep,
    error_norms,
    optimal_beta_exponential,
    project_rhs,
    solve,
)


def _basis(N, y):
    """``(psi, dpsi)`` at ``y`` by their definition from one stable series."""
    lhat = fun_series_stable(LagParams(0.0, N), np.asarray(y, dtype=float))
    return lhat[:-1] - lhat[1:], 0.5 * (lhat[:-1] + lhat[1:])


def _coeff_maps(c):
    """``(d, e)`` by their definition: ``d_m = c_m - c_{m-1}`` and ``e_m =
    (c_m + c_{m-1}) / 2`` with ``c_{-1} = c_N = 0``, the weights of the
    series rows that the solver uses for ``c @ psi`` and ``c @ dpsi``."""
    p = np.concatenate(([0.0], c, [0.0]))
    return p[1:] - p[:-1], (p[1:] + p[:-1]) / 2


def _trial_space_forcing(beta, gamma):
    """Forcing whose exact solution is psi_2(beta x), via the closed-form
    second derivative psi_2'' = (Lhat_2' + Lhat_3') / 2."""
    from lagspec.recurrence import LagParams, eval_fun_derivative

    def f(x):
        y = beta * np.atleast_1d(np.asarray(x, dtype=float))
        psi, _ = _basis(3, y)
        upp = np.empty(y.size)
        for i, yi in enumerate(y):
            d = eval_fun_derivative(LagParams(0.0, 3), float(yi))
            upp[i] = 0.5 * (d[2] + d[3])
        return -beta ** 2 * upp + gamma * psi[2]

    return f


def _quadrature_mass_stiffness(N):
    """Independent assembly of (psi_m', psi_n') and (psi_m, psi_n)."""
    rule = gauss_rule(0.0, 2 * N + 2)
    psi, dpsi = _basis(N, rule.nodes)
    w = rule.fun_weights
    mass = (psi * w) @ psi.T
    stiff = (dpsi * w) @ dpsi.T
    return mass, stiff


class TestBasis:
    def test_origin_value_zero(self):
        psi, _ = _basis(6, np.array([0.0]))
        assert psi[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert psi[5, 0] == pytest.approx(0.0, abs=1e-13)

    def test_psi0_at_one(self):
        # L_0(1) = 1, L_1(1) = 0, so psi_0(1) = e^{-1/2}
        psi, _ = _basis(1, np.array([1.0]))
        assert psi[0, 0] == pytest.approx(math.exp(-0.5), rel=1e-13)

    def test_deriv_finite_difference(self):
        y, h = 2.7, 1e-6
        psi, dpsi = _basis(4, np.array([y + h, y - h, y]))
        fd = (psi[3, 0] - psi[3, 1]) / (2 * h)
        assert dpsi[3, 2] == pytest.approx(fd, abs=1e-8)

    def test_matrices_shapes(self):
        y = np.linspace(0.1, 8.0, 5)
        psi, dpsi = _basis(4, y)
        assert psi.shape == (4, 5)
        assert dpsi.shape == (4, 5)

    def test_evaluate_equals_definition_bitwise(self):
        # each evaluator weights the rows of the one series it builds
        sol = solve(make_case("u1").problem, 16, 32, 2.0)
        x = np.linspace(0.0, 30.0, 41)
        lhat = fun_series_stable(LagParams(0.0, 16), sol.beta * x)
        d, e = _coeff_maps(sol.coeffs)
        assert sol.evaluate(x).tobytes() == (d @ lhat).tobytes()
        assert sol.evaluate_deriv(x).tobytes() == \
            (sol.beta * (e @ lhat)).tobytes()

    @pytest.mark.parametrize("N", [8, 64])
    def test_coefficient_maps_equal_psi_definition(self, N):
        # the trial space is psi: synthesis and projection through the
        # series agree with psi and dpsi to round-off, within the bound of
        # a length-(N+2) dot product of terms of size |c_n| |Lhat| <= |c_n|
        # (and |g w| for the projection)
        eps = np.finfo(float).eps
        problem, beta = make_case("u1").problem, 2.0
        sol = solve(problem, N, 2 * N, beta)
        rule = gauss_rule(0.0, 2 * N)
        x = rule.nodes / beta
        psi, dpsi = _basis(N, rule.nodes)
        tol = 4 * (N + 2) * eps * np.abs(sol.coeffs).sum()
        np.testing.assert_allclose(sol.evaluate(x), sol.coeffs @ psi,
                                   rtol=0, atol=tol)
        np.testing.assert_allclose(sol.evaluate_deriv(x),
                                   beta * (sol.coeffs @ dpsi), rtol=0,
                                   atol=beta * tol)
        gw = problem.f(x) * rule.fun_weights
        np.testing.assert_allclose(
            project_rhs(problem, N, 2 * N, beta), psi @ gw / beta ** 2,
            rtol=0, atol=4 * (2 * N + 2) * eps * np.abs(gw).sum() / beta ** 2)

    def test_evaluate_memory_one_matrix(self):
        # a memory count, not a timing: evaluate holds the series it
        # weights and no second (N+1) x len(x) matrix
        N, x = 512, np.linspace(0.0, 200.0, 4000)
        sol = solve(make_case("u2").problem, N, 2 * N, 0.6)
        sol.evaluate(x[:8])  # one-off allocations
        tracemalloc.start()
        try:
            sol.evaluate(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix = 8 * (N + 1) * x.size
        assert peak < 1.6 * matrix, f"peak {peak / matrix:.2f} matrices"


class TestAssembly:
    def test_small_closed_form(self):
        diag, off = assemble_system(2, 1.0)
        np.testing.assert_allclose(diag, [2.5, 2.5])
        np.testing.assert_allclose(off, [-0.75])

    def test_mass_part_against_quadrature(self):
        mass, _ = _quadrature_mass_stiffness(6)
        expect = 2.0 * np.eye(6) - np.eye(6, k=1) - np.eye(6, k=-1)
        np.testing.assert_allclose(mass, expect, atol=1e-13)

    def test_full_matrix_against_quadrature(self):
        N, gamma_eff = 64, 0.5
        mass, stiff = _quadrature_mass_stiffness(N)
        full = stiff + gamma_eff * mass
        diag, off = assemble_system(N, gamma_eff)
        np.testing.assert_allclose(np.diag(full), diag, atol=1e-12)
        np.testing.assert_allclose(np.diag(full, 1), off, atol=1e-12)
        # everything beyond the first off-diagonal vanishes
        far = full - np.diag(np.diag(full)) \
            - np.diag(np.diag(full, 1), 1) - np.diag(np.diag(full, -1), -1)
        assert np.max(np.abs(far)) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            assemble_system(0, 1.0)
        with pytest.raises(ValueError):
            assemble_system(4, 0.0)

    @pytest.mark.parametrize("gamma_eff", [1e308, math.inf, math.nan])
    def test_diagonal_must_be_finite(self, gamma_eff):
        # 0.5 + 2 gamma_eff overflows from gamma_eff = 2^1023 on
        with pytest.raises(ValueError, match="gamma_eff"):
            assemble_system(4, gamma_eff)
        below = np.nextafter(2.0 ** 1023, 0.0)
        assert np.isfinite(assemble_system(4, below)[0]).all()


class TestRhsAndSolve:
    def test_zero_forcing_gives_zero_vector(self):
        prob = ModelProblem(gamma=1.0, f=lambda x: np.zeros_like(x))
        b = project_rhs(prob, 6, 12, 1.0)
        np.testing.assert_array_equal(b, np.zeros(6))

    def test_quadrature_order_guard(self):
        prob = ModelProblem(gamma=1.0, f=lambda x: np.zeros_like(x))
        with pytest.raises(ValueError):
            project_rhs(prob, 8, 8, 1.0)

    @pytest.mark.parametrize("N", [0, -3])
    def test_basis_size_guard(self, N):
        prob = ModelProblem(gamma=1.0, f=lambda x: np.zeros_like(x))
        with pytest.raises(ValueError, match="N must be >= 1"):
            project_rhs(prob, N, 8, 1.0)

    def test_nonfinite_forcing_reported(self):
        prob = ModelProblem(gamma=1.0, f=lambda x: np.full_like(np.asarray(x, dtype=float), np.nan))
        with pytest.raises(ArithmeticError, match="node"):
            project_rhs(prob, 4, 8, 1.0)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf,
                                      1e200, 1e-200, 1e-160])
    def test_bad_beta_rejected(self, beta):
        case = make_case("u1")
        for call in (solve, project_rhs):
            with pytest.raises(ValueError, match="beta"):
                call(case.problem, 8, 16, beta)

    def test_rhs_deterministic(self):
        case = make_case("u1")
        a = project_rhs(case.problem, 8, 16, 1.0)
        b = project_rhs(case.problem, 8, 16, 1.0)
        np.testing.assert_array_equal(a, b)

    def test_manufactured_rhs_matches_matrix_column(self):
        # f chosen so u = psi_0(beta x): then b = A e_0
        beta, gamma = 1.3, 0.7

        def f(x):
            y = beta * x
            # -u'' + gamma u with u = psi_0(y), using the recurrences directly
            psi, _ = _basis(2, np.atleast_1d(y))
            val = psi[0]
            # psi_0(y) = y e^{-y/2}, so -(d/dx)^2 psi_0(beta x) =
            # beta^2 (4 - y)/4 e^{-y/2}
            return beta ** 2 * (4.0 - y) / 4.0 * np.exp(-y / 2.0) + gamma * val

        prob = ModelProblem(gamma=gamma, f=f)
        b = project_rhs(prob, 5, 12, beta)
        diag, off = assemble_system(5, gamma / beta ** 2)
        expect = np.zeros(5)
        expect[0] = diag[0]
        expect[1] = off[0]
        np.testing.assert_allclose(b, expect, atol=1e-11)

    def test_manufactured_solution_exact(self):
        # u(x) = psi_2(beta x) lies in the trial space: coeffs = e_2
        beta, gamma, N = 2.0, 1.5, 8
        sol = solve(ModelProblem(gamma=gamma, f=_trial_space_forcing(beta, gamma)),
                    N, 2 * N, beta)
        expect = np.zeros(N)
        expect[2] = 1.0
        np.testing.assert_allclose(sol.coeffs, expect, atol=1e-10)

    def test_galerkin_orthogonality(self):
        case = make_case("u1")
        N, M, beta = 16, 32, 2.0
        sol = solve(case.problem, N, M, beta)
        diag, off = assemble_system(N, case.problem.gamma / beta ** 2)
        b = project_rhs(case.problem, N, M, beta)
        A = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        residual = A @ sol.coeffs - b
        assert np.max(np.abs(residual)) < 1e-10
        # solve is exactly these public steps
        ab = np.zeros((2, N))
        ab[0, 1:], ab[1] = off, diag
        assert sol.coeffs.tobytes() == solveh_banded(ab, b).tobytes()

    def test_default_m_is_2n(self):
        case = make_case("u1")
        sol = solve(case.problem, 8)
        assert sol.M == 16

    def test_evaluate_scalar_and_array(self):
        case = make_case("u1")
        sol = solve(case.problem, 16, 32, 2.0)
        xs = np.array([0.5, 1.5])
        arr = sol.evaluate(xs)
        assert arr.shape == (2,)
        assert sol.evaluate(0.5) == pytest.approx(arr[0])
        darr = sol.evaluate_deriv(xs)
        h = 1e-6
        fd = (sol.evaluate(0.5 + h) - sol.evaluate(0.5 - h)) / (2 * h)
        assert darr[0] == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("shape", [(9, 2), (2, 3), (1, 1, 4)])
    def test_evaluate_keeps_the_shape_of_x(self, shape):
        # x of any shape is evaluated at its raveled values: bitwise the
        # 1-d call, and each entry the scalar call's value to the last
        # bits, which the product takes from its column count
        sol = solve(make_case("u1").problem, 8, None, 1.0)
        x = np.linspace(0.1, 3.0, math.prod(shape)).reshape(shape)
        for at in (sol.evaluate, sol.evaluate_deriv):
            got = at(x)
            assert got.shape == shape
            assert got.tobytes() == at(x.ravel()).tobytes()
            np.testing.assert_allclose(
                got.ravel(), [at(v) for v in x.ravel()], rtol=1e-15,
                atol=1e-16)

    @pytest.mark.parametrize("deriv", [False, True])
    def test_evaluate_where_beta_x_overflows(self, deriv):
        # beta x = 2e308 is clamped to the top double, where every basis
        # function has underflowed: zeros, and no overflow warning
        sol = solve(make_case("u1").problem, 8, None, 2.0)
        at = sol.evaluate_deriv if deriv else sol.evaluate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert at(1e308) == 0.0
            out = at(np.array([0.5, 1e308]))
        assert out[1] == 0.0 and out[0] == pytest.approx(at(0.5)) != 0.0

    @pytest.mark.parametrize("x,shown", [(-1.0, "-1.0"), (math.nan, "nan"),
                                         ([0.5, -1.0], "-1.0")])
    def test_bad_abscissa_named_as_given(self, x, shown):
        # the check sees x, not beta x
        sol = solve(make_case("u1").problem, 8, None, 2.0)
        for at in (sol.evaluate, sol.evaluate_deriv):
            with pytest.raises(ValueError, match=f"got {shown}$"):
                at(x)


def _banded(diag, off, b):
    """scipy's solve of the system ``(diag, off) x = b``: the reference."""
    ab = np.zeros((2, len(diag)))
    ab[0, 1:], ab[1] = off, diag
    return solveh_banded(ab, b)


# the benchmark's ``sweep`` grid: u1 and u3 over N in {64, 128, 256, 512},
# u3's betas as given and with the jitter of its seed 1
_U3_BETAS = [0.25, 0.5, 1.0, 2.0, 4.0]
_jitter = random.Random(1)
_SWEEP_GRID = [("u1", [1.0, 2.0, 4.47, 8.0, 16.0]), ("u3", _U3_BETAS),
               ("u3", [b * _jitter.uniform(0.9, 1.1) for b in _U3_BETAS])]


class TestTridiagonalSolve:
    """The solve is LAPACK dptsv's arithmetic in Python floats: every bit
    of ``scipy.linalg.solveh_banded``, and dpttrf's failing row."""

    # N covers every remainder of dpttrf's unroll by 4
    @pytest.mark.parametrize("gamma_eff", [1e-300, 1e-8, 2 / 256, 0.1, 0.25,
                                           0.3, 2.0, 1e10, 1e300])
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 9, 64, 512, 1024, 4096])
    def test_bitwise_solveh_banded(self, N, gamma_eff):
        rng = np.random.default_rng(N)
        diag, off = assemble_system(N, gamma_eff)
        # entries over +-300 decades, so that some solutions go subnormal
        wide = rng.standard_normal(N) * 10.0 ** rng.uniform(-300, 300, N)
        for b in (np.ones(N), rng.standard_normal(N), wide):
            x = spectral._tridiagonal_solve(diag, off, b)
            assert x.tobytes() == _banded(diag, off, b).tobytes()

    @pytest.mark.parametrize("name, betas", _SWEEP_GRID)
    def test_bitwise_on_the_benchmark_sweep_grid(self, name, betas):
        problem = make_case(name).problem
        for N in (64, 128, 256, 512):
            for beta in betas:
                b = project_rhs(problem, N, 2 * N, beta)
                diag, off = assemble_system(N, problem.gamma / beta ** 2)
                x = spectral._tridiagonal_solve(diag, off, b)
                assert x.tobytes() == _banded(diag, off, b).tobytes()

    @pytest.mark.parametrize("diag, off", [
        ([-1.0, 2.0, 2.0], [0.5, 0.5]),
        ([1.0, 0.0, 1.0], [0.0, 0.0]),  # an exact zero pivot
        ([1.0] * 4 + [-1.0], [0.0] * 4),  # the last row
        *[([1.0] * 12, [c] * 11) for c in (0.55, 0.6, 0.8, 1.5)]])
    def test_not_positive_definite_fails_at_lapacks_row(self, diag, off):
        diag, off, b = np.array(diag), np.array(off), np.ones(len(diag))
        with pytest.raises(LinAlgError) as ref:
            _banded(diag, off, b)
        row = int(str(ref.value).split("th ")[0])
        with pytest.raises(ArithmeticError,
                           match=f"^Galerkin matrix row {row}: pivot"):
            spectral._tridiagonal_solve(diag, off, b)

    def test_one_row(self):
        # x = b / d, not dptts2's b * (1 / d), which differs here
        x = spectral._tridiagonal_solve(np.array([7.0]), np.array([]),
                                        np.array([0.1]))
        assert x.tolist() == [0.1 / 7.0] != [0.1 * (1 / 7.0)]
        with pytest.raises(ArithmeticError, match="row 1: pivot -3.0"):
            spectral._tridiagonal_solve(np.array([-3.0]), np.array([]),
                                        np.array([1.0]))

    def test_solve_with_one_basis_function(self):
        problem = make_case("u3").problem
        sol = solve(problem, 1, None, 1.0)
        b = project_rhs(problem, 1, 2, 1.0)
        assert sol.coeffs.tolist() == [b[0] / assemble_system(1, 2.0)[0][0]]
        assert sol.coeffs[0] == pytest.approx(0.08023805, abs=5e-9)
        cells = beta_sweep(problem, [1, 2], [0.5, 1.0])
        assert all(c["error"] is None and c["l2_error"] > 0 for c in cells)

    def test_overflowing_load_vector_is_a_numeric_failure(self):
        # f = 1e308 is finite; its projection at N = 8 is not, and numpy's
        # overflow and invalid-value warnings stay inside project_rhs
        prob = ModelProblem(gamma=1.0, f=lambda x: np.full_like(x, 1e308))
        for call in (project_rhs, solve):
            with warnings.catch_warnings(), \
                    pytest.raises(ArithmeticError, match="load vector"):
                warnings.simplefilter("error")
                call(prob, 8, 16, 1.0)


class TestErrorNorms:
    def test_self_comparison_is_zero(self):
        case = make_case("u1")
        sol = solve(case.problem, 16, 32, 2.0)
        prob = ModelProblem(gamma=case.problem.gamma, f=case.problem.f,
                            u_exact=lambda x: sol.evaluate(x),
                            u_exact_prime=None)
        rep = error_norms(dataclasses.replace(sol, problem=prob))
        assert rep.l2_error <= 1e-13

    def test_problem_argument_rejected(self):
        # norms are taken against sol.problem; a second positional argument
        # must not turn the quadrature check on
        case = make_case("u1")
        sol = solve(case.problem, 8, 16, 1.0)
        with pytest.raises(TypeError):
            error_norms(sol, case.problem)

    def test_missing_exact_solution_rejected(self):
        prob = ModelProblem(gamma=1.0, f=lambda x: np.zeros_like(x))
        sol = solve(prob, 4, 8, 1.0)
        with pytest.raises(ValueError):
            error_norms(sol)

    @pytest.mark.parametrize("field", ["u_exact", "u_exact_prime"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_nonfinite_exact_sample_names_its_node(self, field, bad):
        # an l2 of inf, or an H1 NaN that reads as "no derivative", would
        # hide where the exact solution is not finite
        case = make_case("u1")
        exact = getattr(case.problem, field)

        def spoilt(x):
            v = np.array(exact(x), dtype=float)
            v[x > 3.0] = bad
            return v

        prob = dataclasses.replace(case.problem, **{field: spoilt})
        sol = solve(prob, 8, 16, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError) as err:
                error_norms(sol)
        assert str(err.value).startswith(f"{field} non-finite at node x = ")
        x = float(str(err.value).rsplit(" ", 1)[1])
        assert x > 3.0 and x in gauss_rule(0.0, 34).nodes
        cell = beta_sweep(prob, [8], [1.0])[0]
        assert cell["error"] == str(err.value)
        assert cell["l2_error"] is None and cell["h1_error"] is None

    def test_report_type_and_echo(self):
        case = make_case("u1")
        sol = solve(case.problem, 16, 32, 2.0)
        rep = error_norms(sol)
        assert isinstance(rep, ErrorReport)
        assert rep.N == 16 and rep.beta == 2.0
        assert rep.l2_error >= 0 and rep.h1_semi_error >= 0

    def test_quadrature_check_field(self):
        case = make_case("u1")
        sol = solve(case.problem, 16, 32, 2.0)
        rep = error_norms(sol, check_quadrature=True)
        assert rep.quad_error_estimate is not None
        assert rep.quad_error_estimate < rep.l2_error

    def test_quadrature_check_takes_no_derivative(self):
        # the check reports an L2 norm only: u' is sampled at the 35 nodes
        # of the norm rule and not at the 65 of the check's rule
        case = make_case("u1")
        sizes = []

        def prime(x):
            sizes.append(np.size(x))
            return case.problem.u_exact_prime(x)

        prob = dataclasses.replace(case.problem, u_exact_prime=prime)
        rep = error_norms(solve(prob, 8, 16, 1.0), check_quadrature=True)
        assert sizes == [35]
        plain = error_norms(solve(case.problem, 8, 16, 1.0),
                            check_quadrature=True)
        assert rep == plain

    def test_u1_converges_geometrically(self):
        case = make_case("u1")
        beta = optimal_beta_exponential(-1.0, 2.0)
        errs = []
        for N in (16, 32, 64):
            sol = solve(case.problem, N, 2 * N, beta)
            errs.append(error_norms(sol).l2_error)
        assert errs[0] / errs[1] >= 10
        assert errs[1] / errs[2] >= 10


class TestOptimalBeta:
    def test_known_values(self):
        assert optimal_beta_exponential(-1.0, 2.0) == pytest.approx(
            2.0 * math.sqrt(5.0), rel=1e-14)
        assert optimal_beta_exponential(-1.0) == pytest.approx(2.0)
        assert optimal_beta_exponential(-3.0, 4.0) == pytest.approx(10.0)

    def test_growth_rejected(self):
        with pytest.raises(ValueError):
            optimal_beta_exponential(0.5)


class TestSweep:
    def test_single_cell_matches_direct(self):
        case = make_case("u1")
        cells = beta_sweep(case.problem, [16], [2.0])
        sol = solve(case.problem, 16, 32, 2.0)
        rep = error_norms(sol)
        assert len(cells) == 1
        assert cells[0]["l2_error"] == pytest.approx(rep.l2_error, rel=1e-12)

    def test_ordering_beta_outer(self):
        case = make_case("u1")
        cells = beta_sweep(case.problem, [8, 16], [1.0, 2.0])
        got = [(c["beta"], c["N"]) for c in cells]
        assert got == [(1.0, 8), (1.0, 16), (2.0, 8), (2.0, 16)]

    def test_per_cell_failure_recorded(self):
        bad = ModelProblem(gamma=1.0, f=lambda x: np.full_like(np.asarray(x, dtype=float), np.nan),
                           u_exact=lambda x: np.zeros_like(x))
        cells = beta_sweep(bad, [4], [1.0])
        assert cells[0]["l2_error"] is None
        assert "node" in cells[0]["error"]

    def test_bad_beta_marks_only_its_cells(self):
        case = make_case("u1")
        cells = beta_sweep(case.problem, [8, 16], [1.0, 0.0, 2.0])
        bad = [c for c in cells if c["beta"] == 0.0]
        assert len(bad) == 2
        assert all(c["l2_error"] is None and "beta" in c["error"] for c in bad)
        assert [c for c in cells if c["beta"] != 0.0] == \
            beta_sweep(case.problem, [8, 16], [1.0, 2.0])

    def test_empty_lists_rejected(self):
        case = make_case("u1")
        with pytest.raises(ValueError):
            beta_sweep(case.problem, [], [1.0])


@pytest.fixture
def cold_bases():
    """An empty rule-basis cache, so a test sees every basis it needs built."""
    spectral._bases.clear()


def _count_series(monkeypatch) -> list[int]:
    """Degrees of the ``fun_series_stable`` calls the solver makes from now."""
    calls = []
    original = spectral.fun_series_stable

    def counted(params, y):
        calls.append(params.n)
        return original(params, y)

    monkeypatch.setattr(spectral, "fun_series_stable", counted)
    return calls


class TestSweepPlan:
    """``beta_sweep`` builds each N's basis once and applies it per beta."""

    BETAS = [1.0, 2.0, 4.47, 8.0, 16.0]

    def test_one_basis_per_rule_and_n(self, monkeypatch, cold_bases):
        # every rule basis is one series
        calls = _count_series(monkeypatch)
        beta_sweep(make_case("u1").problem, [8, 16], self.BETAS)
        # the load-vector rule and the norm rule of each N
        assert sorted(calls) == [8, 8, 16, 16]

    def test_rule_bases_equal_definition_bitwise(self):
        # every rule basis is the series at the rule's nodes, and the load
        # vector is the difference of neighbouring projections on it
        load = spectral._rule_basis(8, 16)
        norms = spectral._rule_basis(8, 34)
        check = spectral._build_basis(8, 64)
        for (rule, lhat), K in ((load, 16), (norms, 34), (check, 64)):
            ref = gauss_rule(0.0, K)
            assert rule.nodes.tobytes() == ref.nodes.tobytes()
            assert rule.fun_weights.tobytes() == ref.fun_weights.tobytes()
            assert lhat.tobytes() == fun_series_stable(
                LagParams(0.0, 8), ref.nodes).tobytes()
        problem, beta = make_case("u1").problem, 2.0
        rule, lhat = load
        t = lhat @ (problem.f(rule.nodes / beta) * rule.fun_weights)
        assert project_rhs(problem, 8, 16, beta).tobytes() == \
            ((t[:-1] - t[1:]) / beta ** 2).tobytes()

    def test_cells_equal_direct_solve_bitwise(self):
        problem = make_case("u1", k=2.0, gamma=2.0).problem
        cells = beta_sweep(problem, [8, 16], self.BETAS)
        for c in cells:
            rep = error_norms(solve(problem, c["N"], 2 * c["N"], c["beta"]))
            assert c["error"] is None
            assert c["l2_error"].hex() == rep.l2_error.hex()
            assert c["h1_error"].hex() == rep.h1_semi_error.hex()

    def test_duplicates_give_separate_equal_cells(self):
        problem = make_case("u1").problem
        cells = beta_sweep(problem, [8, 16, 8], [2.0, 1.0, 2.0])
        assert [(c["beta"], c["N"]) for c in cells] == [
            (b, N) for b in (2.0, 1.0, 2.0) for N in (8, 16, 8)]
        assert len({id(c) for c in cells}) == len(cells)
        assert cells[0] == cells[2] == cells[6] == cells[8]
        assert cells[1] == cells[7]
        cells[0]["l2_error"] = None
        assert cells[2]["l2_error"] is not None

    def test_failed_basis_marks_only_its_n(self, monkeypatch, cold_bases):
        problem = make_case("u1").problem
        original = spectral.fun_series_stable

        def broken_at_8(params, y):
            if params.n == 8:
                raise ArithmeticError("basis broken at N=8")
            return original(params, y)

        monkeypatch.setattr(spectral, "fun_series_stable", broken_at_8)
        cells = beta_sweep(problem, [8, 16], self.BETAS)
        # a failed basis is not cached, so this sweep builds N=8 afresh
        monkeypatch.undo()
        good = beta_sweep(problem, [8, 16], self.BETAS)
        for c, ref in zip(cells, good):
            if c["N"] == 8:
                assert c == {"N": 8, "beta": ref["beta"], "l2_error": None,
                             "h1_error": None,
                             "error": "basis broken at N=8"}
            else:
                assert c == ref

    def test_bad_beta_reported_before_failed_norm_basis(self, monkeypatch,
                                                        cold_bases):
        # each cell solves first, so its beta is checked before the norm
        # rule's basis (35 points at N=8, the load rule has 17) is built
        original = spectral.fun_series_stable

        def broken_norms(params, y):
            if y.size == 35:
                raise ArithmeticError("norm basis broken")
            return original(params, y)

        monkeypatch.setattr(spectral, "fun_series_stable", broken_norms)
        cells = beta_sweep(make_case("u1").problem, [8], [1.0, 0.0])
        assert cells[0]["error"] == "norm basis broken"
        assert "beta" in cells[1]["error"]


class TestBasisCache:
    """The rule bases are kept for the process within a byte budget: one
    series per (N, rule), however many solves, sweeps and betas use it."""

    def test_second_sweep_builds_nothing(self, monkeypatch, cold_bases):
        problem = make_case("u1").problem
        first = beta_sweep(problem, [8, 16], [1.0, 2.0])
        calls = _count_series(monkeypatch)
        assert beta_sweep(problem, [8, 16], [1.0, 2.0]) == first
        assert calls == []
        # a load and a norm basis for each N
        assert sorted(spectral._bases) == [(8, 16), (8, 34), (16, 32),
                                           (16, 66)]

    def test_sweep_of_another_problem_builds_nothing(self, monkeypatch,
                                                     cold_bases):
        # the bases do not depend on the problem, so sweeps of several
        # cases over one grid of N share them
        beta_sweep(make_case("u1").problem, [8, 16], [1.0, 2.0])
        calls = _count_series(monkeypatch)
        beta_sweep(make_case("u3").problem, [8, 16], [0.5, 1.0])
        assert calls == []

    def test_solve_at_new_beta_after_sweep_builds_nothing(self, monkeypatch,
                                                          cold_bases):
        problem = make_case("u1").problem
        beta_sweep(problem, [8, 16], [1.0, 2.0])
        calls = _count_series(monkeypatch)
        rep = error_norms(solve(problem, 16, 32, 4.47))
        assert calls == []
        assert math.isfinite(rep.l2_error)

    def test_sweep_over_six_n_builds_two_series_per_n(self, monkeypatch,
                                                      cold_bases):
        # grouped by N, each basis serves all its betas before the next N
        calls = _count_series(monkeypatch)
        Ns = [4, 5, 6, 7, 8, 9]
        beta_sweep(make_case("u1").problem, Ns, [1.0, 2.0, 4.0])
        assert sorted(calls) == sorted(Ns * 2)

    def test_over_budget_keeps_only_the_n_in_use(self, monkeypatch,
                                                 cold_bases):
        # with no room at all, each N's two bases still serve all its betas
        # and are dropped when the next N is built
        monkeypatch.setattr(spectral, "_BASES_BYTES", 0)
        calls = _count_series(monkeypatch)
        beta_sweep(make_case("u1").problem, [8, 16], [1.0, 2.0, 4.0])
        assert sorted(calls) == [8, 8, 16, 16]
        assert sorted(spectral._bases) == [(16, 32), (16, 66)]

    def test_evicts_least_recently_used_first(self, monkeypatch, cold_bases):
        # room for the bases of N=4 and N=16 but not for those of N=8 besides
        kept = [(4, 8), (4, 18), (16, 32), (16, 66)]
        monkeypatch.setattr(spectral, "_BASES_BYTES",
                            sum(8 * (n + 1) * (k + 1) for n, k in kept))
        problem = make_case("u1").problem
        beta_sweep(problem, [4, 8], [1.0])
        error_norms(solve(problem, 4, 8, 2.0))  # N=4 used last
        beta_sweep(problem, [16], [1.0])
        assert list(spectral._bases) == kept

    def test_check_quadrature_basis_is_not_kept(self, cold_bases):
        problem = make_case("u1").problem
        error_norms(solve(problem, 8, 16, 1.0), check_quadrature=True)
        assert sorted(spectral._bases) == [(8, 16), (8, 34)]

    @pytest.mark.parametrize("beta", [0.0, math.inf, 1e200])
    def test_bad_beta_builds_no_basis(self, monkeypatch, cold_bases, beta):
        # beta is checked before the load basis is built and kept
        calls = _count_series(monkeypatch)
        with pytest.raises(ValueError, match="beta"):
            solve(make_case("u1").problem, 8, None, beta)
        assert calls == []
        assert not spectral._bases

    @pytest.mark.parametrize("check", [False, True])
    def test_missing_exact_solution_builds_no_basis(self, monkeypatch,
                                                    cold_bases, check):
        # u_exact is checked before the norm basis is built and kept
        prob = ModelProblem(gamma=1.0, f=lambda x: np.zeros_like(x))
        sol = solve(prob, 8, None, 1.0)
        calls = _count_series(monkeypatch)
        with pytest.raises(ValueError, match="no exact solution"):
            error_norms(sol, check_quadrature=check)
        assert calls == []
        assert list(spectral._bases) == [(8, 16)]

    def test_cached_basis_is_read_only(self):
        rule, lhat = spectral._rule_basis(8, 34)
        _, load = spectral._rule_basis(8, 16)
        for a in (rule.nodes, rule.fun_weights, lhat, load):
            with pytest.raises(ValueError):
                a[0] = 99.0

    def test_cold_norms_hold_one_series_per_rule(self, monkeypatch,
                                                 cold_bases):
        # a memory count, not a timing.  The cold call keeps the load and
        # the norm series and nothing else; its tracemalloc peak measures
        # 2.13-2.15 norm series here (2.53-2.55 when the norm basis was
        # psi and dpsi)
        N, M = 256, 512
        problem = make_case("u2").problem
        tracemalloc.start()
        try:
            error_norms(solve(problem, N, M, 0.6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        norm = 8 * (N + 1) * (2 * M + 3)
        held = sum(lhat.nbytes for _, lhat in spectral._bases.values())
        assert held == 8 * (N + 1) * (M + 1) + norm
        assert held == sum(8 * (n + 1) * (k + 1) for n, k in spectral._bases)
        assert peak < 2.3 * norm, f"peak {peak / norm:.2f} norm series"
        # a load rule of 2M+3 points is the norm rule: it reads that basis
        norms = spectral._bases[N, 2 * M + 2]
        calls = _count_series(monkeypatch)
        project_rhs(problem, N, 2 * M + 2, 0.6)
        assert calls == [] and len(spectral._bases) == 2
        assert spectral._rule_basis(N, 2 * M + 2) is norms


class TestBenchmarkCases:
    @pytest.mark.parametrize("name", ["u1", "u2", "u3"])
    def test_forcing_consistent_with_exact_solution(self, name):
        # -u'' + gamma u = f, checked by central differences
        case = make_case(name)
        prob = case.problem
        x = np.linspace(0.5, 8.0, 7)
        h = 1e-5
        upp = (prob.u_exact(x + h) - 2 * prob.u_exact(x)
               + prob.u_exact(x - h)) / h ** 2
        np.testing.assert_allclose(-upp + prob.gamma * prob.u_exact(x),
                                   prob.f(x), rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("name", ["u1", "u2", "u3"])
    def test_exact_prime_consistent(self, name):
        prob = make_case(name).problem
        x = np.linspace(0.5, 8.0, 7)
        h = 1e-6
        fd = (prob.u_exact(x + h) - prob.u_exact(x - h)) / (2 * h)
        np.testing.assert_allclose(prob.u_exact_prime(x), fd,
                                   rtol=1e-7, atol=1e-9)

    def test_u2_lifted_solution_vanishes_at_origin(self):
        case = make_case("u2")
        assert case.problem.u_exact(np.array([0.0]))[0] == pytest.approx(0.0)

    def test_u2_full_solution_recovered_with_lift(self):
        # the solver's problem is the remainder u2 - exp(-c x)
        case = make_case("u2", r=2.5, lift_rate=0.5)
        x = np.linspace(0.0, 5.0, 11)
        full = case.problem.u_exact(x) + np.exp(-0.5 * x)
        np.testing.assert_allclose(full, (1.0 + x) ** -2.5, rtol=1e-13)

    @pytest.mark.parametrize("param", ["k", "r", "lift_rate"])
    def test_non_finite_parameter_rejected_by_name(self, param):
        for name in ("u1", "u2", "u3"):
            with pytest.raises(ValueError, match=f"{param} must be finite"):
                make_case(name, **{param: math.nan})

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            make_case("u9")

    def test_gamma_must_be_positive(self):
        for gamma in (0.0, math.inf):
            with pytest.raises(ValueError, match="gamma"):
                ModelProblem(gamma=gamma, f=lambda x: x)
