"""Tests for the half-line Galerkin solver and the benchmark cases."""

import math

import numpy as np
import pytest

from lagspec import spectral
from lagspec.problems import make_case
from lagspec.quadrature import gauss_rule
from lagspec.spectral import (
    ErrorReport,
    ModelProblem,
    assemble_system,
    basis_matrices,
    beta_sweep,
    error_norms,
    optimal_beta_exponential,
    project_rhs,
    solve,
)


def _trial_space_forcing(beta, gamma):
    """Forcing whose exact solution is psi_2(beta x), via the closed-form
    second derivative psi_2'' = (Lhat_2' + Lhat_3') / 2."""
    from lagspec.recurrence import LagParams, eval_fun_derivative

    def f(x):
        y = beta * np.atleast_1d(np.asarray(x, dtype=float))
        psi, _ = basis_matrices(3, y)
        upp = np.empty(y.size)
        for i, yi in enumerate(y):
            d = eval_fun_derivative(LagParams(0.0, 3), float(yi))
            upp[i] = 0.5 * (d[2] + d[3])
        return -beta ** 2 * upp + gamma * psi[2]

    return f


def _quadrature_mass_stiffness(N):
    """Independent assembly of (psi_m', psi_n') and (psi_m, psi_n)."""
    rule = gauss_rule(0.0, 2 * N + 2)
    psi, dpsi = basis_matrices(N, rule.nodes)
    w = rule.fun_weights
    mass = (psi * w) @ psi.T
    stiff = (dpsi * w) @ dpsi.T
    return mass, stiff


class TestBasis:
    def test_origin_value_zero(self):
        psi, _ = basis_matrices(6, np.array([0.0]))
        assert psi[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert psi[5, 0] == pytest.approx(0.0, abs=1e-13)

    def test_psi0_at_one(self):
        # L_0(1) = 1, L_1(1) = 0, so psi_0(1) = e^{-1/2}
        psi, _ = basis_matrices(1, np.array([1.0]))
        assert psi[0, 0] == pytest.approx(math.exp(-0.5), rel=1e-13)

    def test_deriv_finite_difference(self):
        y, h = 2.7, 1e-6
        psi, dpsi = basis_matrices(4, np.array([y + h, y - h, y]))
        fd = (psi[3, 0] - psi[3, 1]) / (2 * h)
        assert dpsi[3, 2] == pytest.approx(fd, abs=1e-8)

    def test_matrices_shapes(self):
        y = np.linspace(0.1, 8.0, 5)
        psi, dpsi = basis_matrices(4, y)
        assert psi.shape == (4, 5)
        assert dpsi.shape == (4, 5)


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


class TestRhsAndSolve:
    def test_zero_forcing_gives_zero_vector(self):
        prob = ModelProblem(gamma=1.0, f=lambda x: np.zeros_like(x))
        b = project_rhs(prob, 6, 12, 1.0)
        np.testing.assert_array_equal(b, np.zeros(6))

    def test_quadrature_order_guard(self):
        prob = ModelProblem(gamma=1.0, f=lambda x: np.zeros_like(x))
        with pytest.raises(ValueError):
            project_rhs(prob, 8, 8, 1.0)

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
            psi, _ = basis_matrices(2, np.atleast_1d(y))
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


class TestErrorNorms:
    def test_self_comparison_is_zero(self):
        case = make_case("u1")
        sol = solve(case.problem, 16, 32, 2.0)
        prob = ModelProblem(gamma=case.problem.gamma, f=case.problem.f,
                            u_exact=lambda x: sol.evaluate(x),
                            u_exact_prime=None)
        rep = error_norms(sol, prob)
        assert rep.l2_error <= 1e-13

    def test_missing_exact_solution_rejected(self):
        prob = ModelProblem(gamma=1.0, f=lambda x: np.zeros_like(x))
        sol = solve(prob, 4, 8, 1.0)
        with pytest.raises(ValueError):
            error_norms(sol, prob)

    def test_report_type_and_echo(self):
        case = make_case("u1")
        sol = solve(case.problem, 16, 32, 2.0)
        rep = error_norms(sol, case.problem)
        assert isinstance(rep, ErrorReport)
        assert rep.N == 16 and rep.beta == 2.0
        assert rep.l2_error >= 0 and rep.h1_semi_error >= 0

    def test_quadrature_check_field(self):
        case = make_case("u1")
        sol = solve(case.problem, 16, 32, 2.0)
        rep = error_norms(sol, case.problem, check_quadrature=True)
        assert rep.quad_error_estimate is not None
        assert rep.quad_error_estimate < rep.l2_error

    def test_u1_converges_geometrically(self):
        case = make_case("u1")
        beta = optimal_beta_exponential(-1.0, 2.0)
        errs = []
        for N in (16, 32, 64):
            sol = solve(case.problem, N, 2 * N, beta)
            errs.append(error_norms(sol, case.problem).l2_error)
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
        rep = error_norms(sol, case.problem)
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


class TestSweepPlan:
    """``beta_sweep`` builds each N's basis once and applies it per beta."""

    BETAS = [1.0, 2.0, 4.47, 8.0, 16.0]

    def test_one_basis_per_rule_and_n(self, monkeypatch):
        calls = []
        original = spectral.fun_series_stable

        def counted(params, y):
            calls.append(params.n)
            return original(params, y)

        # every basis, from basis_matrices or a rule basis, is one series
        monkeypatch.setattr(spectral, "fun_series_stable", counted)
        beta_sweep(make_case("u1").problem, [8, 16], self.BETAS)
        # the load-vector rule and the norm rule of each N
        assert sorted(calls) == [8, 8, 16, 16]

    def test_rule_bases_equal_basis_matrices_bitwise(self):
        load, norms = spectral._load_basis(8, 16), spectral._norm_basis(8, 16)
        # the load rule's basis is psi only
        assert load.dpsi is None
        for rb in (load, norms):
            psi, dpsi = basis_matrices(8, rb.y)
            assert rb.psi.tobytes() == psi.tobytes()
        assert norms.dpsi.tobytes() == dpsi.tobytes()

    def test_cells_equal_direct_solve_bitwise(self):
        problem = make_case("u1", k=2.0, gamma=2.0).problem
        cells = beta_sweep(problem, [8, 16], self.BETAS)
        for c in cells:
            rep = error_norms(solve(problem, c["N"], 2 * c["N"], c["beta"]),
                              problem)
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

    def test_failed_basis_marks_only_its_n(self, monkeypatch):
        problem = make_case("u1").problem
        good = beta_sweep(problem, [8, 16], self.BETAS)
        original = spectral.fun_series_stable

        def broken_at_8(params, y):
            if params.n == 8:
                raise ArithmeticError("basis broken at N=8")
            return original(params, y)

        monkeypatch.setattr(spectral, "fun_series_stable", broken_at_8)
        cells = beta_sweep(problem, [8, 16], self.BETAS)
        for c, ref in zip(cells, good):
            if c["N"] == 8:
                assert c == {"N": 8, "beta": ref["beta"], "l2_error": None,
                             "h1_error": None,
                             "error": "basis broken at N=8"}
            else:
                assert c == ref


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
