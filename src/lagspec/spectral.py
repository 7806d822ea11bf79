"""Spectral-Galerkin solver for ``-u'' + gamma u = f`` on the half line.

The trial space is spanned by ``psi_n(y) = Lhat_n(y) - Lhat_{n+1}(y)``
(differences of neighbouring Laguerre functions, which vanish at the
origin), applied in a scaled variable ``y = beta x``.  Stiffness and mass
matrices are tridiagonal with closed-form entries, so one solve costs
O(N); right-hand sides and error norms are evaluated by Gauss quadrature
in the scaled variable using function-form weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import solveh_banded

from .quadrature import cached_gauss_rule
from .recurrence import LagParams, fun_series_stable

__all__ = [
    "ModelProblem",
    "SpectralSolution",
    "ErrorReport",
    "basis_matrices",
    "assemble_system",
    "project_rhs",
    "solve",
    "error_norms",
    "optimal_beta_exponential",
    "beta_sweep",
]


@dataclass
class ModelProblem:
    """Reaction coefficient, right-hand side, and optional exact solution."""

    gamma: float
    f: Callable[[np.ndarray], np.ndarray]
    u_exact: Callable[[np.ndarray], np.ndarray] | None = None
    u_exact_prime: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")


@dataclass
class SpectralSolution:
    """Galerkin coefficients in the scaled difference basis."""

    N: int
    M: int
    beta: float
    coeffs: np.ndarray
    problem: ModelProblem

    def evaluate(self, x) -> np.ndarray:
        """Value of the numerical solution at ``x`` (scalar or array)."""
        y = self.beta * np.atleast_1d(np.asarray(x, dtype=float))
        psi, _ = basis_matrices(self.N, y)
        out = self.coeffs @ psi
        return out if np.ndim(x) else out[0]

    def evaluate_deriv(self, x) -> np.ndarray:
        """d/dx of the numerical solution (chain rule brings in beta)."""
        y = self.beta * np.atleast_1d(np.asarray(x, dtype=float))
        _, dpsi = basis_matrices(self.N, y)
        out = self.beta * (self.coeffs @ dpsi)
        return out if np.ndim(x) else out[0]


@dataclass
class ErrorReport:
    l2_error: float
    h1_semi_error: float
    N: int
    beta: float
    quad_error_estimate: float | None = None


def basis_matrices(N: int, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Basis values and derivatives at many points.

    Returns ``(psi, dpsi)`` of shape ``(N, len(y))`` with
    ``psi[n] = Lhat_n(y) - Lhat_{n+1}(y)`` and the closed-form derivative
    ``dpsi[n] = (Lhat_n(y) + Lhat_{n+1}(y)) / 2``.
    """
    y = np.asarray(y, dtype=float)
    lhat = fun_series_stable(LagParams(alpha=0.0, n=N), y)
    psi = lhat[:-1] - lhat[1:]
    dpsi = 0.5 * (lhat[:-1] + lhat[1:])
    return psi, dpsi


def assemble_system(N: int, gamma_eff: float) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal Galerkin matrix ``(psi_m', psi_n') + gamma_eff (psi_m, psi_n)``.

    By orthonormality of the Laguerre functions the mass matrix is
    ``2`` on the diagonal and ``-1`` off it, the stiffness matrix ``1/2``
    and ``1/4``.  Returns ``(diag, offdiag)`` with ``len(diag) = N``.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not gamma_eff > 0:
        raise ValueError("gamma_eff must be positive")
    diag = np.full(N, 0.5 + 2.0 * gamma_eff)
    off = np.full(N - 1, 0.25 - gamma_eff)
    return diag, off


def project_rhs(problem: ModelProblem, N: int, M: int, beta: float
                ) -> np.ndarray:
    """Load vector ``b[n] = (g/beta^2, psi_n)`` by (M+1)-point quadrature.

    ``g(y) = f(y/beta)`` is sampled at the Gauss nodes of the scaled
    variable; with function-form weights this equals the inner product of
    the degree-M interpolant exactly.
    """
    if M < N + 1:
        raise ValueError("quadrature order M must be >= N + 1")
    rule = cached_gauss_rule(0.0, M)
    y = rule.nodes
    g = np.asarray(problem.f(y / beta), dtype=float)
    if not np.all(np.isfinite(g)):
        j = int(np.flatnonzero(~np.isfinite(g))[0])
        raise ArithmeticError(
            f"right-hand side non-finite at node x = {y[j] / beta}")
    psi, _ = basis_matrices(N, y)
    return psi @ (g * rule.fun_weights) / beta ** 2


def solve(problem: ModelProblem, N: int, M: int | None = None,
          beta: float = 1.0) -> SpectralSolution:
    """Galerkin solve with N basis functions at scaling factor beta.

    ``M`` defaults to ``2 N`` so the interpolation error stays below the
    projection error.  The tridiagonal system is symmetric positive
    definite and solved by a banded Cholesky factorization.
    """
    if M is None:
        M = 2 * N
    gamma_eff = problem.gamma / beta ** 2
    diag, off = assemble_system(N, gamma_eff)
    b = project_rhs(problem, N, M, beta)
    ab = np.zeros((2, N))
    ab[0, 1:] = off
    ab[1] = diag
    coeffs = solveh_banded(ab, b)
    if not np.all(np.isfinite(coeffs)):
        raise ArithmeticError("Galerkin solve produced non-finite coefficients")
    return SpectralSolution(N=N, M=M, beta=beta, coeffs=coeffs,
                            problem=problem)


def _norms_at_order(sol: SpectralSolution, problem: ModelProblem, K: int
                    ) -> tuple[float, float]:
    rule = cached_gauss_rule(0.0, K)
    y = rule.nodes
    w = rule.fun_weights
    beta = sol.beta
    psi, dpsi = basis_matrices(sol.N, y)
    v_num = sol.coeffs @ psi
    dv_num = sol.coeffs @ dpsi
    v_ex = np.asarray(problem.u_exact(y / beta), dtype=float)
    l2_y = math.sqrt(float(np.sum((v_ex - v_num) ** 2 * w)))
    if problem.u_exact_prime is not None:
        dv_ex = np.asarray(problem.u_exact_prime(y / beta), dtype=float) / beta
        h1_y = math.sqrt(float(np.sum((dv_ex - dv_num) ** 2 * w)))
    else:
        h1_y = float("nan")
    # transfer y-variable norms back to the physical variable
    return l2_y / math.sqrt(beta), h1_y * math.sqrt(beta)


def error_norms(sol: SpectralSolution, problem: ModelProblem | None = None,
                check_quadrature: bool = False) -> ErrorReport:
    """L2 and H1-seminorm errors against the exact solution.

    Norm integrals use a (2M+3)-point rule in the scaled variable; with
    ``check_quadrature`` a 4M-point re-evaluation estimates the
    quadrature-induced part of the reported error.
    """
    if problem is None:
        problem = sol.problem
    if problem.u_exact is None:
        raise ValueError("problem has no exact solution to compare against")
    l2, h1 = _norms_at_order(sol, problem, 2 * sol.M + 2)
    quad_est = None
    if check_quadrature:
        l2b, _ = _norms_at_order(sol, problem, 4 * sol.M)
        quad_est = abs(l2b - l2)
    return ErrorReport(l2_error=l2, h1_semi_error=h1, N=sol.N, beta=sol.beta,
                       quad_error_estimate=quad_est)


def optimal_beta_exponential(z_re: float, z_im: float = 0.0) -> float:
    """Error-minimizing scaling for data decaying like ``exp(z x)``:
    ``beta* = 2 |z|`` (requires ``Re z < 0``).
    """
    if not z_re < 0:
        raise ValueError("decay requires Re z < 0")
    return 2.0 * math.hypot(z_re, z_im)


def beta_sweep(problem: ModelProblem, N_list: Sequence[int],
               beta_list: Sequence[float]) -> list[dict]:
    """Solve/measure over a (beta, N) grid with M = 2N quadrature points;
    beta outer, N inner.

    Per-cell failures are recorded in the ``error`` field and the sweep
    continues.
    """
    if not N_list or not beta_list:
        raise ValueError("N_list and beta_list must be nonempty")
    out = []
    for beta in beta_list:
        for N in N_list:
            cell = {"N": N, "beta": beta, "l2_error": None,
                    "h1_error": None, "error": None}
            try:
                sol = solve(problem, N, 2 * N, beta)
                rep = error_norms(sol, problem)
                cell["l2_error"] = rep.l2_error
                cell["h1_error"] = rep.h1_semi_error
            except Exception as exc:
                cell["error"] = str(exc)
            out.append(cell)
    return out
