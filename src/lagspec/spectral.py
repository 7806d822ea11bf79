"""Spectral-Galerkin solver for ``-u'' + gamma u = f`` on the half line.

The trial space is spanned by ``psi_n(y) = Lhat_n(y) - Lhat_{n+1}(y)``
(differences of neighbouring Laguerre functions, which vanish at the
origin), applied in a scaled variable ``y = beta x``.  Stiffness and mass
matrices are tridiagonal with closed-form entries, so one solve costs
O(N); right-hand sides and error norms are evaluated by Gauss quadrature
in the scaled variable using function-form weights.

The basis lives in ``y``, so it does not depend on beta.  A rule basis is
the series ``Lhat_0 .. Lhat_N`` at the nodes of one rule, kept per
``(N, K)`` in a cache bounded by bytes: the (M+1)-point rule of the load
vector and the (2M+3)-point rule of the error norms.  psi and dpsi are
never formed: a combination ``sum_n c_n psi_n`` (or ``dpsi_n``) is the
series weighted by ``c_m - c_{m-1}`` (or ``(c_m + c_{m-1}) / 2``), and a
projection on psi is a difference of neighbouring projections on the
series.  ``solve`` runs ``project_rhs`` (``f(y/beta)`` sampled and
projected with one matrix-vector product), ``assemble_system`` and an
LDL^T solve in dptsv's order; ``error_norms`` reads the second rule's basis.
Solves and sweeps at the same N, such as the sweeps of several problems
over one grid of N, share the bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quadrature import GaussRule, cached_gauss_rule
from .recurrence import LagParams, _abscissae, fun_series_stable

__all__ = [
    "ModelProblem",
    "SpectralSolution",
    "ErrorReport",
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
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")


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
        return self._at(x, deriv=False)

    def evaluate_deriv(self, x) -> np.ndarray:
        """d/dx of the numerical solution (chain rule brings in beta)."""
        return self._at(x, deriv=True)

    def _at(self, x, deriv: bool) -> np.ndarray:
        # x is checked as given; beta x past the double range is clamped to
        # its top, where every basis row has underflowed already; the
        # series runs at the raveled x, one column per abscissa
        with np.errstate(over="ignore"):
            y = np.minimum(self.beta * np.ravel(_abscissae(x)),
                           np.finfo(float).max)
        lhat = fun_series_stable(LagParams(alpha=0.0, n=self.N), y)
        out = _series_coeffs(self.coeffs, deriv) @ lhat
        out = self.beta * out if deriv else out
        return out.reshape(np.shape(x))[()]


@dataclass
class ErrorReport:
    l2_error: float
    h1_semi_error: float
    N: int
    beta: float
    quad_error_estimate: float | None = None


def _series_coeffs(c: np.ndarray, deriv: bool) -> np.ndarray:
    """Weights of the rows ``Lhat_0 .. Lhat_N`` that sum to ``c @ psi``,
    ``c_m - c_{m-1}``, or to ``c @ dpsi`` with ``dpsi_n = (Lhat_n +
    Lhat_{n+1}) / 2``, ``(c_m + c_{m-1}) / 2``; ``c_{-1} = c_N = 0``."""
    p = np.concatenate(([0.0], c, [0.0]))
    return 0.5 * (p[1:] + p[:-1]) if deriv else p[1:] - p[:-1]


def assemble_system(N: int, gamma_eff: float) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal Galerkin matrix ``(psi_m', psi_n') + gamma_eff (psi_m, psi_n)``.

    By orthonormality of the Laguerre functions the mass matrix is
    ``2`` on the diagonal and ``-1`` off it, the stiffness matrix ``1/2``
    and ``1/4``.  Returns ``(diag, offdiag)`` with ``len(diag) = N``.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not 0.0 < gamma_eff < 2.0 ** 1023:  # so 0.5 + 2 gamma_eff is finite
        raise ValueError(f"gamma_eff must be in (0, 2^1023), got {gamma_eff}")
    diag = np.full(N, 0.5 + 2.0 * gamma_eff)
    off = np.full(N - 1, 0.25 - gamma_eff)
    return diag, off


# Rule bases, each a Gauss rule and the read-only rows Lhat_0 .. Lhat_N at
# its nodes, kept for reuse across solves, norms and sweeps, least recently
# used first.  Before a basis is built, bases of other N are dropped in that
# order until it fits in _BASES_BYTES with the rest; those of its own N stay,
# so a beta loop at one N builds each of its two bases once.  At M = 2N the
# bases of one N take about 48 N^2 bytes, 12.6 MB at N = 512.
_BASES_BYTES = 64 << 20
_bases: dict[tuple[int, int], tuple[GaussRule, np.ndarray]] = {}


def _rule_basis(N: int, K: int) -> tuple[GaussRule, np.ndarray]:
    basis = _bases.pop((N, K), None)
    if basis is None:
        need = 8 * (N + 1) * (K + 1) + sum(
            lhat.nbytes for _, lhat in _bases.values())
        for old in [k for k in _bases if k[0] != N]:
            if need <= _BASES_BYTES:
                break
            need -= _bases.pop(old)[1].nbytes
        basis = _build_basis(N, K)
    _bases[N, K] = basis
    return basis


def _build_basis(N: int, K: int) -> tuple[GaussRule, np.ndarray]:
    rule = cached_gauss_rule(0.0, K)
    lhat = fun_series_stable(LagParams(alpha=0.0, n=N), rule.nodes)
    lhat.flags.writeable = False
    return rule, lhat


def project_rhs(problem: ModelProblem, N: int, M: int, beta: float
                ) -> np.ndarray:
    """Load vector ``b[n] = (g/beta^2, psi_n)`` by (M+1)-point quadrature.

    ``g(y) = f(y/beta)`` is sampled at the Gauss nodes of the scaled
    variable; with function-form weights this equals the inner product of
    the degree-M interpolant exactly.
    """
    # every solve projects here first, so N, M and beta are checked here;
    # beta * beta gives inf where beta ** 2 raises OverflowError
    if N < 1:
        raise ValueError("N must be >= 1")
    if M < N + 1:
        raise ValueError("quadrature order M must be >= N + 1")
    b2 = beta * beta
    if not (0.0 < beta < math.inf and 0.0 < b2 < math.inf
            and 0.0 < problem.gamma / b2 < math.inf):
        raise ValueError("beta must be finite and > 0, with beta**2 and "
                         f"gamma/beta**2 positive doubles, got {beta}")
    rule, lhat = _rule_basis(N, M)
    g = _samples(problem.f, "right-hand side", rule.nodes, beta)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        # (g/beta^2, psi_n) = (t_n - t_{n+1})/beta^2
        t = lhat @ (g * rule.fun_weights)
        b = (t[:-1] - t[1:]) / beta ** 2
    if not np.all(np.isfinite(b)):
        raise ArithmeticError("load vector non-finite: f overflows it")
    return b


def _tridiagonal_solve(diag, off, b) -> np.ndarray:
    """``(diag, off) x = b`` in LAPACK dptsv's order: dpttrf's L D L^T fused
    with dptts2's forward substitution, then its backward one, in Python
    floats (no FMA), so the bits are ``scipy.linalg.solveh_banded``'s."""
    d, l, x = diag.tolist(), off.tolist(), b.tolist()
    i = len(l)  # the last row, or the first with a pivot <= 0
    for j, e in enumerate(l):
        if d[j] <= 0:
            i = j
            break
        l[j] = e / d[j]
        d[j + 1] -= l[j] * e
        x[j + 1] -= x[j] * l[j]
    if d[i] <= 0:  # dpttrf's INFO = i + 1
        raise ArithmeticError(f"Galerkin matrix row {i + 1}: pivot {d[i]!r} <= 0")
    x[-1] /= d[-1]
    for j in range(len(l) - 1, -1, -1):
        x[j] = x[j] / d[j] - x[j + 1] * l[j]
    return np.array(x)


def solve(problem: ModelProblem, N: int, M: int | None = None,
          beta: float = 1.0) -> SpectralSolution:
    """Galerkin solve with N basis functions at scaling factor beta.

    ``M`` defaults to ``2 N`` so the interpolation error stays below the
    projection error.  The tridiagonal system is symmetric positive
    definite and solved by ``L D L^T`` in the order of LAPACK's dptsv.
    """
    if M is None:
        M = 2 * N
    b = project_rhs(problem, N, M, beta)
    diag, off = assemble_system(N, problem.gamma / beta ** 2)
    coeffs = _tridiagonal_solve(diag, off, b)
    if not np.all(np.isfinite(coeffs)):
        raise ArithmeticError("Galerkin solve produced non-finite coefficients")
    return SpectralSolution(N=N, M=M, beta=beta, coeffs=coeffs,
                            problem=problem)


def _samples(fn, name: str, y: np.ndarray, beta: float) -> np.ndarray:
    """``fn`` at the nodes ``x = y/beta``, checked finite before any use."""
    v = np.asarray(fn(y / beta), dtype=float)
    if not np.all(np.isfinite(v)):
        j = int(np.flatnonzero(~np.isfinite(v))[0])
        raise ArithmeticError(f"{name} non-finite at node x = {y[j] / beta}")
    return v


def _norms_at_order(sol: SpectralSolution, rule: GaussRule,
                    lhat: np.ndarray, h1: bool) -> tuple[float, float]:
    problem, beta = sol.problem, sol.beta
    y, w = rule.nodes, rule.fun_weights
    v_num = _series_coeffs(sol.coeffs, False) @ lhat
    v_ex = _samples(problem.u_exact, "u_exact", y, beta)
    l2_y = math.sqrt(float(np.sum((v_ex - v_num) ** 2 * w)))
    if h1 and problem.u_exact_prime is not None:
        dv_num = _series_coeffs(sol.coeffs, True) @ lhat
        dv_ex = _samples(problem.u_exact_prime, "u_exact_prime", y, beta) / beta
        h1_y = math.sqrt(float(np.sum((dv_ex - dv_num) ** 2 * w)))
    else:
        h1_y = float("nan")
    # transfer y-variable norms back to the physical variable
    return l2_y / math.sqrt(beta), h1_y * math.sqrt(beta)


def error_norms(sol: SpectralSolution, *,
                check_quadrature: bool = False) -> ErrorReport:
    """L2 and H1-seminorm errors against the exact solution of
    ``sol.problem``.

    Norm integrals use a (2M+3)-point rule in the scaled variable; with
    ``check_quadrature`` a (4M+1)-point re-evaluation estimates the
    quadrature-induced part of the reported error.  A non-finite exact
    value or derivative at a node is an ArithmeticError naming the node.
    """
    if sol.problem.u_exact is None:  # before any basis is built
        raise ValueError("problem has no exact solution to compare against")
    l2, h1 = _norms_at_order(sol, *_rule_basis(sol.N, 2 * sol.M + 2), True)
    quad_est = None
    if check_quadrature:
        # a one-off check, about twice the norm rule's size, L2 only: not kept
        l2b, _ = _norms_at_order(sol, *_build_basis(sol.N, 4 * sol.M), False)
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

    Each cell is ``error_norms(solve(problem, N, 2N, beta))``, run N by N
    so that each N's two rule bases are built once (or found in the cache)
    and serve every beta before the next N's are needed.  A failure is
    recorded in the ``error`` field of its cell and the sweep continues.
    """
    if not N_list or not beta_list:
        raise ValueError("N_list and beta_list must be nonempty")
    by_N = {}
    for N in dict.fromkeys(N_list):
        for beta in beta_list:
            cell = {"l2_error": None, "h1_error": None, "error": None}
            try:
                rep = error_norms(solve(problem, N, 2 * N, beta))
                cell.update(l2_error=rep.l2_error, h1_error=rep.h1_semi_error)
            except Exception as exc:
                cell["error"] = str(exc)
            by_N.setdefault(N, []).append(cell)
    return [{"N": N, "beta": beta, **by_N[N][i]}
            for i, beta in enumerate(beta_list) for N in N_list]
