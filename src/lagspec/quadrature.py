"""Laguerre-Gauss and Laguerre-Gauss-Radau quadrature rules.

A rule takes one pass of the stable function evaluation at its seeds and
one Halley step per node, with L'' and L''' from the Laguerre equation;
Newton's iterations, each one kernel pass over all of their nodes, finish
the few nodes whose step it cannot vouch for.
Seeds are the eigenvalues of the tridiagonal recurrence matrix below 500
points or for alpha < 0, and O(N) asymptotic forms otherwise (``_seeds``).
Eigensolves below 500 rows run dense in numpy's LAPACK (O(N^3), 17 ms at
499 rows, scipy's bits); only larger ones import scipy.linalg: eigen seeds
of 500+ points, trailing blocks at 21,434+.  Weights come from one closed
form with all Gamma ratios kept in log space and the derivative as the
partial sum ``exp(-x/2) (L_0 + .. + L_{n-1})``, which does not cancel at
small nodes, so rules with thousands of points neither overflow nor lose
digits or weights.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .recurrence import LagParams, _value_sum

__all__ = [
    "RuleKind",
    "GaussRule",
    "nodes_eigen_seed",
    "refine_newton",
    "gauss_rule",
    "gauss_radau_rule",
    "cached_gauss_rule",
]

_EPS = np.finfo(float).eps
# Newton polish stops after this many iterations, or once every node's
# step is at most this multiple of the node
_NEWTON_MAX_ITERS = 10
_NEWTON_REL_STEP_TOL = 4.0 * _EPS
# Rules of this many points or more with alpha >= 0 get O(N) seeds: 1.5 ms
# at 500 points against the eigen seed's 4.7 ms and a Newton pass's 2.0 ms
# (medians of 31, one thread of a 2-vCPU AVX-512 Xeon), and smaller
# eigensolves run dense.  Below alpha = 0 the smallest node made from them
# ends up to 88 ulps from the eigen-seeded one (-0.5, N = 999).  Relative
# seed errors (500 to 4099 points) peak at 3.8e-10 to alpha 5, 1.3e-9 at
# 7, 1.1e-7 at 20, 4.2e-6 at 50.
_FAST_SEED_POINTS = 500


class RuleKind(str, Enum):
    GAUSS = "gauss"
    GAUSS_RADAU = "radau"


@dataclass(frozen=True)
class GaussRule:
    """An (N+1)-point quadrature rule for the weight ``x^alpha e^-x``.

    ``weights`` are the polynomial-form weights (against ``x^alpha e^-x``),
    ``fun_weights`` the function-form weights ``exp(x_j) * w_j`` that make
    the rule exact for products of exponentially weighted polynomials.
    Polynomial weights at very large nodes may underflow to zero (their
    true values fall below the double-precision range); function weights
    are always finite and positive.  The arrays are read-only views, as
    cached rules are shared by every caller.
    """

    alpha: float
    kind: RuleKind
    nodes: np.ndarray
    weights: np.ndarray
    fun_weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", RuleKind(self.kind))
        for name in ("nodes", "weights", "fun_weights"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        if not (self.nodes.ndim == 1 and self.nodes.size and self.nodes.shape
                == self.weights.shape == self.fun_weights.shape):
            raise ValueError("nodes, weights and fun_weights must be "
                             "nonempty 1-D arrays of one length")
        LagParams(alpha=self.alpha, n=self.nodes.size - 1)  # (alpha, N) check
        if not np.all(np.diff(self.nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if self.kind is RuleKind.GAUSS and not self.nodes[0] > 0:
            raise ValueError("Gauss rule requires all nodes > 0")
        if self.kind is RuleKind.GAUSS_RADAU and self.nodes[0] != 0.0:
            raise ValueError("Gauss-Radau rule must include the endpoint 0")
        if np.any(self.weights < 0) or np.any(self.fun_weights <= 0):
            raise ValueError("weights must be positive")
        if not np.all(np.isfinite(self.fun_weights)):
            raise ValueError("function weights must be finite")

    @property
    def npoints(self) -> int:
        return self.nodes.size


def nodes_eigen_seed(alpha: float, N: int) -> np.ndarray:
    """Eigenvalue approximations to the zeros of the degree-(N+1) polynomial.

    Builds the (N+1)x(N+1) symmetric tridiagonal matrix with diagonal
    ``2j + alpha + 1`` and off-diagonal ``-sqrt(j (j + alpha))`` and returns
    its ascending eigenvalues.
    """
    LagParams(alpha=alpha, n=N)  # the check of (alpha, N)
    ev = _jacobi_eigvals(alpha, 0, N + 1)
    if np.any(np.diff(ev) <= 0):
        raise ArithmeticError("eigenvalues are not strictly increasing")
    return ev


def _tridiagonal_eigvals(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal (diag, off): dense
    LAPACK dsyevd below ``_FAST_SEED_POINTS`` rows, whose reduction keeps a
    tridiagonal input exact (every Householder tau is 0) for dsterf, as in
    scipy's stevd, so the bits are scipy's without importing scipy.linalg;
    scipy's O(n^2) stevd from there on, where the O(n^3) dense one lags."""
    try:
        if diag.size < _FAST_SEED_POINTS:
            return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1), "L")
        from scipy.linalg import eigvalsh_tridiagonal
        return eigvalsh_tridiagonal(diag, off)
    except Exception as exc:
        raise ArithmeticError(f"tridiagonal eigensolver failed: {exc}") from exc


def _jacobi_eigvals(alpha: float, start: int, stop: int) -> np.ndarray:
    """Ascending eigenvalues of rows start .. stop-1 of the Jacobi matrix."""
    k = np.arange(start, stop, dtype=float)
    return _tridiagonal_eigvals(2.0 * k + alpha + 1.0,
                                -np.sqrt(k[1:] * (k[1:] + alpha)))


def _seeds(alpha: float, N: int) -> np.ndarray:
    """Seeds for the N+1 zeros (module docstring): Tricomi's form (Gatteschi,
    J. Comput. Appl. Math. 144 (2002) 7-27) with the Bessel zero j_k for
    McMahon's first term and a tan term that takes out his second; j_k below
    a crossover k (25 to alpha 5, 2 more per unit above, 120 at most) from
    4k-4 rows of Ikebe, Kikuchi and Fujishiro's matrix (J. Comput. Appl.
    Math. 38 (1991) 169-184), McMahon's expansion (DLMF 10.21.19) from k on;
    the top 20 zeros from a trailing block of the recurrence matrix."""
    LagParams(alpha=alpha, n=N)  # the check of (alpha, N)
    if N + 1 < _FAST_SEED_POINTS or alpha < 0:
        return nodes_eigen_seed(alpha, N)
    k = min(25 + 2 * int(max(alpha - 5.0, 0.0)), 120)
    a = alpha + 2.0 * np.arange(1, 4 * k - 3)
    ev = _tridiagonal_eigvals(0.5 / ((a - 1.0) * (a + 1.0)), 0.25 / (
        (a[:-1] + 1.0) * np.sqrt(a[:-1] * (a[:-1] + 2.0))))
    mu, b = 4.0 * alpha * alpha, (np.arange(k, N - 18) + 0.5 * alpha
                                  - 0.25) * np.pi
    w = (0.125 / b) ** 2
    j = np.concatenate((ev[:-k:-1] ** -0.5, b - 0.125 / b * (mu - 1.0) * (
        1.0 + w * (4.0 / 3.0 * (7.0 * mu - 31.0) + w * (32.0 / 15.0 * (
            (83.0 * mu - 982.0) * mu + 3779.0) + w * 64.0 / 105.0 * (
            ((6949.0 * mu - 153855.0) * mu + 1585743.0) * mu - 6277237.0))))))
    nu = 4.0 * N + 2.0 * alpha + 6.0
    t = 4.0 * j / nu
    e = np.maximum(0.5 * t, np.pi - np.cbrt(6.0 * (np.pi - t)))  # root bounds
    for _ in range(6):
        e -= (e + np.sin(e) - t) / (1.0 + np.cos(e))
    c = np.cos(0.5 * e) ** 2
    x = nu * np.sin(0.5 * e) ** 2 + ((mu - 1.0) * np.tan(0.5 * e) / t - (
        1.25 / c - 1.0) / (3.0 * c) + 1.0 / 3.0 - alpha * alpha) / nu
    # the top 20 eigenvectors live in the last 18 (N+1)^(1/3) rows
    return np.concatenate((x, _jacobi_eigvals(
        alpha, N + 1 - int(18.0 * np.cbrt(N + 1.0)), N + 1)[-20:]))


def refine_newton(alpha: float, N: int, seeds: np.ndarray) -> np.ndarray:
    """Newton-polish the zeros of the degree-(N+1) polynomial.

    Each node is updated by ``x <- x - L_{N+1}(x) / L_{N+1}'(x)``, with
    ``-L_{N+1}' = L_0 + .. + L_N`` and both through the rescaled function
    recurrence in one kernel pass per iteration (the common exponential
    scale cancels).  Iteration stops once every node's step is at most ``4
    eps x``, or after 10 iterations.  A node that leaves the bracket formed
    by its neighbouring seed midpoints is reset to its seed and reported via
    a warning; an iterate that is no abscissa (NaN where ``exp(-x/2) L``
    underflows), the final nodes included, is an ArithmeticError.
    """
    seeds = np.asarray(seeds, dtype=float)
    if not (seeds.ndim == 1 and seeds.size and np.all(np.isfinite(seeds))
            and np.all(seeds > 0) and np.all(np.diff(seeds) > 0)):
        raise ValueError("seeds must be a nonempty 1-D array of finite, "
                         "positive, strictly increasing values")
    LagParams(alpha=alpha, n=N + 1)  # the check of (alpha, N)
    ends = np.concatenate(([0.0], 0.5 * (seeds[1:] + seeds[:-1]),
                           [seeds[-1] * 2.0 + 1.0]))

    x, last = seeds, False
    for k in range(_NEWTON_MAX_ITERS + 1):
        j = np.argmin((x >= 0) & (x < np.inf))  # a non-abscissa first
        if not 0 <= x[j] < np.inf:
            raise ArithmeticError(f"Newton iterate {k}, node {j}: {x[j]}")
        if last:
            return x
        val, S, _ = _value_sum(alpha, N + 1, x)
        step = val / -S  # L / L': the exp(-x/2) scale cancels
        last = (np.all(np.abs(step) <= _NEWTON_REL_STEP_TOL * x)
                or k + 1 == _NEWTON_MAX_ITERS)
        x = x - step
        escaped = (x <= ends[:-1]) | (x >= ends[1:])
        if last and np.any(escaped):
            warnings.warn(f"Newton refinement escaped bracket at indices "
                          f"{np.flatnonzero(escaped).tolist()}; falling back "
                          f"to seeds", RuntimeWarning)
            x[escaped] = seeds[escaped]


def _rule(alpha: float, N: int, kind: RuleKind) -> GaussRule:
    """Either kind of rule: one pass and Halley's step from ``_seeds`` at the
    zeros of L^(a)_n, and one closed form of the weights in the sum S."""
    LagParams(alpha=alpha, n=N)  # the check of (alpha, N)
    radau = kind is RuleKind.GAUSS_RADAU
    if radau and N < 1:
        raise ValueError("Gauss-Radau rule needs N >= 1")
    n, a = N + 1 - radau, alpha + radau  # Radau's interior family
    # one kernel pass at the seeds and Halley's step d from it, by x L'' +
    # (a+1-x) L' + n L = 0 and its derivative; S carried from the seed to
    # second order in d, which puts it at the zero, save at the 8 smallest
    # nodes: their weights carry S's rounding alone, and one the pass saw
    # within 8 ulps of its seed keeps the S of its own evaluation
    x0 = _seeds(a, n - 1)
    pts = np.sort(np.append(x0, x0[:8] + np.arange(-8, 9)[:, None]
                            * np.spacing(x0[:8])))
    pts = pts[np.diff(pts, prepend=-np.inf) != 0]  # np.unique loads numpy.ma
    val, S, _ = _value_sum(a, n, pts)
    i = np.searchsorted(pts, x0)
    h = val[i] / -S[i]  # L / L'
    r1 = -(a + 1.0 - x0 + n * h) / x0  # L'' / L'
    r2 = -((a + 2.0 - x0) * r1 + n - 1.0) / x0  # L''' / L'
    d = -h / (1.0 - 0.5 * h * r1)
    nodes = x0 + d
    j = np.minimum(np.searchsorted(pts, nodes), pts.size - 1)
    S = np.where(pts[j] == nodes, S[j], S[i] * (
        1.0 + d * (r1 - 0.5 + 0.5 * d * (r2 - r1 + 0.25))))
    # Halley leaves (c2^2 - c3) e^3 + O(e^4) of the seed's error e = -d +
    # O(e^3), c_k = L^(k) / (k! L') at the zero: Newton finishes from x1 the
    # nodes where |r1^2/4 - r2/6| |d|^3 is not below 1/16 ulp, under the
    # pass's own noise, and from the seed those whose x1 leaves the bracket
    # of seed midpoints
    ends = np.concatenate(([0.0], 0.5 * (x0[1:] + x0[:-1]),
                           [x0[-1] * 2.0 + 1.0]))
    inside = (nodes > ends[:-1]) & (nodes < ends[1:])
    redo = ~(inside & (np.abs(0.25 * r1 * r1 - r2 / 6.0) * np.abs(d) ** 3
                       < 0.0625 * np.spacing(nodes)))
    if redo.any():
        nodes[redo] = refine_newton(a, n - 1, np.where(inside, nodes, x0)[redo])
        S[redo] = _value_sum(a, n, nodes[redo])[1]
    if radau:
        try:
            w0 = math.exp(math.log(alpha + 1.0) + 2.0 * math.lgamma(
                alpha + 1.0) + math.lgamma(N + 1.0)
                - math.lgamma(N + alpha + 2.0))
        except OverflowError:
            raise ArithmeticError("Gauss-Radau weight w0 at the origin leaves "
                                  "the double range") from None
    # x L' = -(n+a) L^(a)_{n-1} at a zero of L^(a)_n (DLMF 18.9.14)
    log_fun_w = (math.lgamma(n + alpha + 1.0) - math.lgamma(n + 1.0)
                 + radau * math.log(n + a) - (1 + radau) * np.log(nodes)
                 - 2.0 * np.log(np.abs(S)))
    fun_w = np.exp(log_fun_w)
    if not np.all((fun_w > 0) & (fun_w < np.inf)):
        raise ArithmeticError(f"{'Gauss-Radau' if radau else 'Gauss'} rule "
                              f"weights leave the double range")
    w = np.exp(log_fun_w - nodes)  # only these may underflow
    if radau:
        nodes, w, fun_w = (np.concatenate(([v0], v)) for v0, v in (
            (0.0, nodes), (w0, w), (w0, fun_w)))
    return GaussRule(alpha=alpha, kind=kind, nodes=nodes, weights=w,
                     fun_weights=fun_w)


def gauss_rule(alpha: float, N: int) -> GaussRule:
    """(N+1)-point Gauss rule: nodes are the zeros of the degree-(N+1)
    polynomial, weights from the closed form

        w_j = [Gamma(N+alpha+2) / (N+1)!] / (x_j L_{N+1}'(x_j)^2)

    assembled as ``exp(log-ratio - log x_j - x_j - 2 log|S(x_j)|)`` with
    ``S = exp(-x/2) (L_0 + .. + L_N) = -exp(-x/2) L_{N+1}'``, which stays
    O(1) at the nodes for any N.  One kernel pass at the seeds gives L and
    S, and a Halley step per node makes the nodes and carries S to them.
    """
    return _rule(alpha, N, RuleKind.GAUSS)


def gauss_radau_rule(alpha: float, N: int) -> GaussRule:
    """(N+1)-point Gauss-Radau rule with a node fixed at the origin.

    The interior nodes are the zeros of the derivative of the
    degree-(N+1) polynomial, which coincide with the degree-N Gauss nodes
    of the (alpha+1) family, and are made as those, in one pass.  Their
    weights ``Gamma(N+alpha+1) / ((N+alpha+1) N! L_N(x_j)^2)`` take ``L_N(x_j)
    = x_j L^(alpha+1)_N'(x_j) / (N+alpha+1)`` from the sum S, as the Gauss
    weights take their derivative.
    """
    return _rule(alpha, N, RuleKind.GAUSS_RADAU)


@functools.lru_cache(maxsize=64)
def cached_gauss_rule(alpha: float, N: int,
                      kind: RuleKind | str = RuleKind.GAUSS) -> GaussRule:
    """Memoized rule constructor; rules are immutable and shareable."""
    return _rule(alpha, N, RuleKind(kind))  # "gauss" shares the member's key
