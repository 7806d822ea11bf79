"""Laguerre-Gauss and Laguerre-Gauss-Radau quadrature rules.

Nodes are seeded by the eigenvalues of the symmetric tridiagonal recurrence
matrix and polished by Newton iterations driven by the stable function
evaluation.  Weights are produced from the closed-form expressions with all
Gamma ratios kept in log space and the squared basis value taken in
function form, so rules with thousands of points neither overflow nor lose
their weights to premature underflow.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .recurrence import LagParams, fun_value_deriv_stable

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
        for name in ("nodes", "weights", "fun_weights"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
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
    j = np.arange(N + 1, dtype=float)
    diag = 2.0 * j + alpha + 1.0
    off = -np.sqrt(j[1:] * (j[1:] + alpha))
    try:
        ev = eigvalsh_tridiagonal(diag, off)
    except Exception as exc:  # pragma: no cover - LAPACK failure is exotic
        raise ArithmeticError(f"tridiagonal eigensolver failed: {exc}") from exc
    ev = np.sort(ev)
    if np.any(np.diff(ev) <= 0):
        raise ArithmeticError("eigenvalue solver returned coincident nodes")
    return ev


def refine_newton(alpha: float, N: int, seeds: np.ndarray) -> np.ndarray:
    """Newton-polish the zeros of the degree-(N+1) polynomial.

    Each node is updated by ``x <- x - L_{N+1}(x) / L_{N+1}'(x)`` with the
    ratio evaluated through the rescaled function recurrence (the common
    exponential scale cancels).  Iteration stops once every node's step is
    at most ``4 eps x``, or after 10 iterations.  A node that leaves the
    bracket formed by its neighbouring seed midpoints is reset to its seed
    and reported via a warning.

    A step is a pointwise, deterministic map of the node (the recurrence
    rescales by exact powers of two and finalizes through frexp, so a
    node's value does not depend on the rest of the batch).  Once a node's
    iterate equals one of its earlier iterates, bitwise, it repeats that
    cycle forever, so its later iterates and step tests are copied from
    its history instead of evaluated again.  That changes no bit of the
    result; it only stops re-evaluating nodes that bounce between
    neighbouring doubles while others still move.
    """
    seeds = np.asarray(seeds, dtype=float)
    if not (seeds.ndim == 1 and seeds.size and np.all(np.isfinite(seeds))
            and np.all(seeds > 0) and np.all(np.diff(seeds) > 0)):
        raise ValueError("seeds must be a nonempty 1-D array of finite, "
                         "positive, strictly increasing values")

    lo = np.empty_like(seeds)
    hi = np.empty_like(seeds)
    mids = 0.5 * (seeds[1:] + seeds[:-1])
    lo[0], lo[1:] = 0.0, mids
    hi[-1], hi[:-1] = seeds[-1] * 2.0 + 1.0, mids

    params = LagParams(alpha=alpha, n=N + 1)
    # row k of xs is the k-th iterate, row k of small the k-th step test;
    # period[j] > 0 once node j's iterate repeated the one period[j] back
    xs = np.empty((_NEWTON_MAX_ITERS + 1, seeds.size))
    small = np.empty((_NEWTON_MAX_ITERS, seeds.size), dtype=bool)
    period = np.zeros(seeds.size, dtype=np.intp)
    xs[0] = seeds
    for k in range(_NEWTON_MAX_ITERS):
        cyc = np.flatnonzero(period)
        xs[k + 1, cyc] = xs[k + 1 - period[cyc], cyc]
        small[k, cyc] = small[k - period[cyc], cyc]
        live = np.flatnonzero(period == 0)
        if live.size:
            x = xs[k, live]
            val, der = fun_value_deriv_stable(params, x)
            # L / L' = Lhat / (Lhat' + Lhat / 2): the exp(-x/2) scale cancels
            step = val / (der + 0.5 * val)
            xs[k + 1, live] = x - step
            small[k, live] = np.abs(step) <= _NEWTON_REL_STEP_TOL * x
            # hit[i]: the new iterate equals iterate k - i (period i + 1)
            hit = xs[k::-1, live] == xs[k + 1, live]
            period[live] = np.where(hit.any(axis=0), hit.argmax(axis=0) + 1, 0)
        if small[k].all():
            break
    x = xs[k + 1].copy()
    escaped = (x <= lo) | (x >= hi)
    if np.any(escaped):
        warnings.warn(
            f"Newton refinement escaped bracket at indices "
            f"{np.flatnonzero(escaped).tolist()}; falling back to seeds",
            RuntimeWarning)
        x[escaped] = seeds[escaped]
    return x


def _gauss_nodes(alpha: float, N: int) -> np.ndarray:
    return refine_newton(alpha, N, nodes_eigen_seed(alpha, N))


def gauss_rule(alpha: float, N: int) -> GaussRule:
    """(N+1)-point Gauss rule: nodes are the zeros of the degree-(N+1)
    polynomial, weights from the closed form

        w_j = [Gamma(N+alpha+1) / ((N+alpha+1) (N+1)!)] x_j / L_N(x_j)^2

    assembled as ``exp(log-ratio + log x_j - x_j - 2 log|Lhat_N(x_j)|)``
    with the function value ``Lhat_N = exp(-x/2) L_N`` which stays O(1) at
    the nodes for any N.
    """
    nodes = _gauss_nodes(alpha, N)
    lhat, _ = fun_value_deriv_stable(LagParams(alpha=alpha, n=N), nodes)
    log_ratio = (math.lgamma(N + alpha + 1.0) - math.log(N + alpha + 1.0)
                 - math.lgamma(N + 2.0))
    log_fun_w = log_ratio + np.log(nodes) - 2.0 * np.log(np.abs(lhat))
    fun_weights = np.exp(log_fun_w)
    weights = np.exp(log_fun_w - nodes)
    return GaussRule(alpha=alpha, kind=RuleKind.GAUSS, nodes=nodes,
                     weights=weights, fun_weights=fun_weights)


def gauss_radau_rule(alpha: float, N: int) -> GaussRule:
    """(N+1)-point Gauss-Radau rule with a node fixed at the origin.

    The interior nodes are the zeros of the derivative of the
    degree-(N+1) polynomial, which coincide with the degree-N Gauss nodes
    of the (alpha+1) family.
    """
    params = LagParams(alpha=alpha, n=N)
    if N < 1:
        raise ValueError("Gauss-Radau rule needs N >= 1")
    interior = _gauss_nodes(alpha + 1.0, N - 1)
    nodes = np.concatenate(([0.0], interior))

    w0 = math.exp(math.log(alpha + 1.0) + 2.0 * math.lgamma(alpha + 1.0)
                  + math.lgamma(N + 1.0) - math.lgamma(N + alpha + 2.0))
    lhat, _ = fun_value_deriv_stable(params, interior)
    log_ratio = (math.lgamma(N + alpha + 1.0) - math.lgamma(N + 1.0)
                 - math.log(N + alpha + 1.0))
    log_fun_w = log_ratio - 2.0 * np.log(np.abs(lhat))
    fun_weights = np.concatenate(([w0], np.exp(log_fun_w)))
    weights = np.concatenate(([w0], np.exp(log_fun_w - interior)))
    return GaussRule(alpha=alpha, kind=RuleKind.GAUSS_RADAU, nodes=nodes,
                     weights=weights, fun_weights=fun_weights)


@functools.lru_cache(maxsize=64)
def cached_gauss_rule(alpha: float, N: int,
                      kind: RuleKind = RuleKind.GAUSS) -> GaussRule:
    """Memoized rule constructor; rules are immutable and shareable."""
    if kind is RuleKind.GAUSS:
        return gauss_rule(alpha, N)
    return gauss_radau_rule(alpha, N)

