"""Generalized Laguerre polynomials and functions via three-term recurrences.

Three evaluation routes are provided:

* the textbook three-term recurrence (``eval_poly_standard`` /
  ``eval_fun_standard``),
* a difference reformulation that propagates successive differences
  ``dL_n = L_n - L_{n-1}`` and loses fewer digits for small arguments
  (``eval_poly_modified`` / ``eval_fun_modified``),
* an adaptive rescaling scheme that keeps each iterate's binary exponent
  apart and applies ``exp(-x/2)`` only when finishing a value, so Laguerre
  functions of degree 1000+ can be evaluated at large arguments without
  overflow or underflow.  It is written once, as the array kernel behind
  ``fun_series_stable`` and ``fun_value_deriv_stable``.  Every few steps
  it scales each point's state below 1 by the state's own binary exponent,
  and it finalizes a series a few rows at a time with one exp per
  abscissa.  No result depends on where these checks fall; the tests
  move them to show it.

Every evaluator returns a plain array: a scalar ``x`` gives a series of
shape ``(n+1,)``, an array of any shape one of shape ``(n+1,) + x.shape``,
entry ``[:, j]`` bitwise the series at ``x[j]``.
All functions are pure; overflow/underflow in the standard routes is
deliberately passed through as IEEE infinities/zeros rather than masked,
since callers use it to detect where the stable route is required.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LagParams",
    "eval_poly_standard",
    "eval_poly_modified",
    "eval_poly_derivative",
    "eval_fun_standard",
    "eval_fun_modified",
    "eval_fun_derivative",
    "fun_series_stable",
    "fun_value_deriv_stable",
    "norm_const",
]


@dataclass(frozen=True)
class LagParams:
    """Family exponent and degree of a generalized Laguerre evaluation.

    ``alpha`` must be finite and > -1 (integrability of the weight
    ``x^alpha e^-x``), ``n``, the highest degree requested, an integer >= 0.
    Every evaluator and rule checks its (alpha, degree) through this class.
    """

    alpha: float
    n: int

    def __post_init__(self) -> None:
        if not -1.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and > -1, got {self.alpha}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 0):
            raise ValueError(f"degree must be an integer >= 0, got {self.n}")


# Cody-Waite split of ln 2 (Cody and Waite, Software Manual for the
# Elementary Functions, 1980): the first two parts carry 21 significant bits
# each, so their products with the integers q <= 2^32 of _reduce are exact.
_LN2 = math.log(2.0)
_LN2_HI, _LN2_MID = 0.6931467056274414, 4.7493244892393705e-07
_LN2_LO = 5.497923018708371e-14

_LOG_DBL_MAX = math.log(np.finfo(float).max)
_CHECK_MARGIN = 32.0  # nats of slack in the array kernel's check interval
_FINALIZE_ROWS = 16  # rows per block when finalizing a stored series


def _reduce(xs):
    """``(q, exp(-r))`` per abscissa, ``x/2 = q ln 2 + r``, ``|r| <= ln(2)/2``
    (Tang, ACM TOMS 15 (1989) 144-157); r carries one rounding, as its first
    two steps are exact.  q stops at 2^32, x above 5.95e9."""
    q = np.minimum(np.rint(xs / (2.0 * _LN2)), 2.0 ** 32)
    r = ((0.5 * xs - q * _LN2_HI) - q * _LN2_MID) - q * _LN2_LO
    return q.astype(np.int64), np.exp(-r)


def _finalize(L, M, red, out=None):
    """``exp(-x/2) L_k = ldexp(L E, M - q)`` from the kernel's iterates
    ``L = 2^-M L_k`` and the reduction ``red = (q, E)`` of their abscissae.

    Iterates under different check schedules differ by exact powers of
    two in L and M, which ``L E`` keeps and ldexp takes out: the result is
    bitwise schedule-independent, an underflowed zero's sign included.
    The cap on q moves no representable result, which needs ``M - q >
    -2100``: as every state is below 1 after a check, ``M ln 2 <= ln max
    |L_j(x)| + ln 2``, about ``n ln(1 + x)`` for moderate alpha, stays
    below ``x/2 - 1500`` past the cap for n < 10^8.  Past the double range
    a value is a signed infinity, without a warning, as below it a zero.
    """
    q, E = red
    with np.errstate(over="ignore"):
        return np.ldexp(np.multiply(L, E, out=out), M - q, out=out)


def _abscissae(x):
    """``x`` checked finite and >= 0, in its shape; a scalar comes back as a
    NumPy scalar, as the plain loops run slower on a 0-d array."""
    xs = np.asarray(x, dtype=float)
    ok = (xs >= 0) & (xs < np.inf)
    if not ok.all():
        raise ValueError(f"abscissae must be finite and >= 0, got {xs[~ok][0]}")
    return xs[()]


# The plain and difference loops start from ``w L_0`` and ``w L_1`` (or
# ``w dL_1``): ``w = 1`` gives the polynomials, ``w = exp(-x/2)`` the
# functions; a product with 1.0 is exact, so both keep their arithmetic.
# ``w`` is ``math.exp`` at each point (``np.exp`` moves some by an ulp).
_exp = np.vectorize(math.exp, otypes=[float])


def _three_term(params: LagParams, xs: np.ndarray, w) -> np.ndarray:
    alpha, n = params.alpha, params.n
    values = np.empty((n + 1,) + xs.shape)
    values[0] = w
    if n >= 1:
        values[1] = (alpha + 1.0 - xs) * w
    for k in range(1, n):
        values[k + 1] = ((2.0 * k + alpha + 1.0 - xs) * values[k]
                         - (k + alpha) * values[k - 1]) / (k + 1.0)
    return values


def _difference(params: LagParams, xs: np.ndarray, w):
    """``(values, deltas)`` of the difference loop, with
    ``values[k] = values[k-1] + deltas[k-1]``."""
    alpha, n = params.alpha, params.n
    values = np.empty((n + 1,) + xs.shape)
    deltas = np.empty((n,) + xs.shape)
    values[0] = w
    if n >= 1:
        deltas[0] = (alpha - xs) * w
        values[1] = values[0] + deltas[0]
    for k in range(1, n):
        deltas[k] = ((k + alpha) * deltas[k - 1] - xs * values[k]) / (k + 1.0)
        values[k + 1] = values[k] + deltas[k]
    return values, deltas


def eval_poly_standard(params: LagParams, x) -> np.ndarray:
    """Evaluate ``L_0(x) .. L_n(x)`` by the classical three-term recurrence.

    (k+1) L_{k+1} = (2k + alpha + 1 - x) L_k - (k + alpha) L_{k-1}.
    """
    return _three_term(params, _abscissae(x), 1.0)


def eval_poly_modified(params: LagParams, x) -> np.ndarray:
    """Evaluate ``L_0(x) .. L_n(x)`` via the difference recurrence.

    Propagating ``dL_k = L_k - L_{k-1}`` avoids storing the coefficient
    ``2k + alpha + 1 - x`` explicitly, which is the dominant source of lost
    digits for small ``x``:

        dL_{k+1} = ((k+alpha) dL_k - x L_k) / (k+1),
        L_{k+1}  = L_k + dL_{k+1}.
    """
    return _difference(params, _abscissae(x), 1.0)[0]


def eval_poly_derivative(values: np.ndarray) -> np.ndarray:
    """Derivatives ``L_0'(x) .. L_n'(x)`` from a polynomial value series.

    Uses ``L_{k+1}' = L_k' - L_k`` (equivalently the derivative is minus
    the partial sum of lower-degree values).
    """
    derivs = np.empty_like(values)
    derivs[0] = 0.0
    for k in range(len(values) - 1):
        derivs[k + 1] = derivs[k] - values[k]
    return derivs


def eval_fun_standard(params: LagParams, x) -> np.ndarray:
    """Laguerre functions ``exp(-x/2) L_k(x)`` via the direct recurrence.

    The whole prefactor is applied up front; for large ``x`` it underflows
    to zero and the entire series collapses.  That failure mode is passed
    through on purpose -- use the stable route when it matters.
    """
    xs = _abscissae(x)
    return _three_term(params, xs, _exp(-xs / 2.0))


def eval_fun_modified(params: LagParams, x) -> np.ndarray:
    """Laguerre functions via the difference recurrence.

    Same underflow caveat as :func:`eval_fun_standard`.
    """
    xs = _abscissae(x)
    return _difference(params, xs, _exp(-xs / 2.0))[0]


def _rescaled_recurrence(alpha: float, n: int, xs: np.ndarray,
                         out: np.ndarray | None = None):
    """The rescaled difference recurrence at many abscissae, finished.

    Runs the difference recurrence on the iterates ``2^-M L_k``.  At a
    check, each point whose state ``max(|L|, |dL|)`` is at least 1 is
    scaled, with its running sum, by ``2^-e`` into [0.5, 1), e the state's
    binary exponent, and ``M += e``: every state is below 1 after every
    check.  The first check comes before the first step, the next ones
    every ``every`` steps; the scaled iterates never
    leave this function.  Fills ``out``, shape ``(n+1, npts)``, with
    ``exp(-x/2) L_k``, finalizing the rows made since the last block before
    a check can change ``M`` and once ``_FINALIZE_ROWS`` wait, so the
    finalizer's temporaries stay block-sized.  Without ``out`` (``n >= 2``)
    returns ``exp(-x/2)`` times ``L_n``, the partial sum ``S = L_0 + .. +
    L_{n-1} = -L_n'`` and ``L_n' - L_n/2``, the last two formed on the
    scaled iterates, so where value and sum overflow the derivative is a
    signed infinity, not NaN.
    """
    # A rescale is an exact power of two and finalizing takes it back out
    # exactly, so checking every K steps changes no result as long as nothing
    # overflows.  A step maps m = max(|L|, |dL|) to at most g m, with
    # g = 2 + |alpha| + x_max as |k+alpha|/(k+1) <= 1 + |alpha| and
    # x/(k+1) <= x/2.  A check leaves every state below 1, and the running
    # sum and (k+alpha) dL stay within n+1 times the largest state, so K
    # steps stay finite while K log g <= log(DBL_MAX) - log(n+1) - margin.
    g = 2.0 + abs(alpha) + float(xs.max(initial=0.0))
    headroom = _LOG_DBL_MAX - math.log(n + 1.0) - _CHECK_MARGIN
    every = max(1, int(headroom // math.log(g)))  # 1 where g overflows
    red = _reduce(xs)
    L = 1.0 + alpha - xs
    dL = alpha - xs
    tmp = np.empty_like(xs)
    M = np.zeros(xs.size, dtype=np.int64)
    S = 1.0 + L if out is None else None
    sums = () if S is None else (S,)
    done = 0  # rows of out finalized so far
    if out is not None:
        out[0] = 1.0
    # k = 0 makes no step: x L_1 overflows unless L_1 is rescaled first
    for k in range(n):
        if k:
            dL *= k + alpha
            dL -= np.multiply(xs, L, out=tmp)
            dL /= k + 1.0
            L += dL
            if S is not None:
                S += L
        check = k % every == 0
        if out is not None:
            out[k + 1] = L
            if check or k + 2 - done >= _FINALIZE_ROWS:
                _finalize(out[done:k + 2], M, red, out[done:k + 2])
                done = k + 2
        if check:
            state = np.maximum(np.abs(L), np.abs(dL))
            shift = np.maximum(np.frexp(state)[1], 0)
            for v in (L, dL) + sums:
                np.ldexp(v, -shift, out=v)
            M += shift
    if not all(np.isfinite(v).all() for v in (L,) + sums):
        raise ArithmeticError("non-finite intermediate in rescaled recurrence")
    if out is None:
        S -= L
        return (_finalize(L, M, red), _finalize(S, M, red),
                _finalize(-S - 0.5 * L, M, red))
    _finalize(out[done:], M, red, out[done:])


def fun_series_stable(params: LagParams, x) -> np.ndarray:
    """Stable Laguerre-function series at one or many abscissae.

    Every entry is the kernel's rescaled iterate times one exp per
    abscissa and a power of two (see ``_finalize``).  Entries whose true
    magnitude is below the double-precision range come out as signed
    zeros, and entries above it as signed infinities, both without a
    warning; the other entries of the call keep their values.

    Returns an array of shape ``(n+1,) + np.shape(x)``.
    """
    xs = _abscissae(x)
    out = np.empty((params.n + 1, xs.size))
    _rescaled_recurrence(params.alpha, params.n, np.ravel(xs), out)
    return out.reshape((params.n + 1,) + np.shape(xs))


def fun_value_deriv_stable(params: LagParams, x):
    """Degree-``n`` Laguerre function and its derivative, stably.

    Returns ``(exp(-x/2) L_n(x), d/dx [exp(-x/2) L_n(x)])`` for scalar or
    array ``x``.  The derivative uses the partial-sum identity
    ``L_n' = -(L_0 + ... + L_{n-1})`` with the running sum rescaled in
    lockstep with the iterate and combined with it before the prefactor,
    so where it leaves the double range it is a signed infinity, not NaN.
    """
    shape = np.shape(x)
    val, _, der = _value_sum(params.alpha, params.n, np.ravel(_abscissae(x)))
    return val.reshape(shape)[()], der.reshape(shape)[()]


def _value_sum(alpha: float, n: int, xs: np.ndarray):
    """``exp(-x/2)`` times ``L_n``, ``S = L_0 + .. + L_{n-1}`` and
    ``L_n' - L_n/2`` at 1-D ``xs``; S is 0 for n = 0."""
    if n <= 1:  # L_0 = 1, L_1 and L_1' - L_1/2, as the kernel finalizes
        red = _reduce(xs)
        w, val, der = (_finalize(v, 0, red) for v in (
            1.0, 1.0 + alpha - xs, -0.5 * (alpha + 3.0 - xs)))
        return (w, 0.0 * w, -0.5 * w) if n == 0 else (val, w, der)
    # one abscissa runs as two copies: 9.1 vs 4.8 ms at degree 1000
    return tuple(v[:xs.size] for v in _rescaled_recurrence(
        alpha, n, np.repeat(xs, 2) if xs.size == 1 else xs))


def eval_fun_derivative(params: LagParams, x) -> np.ndarray:
    """Derivative series of the Laguerre functions at ``x``.

    d/dx [exp(-x/2) L_{k+1}] = the degree-k derivative minus the mean of
    the degree-k and -(k+1) function values, from the stable series.
    """
    values = fun_series_stable(params, x)
    derivs = np.empty_like(values)
    derivs[0] = -0.5 * values[0]
    for k in range(params.n):
        derivs[k + 1] = derivs[k] - 0.5 * values[k] - 0.5 * values[k + 1]
    return derivs


def norm_const(params: LagParams) -> float:
    """Squared norm Gamma(n+alpha+1)/n! of the degree-n family member.

    Computed as a log-gamma difference so large degrees do not overflow.
    """
    alpha, n = params.alpha, params.n
    return math.exp(math.lgamma(n + alpha + 1.0) - math.lgamma(n + 1.0))
