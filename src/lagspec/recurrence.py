"""Generalized Laguerre polynomials and functions via three-term recurrences.

Three evaluation routes are provided:

* the textbook three-term recurrence (``eval_poly_standard`` /
  ``eval_fun_standard``),
* a difference reformulation that propagates successive differences
  ``dL_n = L_n - L_{n-1}`` and loses fewer digits for small arguments
  (``eval_poly_modified`` / ``eval_fun_modified``),
* an adaptive rescaling scheme that folds the exponential prefactor
  ``exp(-x/2)`` into the iteration in small portions, so Laguerre functions
  of degree 1000+ can be evaluated at large arguments without overflow or
  underflow.  It is written once, as the array kernel behind
  ``fun_series_stable`` and ``fun_value_deriv_stable``; ``eval_fun_stable``
  is the kernel's value at one point.  The kernel checks for points to
  rescale every few steps, an interval derived from the largest abscissa
  and the headroom the rescale threshold ``_K1`` leaves below overflow,
  and hands back finished values, finalizing a series a few rows at a
  time.  The thresholds are private constants: no result depends on them
  beyond the final rounding, and the tests vary them to show it.

Every evaluator takes a scalar ``x`` (a series of shape ``(n+1,)``) or an
array (shape ``(n+1, npts)``, column ``j`` bitwise the series at ``x[j]``).
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
    "LagSeries",
    "eval_poly_standard",
    "eval_poly_modified",
    "eval_poly_derivative",
    "eval_fun_standard",
    "eval_fun_modified",
    "eval_fun_stable",
    "eval_fun_derivative",
    "fun_series_stable",
    "fun_value_deriv_stable",
    "norm_const",
]


@dataclass(frozen=True)
class LagParams:
    """Family exponent and degree of a generalized Laguerre evaluation.

    ``alpha`` must be > -1 (integrability of the weight ``x^alpha e^-x``),
    ``n`` is the highest degree requested.
    """

    alpha: float
    n: int

    def __post_init__(self) -> None:
        if not self.alpha > -1.0:
            raise ValueError(f"alpha must be > -1, got {self.alpha}")
        if self.n < 0:
            raise ValueError(f"degree must be >= 0, got {self.n}")


@dataclass
class LagSeries:
    """Values ``L_0 .. L_n`` at one abscissa or an array of them.

    ``values[k]`` holds either the polynomial ``L_k(x)`` or the function
    ``exp(-x/2) L_k(x)`` depending on which routine produced the series.
    ``deltas[k-1] = values[k] - values[k-1]`` when the difference form was
    used.  An array ``x`` of ``npts`` abscissae adds a trailing axis.
    """

    params: LagParams
    x: float | np.ndarray
    values: np.ndarray
    deltas: np.ndarray | None = None


# Thresholds of the adaptive rescaling: a rescale starts once |L| > exp(_K1)
# and brings the value down to about exp(-_K2).  _K1 + _K2 < 80 keeps every
# intermediate representable in double precision, and _K1 also sets the
# headroom between the kernel's checks (see _rescaled_recurrence).
# Read at call time; no result depends on them beyond the final rounding.
_K1 = 32.0
_K2 = 32.0

# Cody-Waite split of ln 2: the high part carries ~33 significant bits, so
# products with moderate integers are exact; the low part restores full
# precision in the compensated exponent of the rescaled evaluation.
_LN2 = math.log(2.0)
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10

_LOG_DBL_MAX = math.log(np.finfo(float).max)
_CHECK_MARGIN = 32.0  # nats of slack in the array kernel's check interval
_FINALIZE_ROWS = 16  # rows per block when finalizing a stored series


def _finalize(L, M, x):
    """``exp(-x/2) L_k`` from the kernel's iterates ``L = 2^-M L_k``.

    ``L`` is split into mantissa and exponent ``e`` first: iterates made
    under different rescale thresholds differ only by exact powers of two,
    so from here on the result is bitwise threshold-independent.  The
    exponent ``t = (M + e) ln 2 - x/2`` is a compensated (head, tail) pair;
    ``(M + e) * _LN2_HI`` is exact for the integer counts arising here, so
    the path-dependent part of ``t`` stays below one ulp of the result.
    The sign is taken from the mantissa: ``1 + t_lo`` turns negative once
    x/2 has a tail below -1 (x of about 1e16 and up), and an underflowed
    zero must not follow it.
    """
    mant, e = np.frexp(L)
    me = (np.asarray(M) + e).astype(float)
    a, b = me * _LN2_HI, 0.5 * x
    t_hi = a - b
    bv = t_hi - a
    t_lo = (a - (t_hi - bv)) + (-b - bv) + me * _LN2_LO
    out = mant * np.exp(t_hi) * (1.0 + t_lo)
    return np.copysign(out, mant, out=out)


def _abscissae(x):
    """``x`` checked >= 0 (not NaN), in its shape; a scalar comes back as a
    NumPy scalar, as the plain loops run slower on a 0-d array."""
    xs = np.asarray(x, dtype=float)
    if not np.all(xs >= 0):
        bad = xs[~(xs >= 0)][0]
        raise ValueError(f"abscissae must be >= 0, got {bad}")
    return xs[()]


# The plain and difference loops start from ``w L_0`` and ``w L_1`` (or
# ``w dL_1``): ``w = 1`` gives the polynomials, ``w = exp(-x/2)`` the
# functions; a product with 1.0 is exact, so both keep their arithmetic.
# ``w`` is ``math.exp`` at each point (``np.exp`` moves some by an ulp).
_exp = np.vectorize(math.exp, otypes=[float])


def _three_term(params: LagParams, xs: np.ndarray, w) -> LagSeries:
    alpha, n = params.alpha, params.n
    values = np.empty((n + 1,) + xs.shape)
    values[0] = w
    if n >= 1:
        values[1] = (alpha + 1.0 - xs) * w
    for k in range(1, n):
        values[k + 1] = ((2.0 * k + alpha + 1.0 - xs) * values[k]
                         - (k + alpha) * values[k - 1]) / (k + 1.0)
    return LagSeries(params=params, x=xs, values=values)


def _difference(params: LagParams, xs: np.ndarray, w) -> LagSeries:
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
    return LagSeries(params=params, x=xs, values=values, deltas=deltas)


def eval_poly_standard(params: LagParams, x) -> LagSeries:
    """Evaluate ``L_0(x) .. L_n(x)`` by the classical three-term recurrence.

    (k+1) L_{k+1} = (2k + alpha + 1 - x) L_k - (k + alpha) L_{k-1}.
    """
    return _three_term(params, _abscissae(x), 1.0)


def eval_poly_modified(params: LagParams, x) -> LagSeries:
    """Evaluate ``L_0(x) .. L_n(x)`` via the difference recurrence.

    Propagating ``dL_k = L_k - L_{k-1}`` avoids storing the coefficient
    ``2k + alpha + 1 - x`` explicitly, which is the dominant source of lost
    digits for small ``x``:

        dL_{k+1} = ((k+alpha) dL_k - x L_k) / (k+1),
        L_{k+1}  = L_k + dL_{k+1}.
    """
    return _difference(params, _abscissae(x), 1.0)


def eval_poly_derivative(series: LagSeries) -> np.ndarray:
    """Derivatives ``L_0'(x) .. L_n'(x)`` from a polynomial value series.

    Uses ``L_{k+1}' = L_k' - L_k`` (equivalently the derivative is minus
    the partial sum of lower-degree values).
    """
    values = series.values
    derivs = np.empty_like(values)
    derivs[0] = 0.0
    for k in range(series.params.n):
        derivs[k + 1] = derivs[k] - values[k]
    return derivs


def eval_fun_standard(params: LagParams, x) -> LagSeries:
    """Laguerre functions ``exp(-x/2) L_k(x)`` via the direct recurrence.

    The whole prefactor is applied up front; for large ``x`` it underflows
    to zero and the entire series collapses.  That failure mode is passed
    through on purpose -- use the stable route when it matters.
    """
    xs = _abscissae(x)
    return _three_term(params, xs, _exp(-xs / 2.0))


def eval_fun_modified(params: LagParams, x) -> LagSeries:
    """Laguerre functions via the difference recurrence.

    Same underflow caveat as :func:`eval_fun_standard`.
    """
    xs = _abscissae(x)
    return _difference(params, xs, _exp(-xs / 2.0))


def eval_fun_stable(params: LagParams, x: float) -> float:
    """Overflow/underflow-safe ``exp(-x/2) L_n(x)`` at one abscissa: the
    value of :func:`fun_value_deriv_stable`, as a Python float.

    Each call runs the array kernel's n steps for one point, so callers
    with many abscissae make one array call instead.
    """
    return float(fun_value_deriv_stable(params, float(x))[0])


def _rescaled_recurrence(alpha: float, n: int, xs: np.ndarray,
                         out: np.ndarray | None = None):
    """The rescaled difference recurrence at many abscissae, finished.

    Runs the difference recurrence on partially weighted values.  A budget
    ``x_b = x/2`` of exponent remains to be applied; at a check, each point
    whose iterate grew past ``exp(_K1)`` (every point on the first step)
    has a chunk ``x_c = min(max(log|L| + _K2, 0), x_b)`` of the weight
    folded in as an exact power of two and deducted from the budget.
    Checks come every ``every`` steps; the ``2^-M``-scaled iterates never
    leave this function.  Fills ``out``, shape ``(n+1, npts)``, with
    ``exp(-x/2) L_k``, finalizing the rows made since the last block before
    a check can change ``M`` and once ``_FINALIZE_ROWS`` wait, so the
    finalizer's temporaries stay block-sized.  Without ``out`` (``n >= 1``)
    returns ``exp(-x/2) L_n`` and ``exp(-x/2) (L_0 + .. + L_{n-1})``.
    """
    # A rescale is an exact power of two and finalizing goes through frexp,
    # so checking every K steps changes no result as long as nothing
    # overflows.  A step maps m = max(|L|, |dL|) to at most g m, with
    # g = 2 + |alpha| + x_max as |k+alpha|/(k+1) <= 1 + |alpha| and
    # x/(k+1) <= x/2.  A check leaves |L| <= exp(_K1) (or near the weighted
    # function once the budget x/2 is spent), and the running sum and
    # (k+alpha) dL stay within n+1 times the largest state, so K steps stay
    # finite while K log g <= log(DBL_MAX) - _K1 - log(n+1) - margin.  The
    # margin covers |dL| > |L| just after a check, near a sign change of L.
    g = 2.0 + abs(alpha) + float(xs.max(initial=0.0))
    headroom = _LOG_DBL_MAX - _K1 - math.log(n + 1.0) - _CHECK_MARGIN
    every = max(1, int(headroom // math.log(g))) if math.isfinite(g) else 1
    big = math.exp(_K1)
    half_x = 0.5 * xs
    L = 1.0 + alpha - xs
    dL = alpha - xs
    tmp = np.empty_like(xs)
    M = np.zeros(xs.size, dtype=np.int64)
    S = 1.0 + L if out is None else None
    sums = () if S is None else (S,)
    done = 0  # rows of out finalized so far
    if out is not None:
        out[0], out[1:2] = 1.0, L
    for k in range(1, n):
        dL *= k + alpha
        dL -= np.multiply(xs, L, out=tmp)
        dL /= k + 1.0
        L += dL
        if S is not None:
            S += L
        check = (k - 1) % every == 0
        if out is not None:
            out[k + 1] = L
            if check or k + 2 - done >= _FINALIZE_ROWS:
                out[done:k + 2] = _finalize(out[done:k + 2], M, xs)
                done = k + 2
        if check:
            idx = (np.arange(xs.size) if k == 1
                   else np.flatnonzero(np.abs(L) > big))
            idx = idx[(L[idx] != 0.0) & np.isfinite(L[idx])]
            if idx.size:
                xb = np.maximum(half_x[idx] - M[idx] * _LN2, 0.0)
                xc = np.clip(np.log(np.abs(L[idx])) + _K2, 0.0, xb)
                shift = (xc / _LN2).astype(np.int64)
                for v in (L, dL) + sums:
                    v[idx] = np.ldexp(v[idx], -shift)
                M[idx] += shift
    if not all(np.isfinite(v).all() for v in (L,) + sums):
        raise ArithmeticError("non-finite intermediate in rescaled recurrence")
    if out is None:
        return _finalize(L, M, xs), _finalize(S - L, M, xs)
    out[done:] = _finalize(out[done:], M, xs)


def fun_series_stable(params: LagParams, x) -> np.ndarray:
    """Stable Laguerre-function series at one or many abscissae.

    Every entry is the partially weighted iterate finalized through the
    compensated leftover exponent (see ``_finalize``).  Early entries whose
    true magnitude is below the double-precision range come out as exact
    zeros.

    Returns an array of shape ``(n+1,)`` for scalar ``x`` or
    ``(n+1, len(x))`` for array ``x``.
    """
    xs = np.atleast_1d(_abscissae(x))
    out = np.empty((params.n + 1, xs.size))
    _rescaled_recurrence(params.alpha, params.n, xs, out)
    return out[:, 0] if np.ndim(x) == 0 else out


def fun_value_deriv_stable(params: LagParams, x):
    """Degree-``n`` Laguerre function and its derivative, stably.

    Returns ``(exp(-x/2) L_n(x), d/dx [exp(-x/2) L_n(x)])`` for scalar or
    array ``x``.  The derivative uses the partial-sum identity
    ``L_n' = -(L_0 + ... + L_{n-1})`` with the running sum rescaled in
    lockstep with the iterate, so the ratio value/derivative stays accurate
    for Newton refinement of quadrature nodes.
    """
    alpha, n = params.alpha, params.n
    xs = np.atleast_1d(_abscissae(x))
    if n <= 1:
        w = np.exp(-xs / 2.0)
        val = w if n == 0 else (1.0 + alpha - xs) * w
        der = -0.5 * w if n == 0 else -(alpha + 3.0 - xs) / 2.0 * w
    else:
        val, part = _rescaled_recurrence(alpha, n, xs)
        # exp(-x/2) L_n' = -part; the prefactor's product rule adds -val/2
        der = -part - 0.5 * val
    return (val[0], der[0]) if np.ndim(x) == 0 else (val, der)


def eval_fun_derivative(params: LagParams, x) -> np.ndarray:
    """Derivative series of the Laguerre functions at ``x``.

    d/dx [exp(-x/2) L_{k+1}] = previous - half the two neighbouring
    function values; the function values themselves come from the stable
    series.
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
