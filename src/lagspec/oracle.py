"""Extended-precision reference values for recurrences and quadrature nodes.

Everything here runs through mpmath at a configurable decimal precision
(24 digits by default, matching the double-precision test regime with a
comfortable margin).  Float inputs are taken bit-exactly (``mp.mpf`` of a
double is exact); strings are parsed at the working precision.

``hp_eval`` returns decimal strings, so the double-precision API stays
free of extended-precision types; ``hp_gauss_nodes_mpf`` and the private
``_poly_series_mpf`` return mpf values for callers that keep computing in
mpmath.

The series and sums over it run on raw libmp values (``_mpf_`` tuples)
with the same correctly rounded ``mpf_add``/``mpf_sub``/``mpf_mul``/
``mpf_div`` at ``mp.prec`` that mpf's operators apply, one operation for
each of theirs and in their order, so they match mpf arithmetic bit for
bit without the operator wrappers; only values a caller needs become mpf.
The factors of a step that do not depend on x are built once per
(alpha, n, precision) and shared by every abscissa.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp
from mpmath.libmp import (from_int, mpf_add, mpf_div, mpf_mul, mpf_sub,
                          round_nearest)

from .quadrature import nodes_eigen_seed

__all__ = [
    "HpContext",
    "hp_eval",
    "hp_gauss_nodes_mpf",
]


@dataclass(frozen=True)
class HpContext:
    """Working decimal precision of the reference computations."""

    digits: int = 24

    def __post_init__(self) -> None:
        if not 24 <= self.digits <= 64:
            raise ValueError("digits must lie in [24, 64]")


_ONE = from_int(1)


def _raw(v):
    """An mpf's ``_mpf_`` as it is; anything else through ``mp.mpf``."""
    raw = getattr(v, "_mpf_", None)
    return mp.mpf(v)._mpf_ if raw is None else raw


@lru_cache(maxsize=4)
def _step_factors(alpha, n: int, prec: int):
    """``(2k+alpha+1, k+alpha, k+1)`` for steps k = 1 .. n-1, rounded at
    ``prec`` as ``2*k + alpha + 1`` and ``k + alpha`` round in mpf."""
    return tuple(
        (mpf_add(mpf_add(alpha, from_int(2 * k), prec, round_nearest),
                 _ONE, prec, round_nearest),
         mpf_add(alpha, from_int(k), prec, round_nearest),
         from_int(k + 1))
        for k in range(1, n))


def _poly_series_raw(alpha, n: int, x) -> list:
    """Standard three-term recurrence ``L_0 .. L_n`` as raw values, with
    every operation rounded at ``mp.prec`` as mpf arithmetic rounds it."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    prec, rnd = mp.prec, round_nearest
    a, xr = _raw(alpha), _raw(x)
    raw = [_ONE]
    if n >= 1:
        raw.append(mpf_sub(mpf_add(a, _ONE, prec, rnd), xr, prec, rnd))
    for k, (c, b, d) in enumerate(_step_factors(a, n, prec), 1):
        raw.append(mpf_div(
            mpf_sub(mpf_mul(mpf_sub(c, xr, prec, rnd), raw[k], prec, rnd),
                    mpf_mul(b, raw[k - 1], prec, rnd), prec, rnd),
            d, prec, rnd))
    return raw


def _poly_series_mpf(alpha, n: int, x):
    """:func:`_poly_series_raw` as mpf values."""
    return [mp.make_mpf(v) for v in _poly_series_raw(alpha, n, x)]


def hp_eval(ctx: HpContext, alpha, n: int, x) -> tuple[str, str]:
    """Degree-n polynomial ``L_n(x)`` and function ``exp(-x/2) L_n(x)``
    as decimal strings, both from one series.

    ``n`` must be an integer >= 0, ``x`` finite and ``alpha`` finite and
    > -1; anything else is a ``ValueError`` that names the argument.
    """
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"n must be an integer >= 0, got {n!r}")
    with mp.workdps(ctx.digits):
        xx, aa = mp.mpf(x), mp.mpf(alpha)
        if not mp.isfinite(xx):
            raise ValueError(f"x must be finite, got {x!r}")
        if not (mp.isfinite(aa) and aa > -1):
            raise ValueError(f"alpha must be finite and > -1, got {alpha!r}")
        val = mp.make_mpf(_poly_series_raw(aa, n, xx)[n])
        return (mp.nstr(val, ctx.digits),
                mp.nstr(mp.e ** (-xx / 2) * val, ctx.digits))


def hp_gauss_nodes_mpf(ctx: HpContext, alpha, N: int):
    """Reference Gauss nodes as mpf values (ascending).

    Double-precision eigenvalue seeds are polished by Newton iterations in
    extended precision until the step falls below ``10^(2-digits) * x``.
    Ten guard digits are carried internally so recurrence round-off at the
    working precision cannot stall the iteration below the tolerance.
    """
    seeds = nodes_eigen_seed(float(alpha), N)
    with mp.workdps(ctx.digits + 10):
        a = mp.mpf(alpha)
        tol, prec = mp.mpf(10) ** (2 - ctx.digits), mp.prec
        out = []
        for j, seed in enumerate(seeds):
            x = mp.mpf(float(seed))
            for _ in range(60):
                vals = _poly_series_raw(a, N + 1, x)
                # -sum(L_0 .. L_N) as sum forms it, from int 0 upwards
                total = from_int(0)
                for v in vals[:N + 1]:
                    total = mpf_add(total, v, prec, round_nearest)
                step = mp.make_mpf(vals[N + 1]) / -mp.make_mpf(total)
                x = x - step
                if abs(step) <= tol * x:
                    break
            else:
                raise ArithmeticError(
                    f"reference Newton did not converge at node {j}")
            out.append(x)
        return out

