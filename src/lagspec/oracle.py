"""Extended-precision reference values for recurrences and quadrature nodes.

Everything here runs at an mpmath decimal precision of 24 to 64 digits
(24 by default, matching the double-precision test regime with a
comfortable margin).  Float inputs are taken bit-exactly (``mp.mpf`` of a
double is exact); strings are parsed at the working precision.

``hp_eval`` returns decimal strings, so the double-precision API stays
free of extended-precision types; ``hp_gauss_nodes_mpf`` and the private
``_poly_series_mpf`` return mpf values for callers that keep computing in
mpmath.

The series runs on plain Python ints: a value is a pair ``(m, e)``,
``m * 2**e`` with ``|m| <= 2**mp.prec``.  A step applies the five
operations of mpf's ``((2k+alpha+1 - x) * L_k - (k+alpha) * L_{k-1}) /
(k+1)`` in their order.  Subtraction and product are exact int operations;
the division by the int ``k+1`` keeps libmp's ``prec - bits(s) +
bits(k+1) + 5`` guard bits (its floor of 5 never applies: a rounded ``s``
has at most ``prec + 1`` bits and ``k+1 >= 2``, so the count is >= 6) and
a sticky bit for a nonzero remainder.
Each result is then rounded once to ``mp.prec`` bits, half to even, inline
in the loop.  libmp's ``round_nearest`` rounds each of these operations
correctly, and a correctly rounded result is unique, so every value
equals mpf's bit for bit.  The Newton derivative's sum ``L_0 + ... + L_N``
is formed the same way, from 0 upwards as ``sum`` adds mpf values.  The
x-free factors of a step are built once per (alpha, n, precision) and
shared by every abscissa.

Values become ``_mpf_`` tuples (and mpf) only where a caller reads them:
the last one in ``hp_eval``, all of them in ``_poly_series_mpf``, and
``L_{N+1}`` and the sum in ``hp_gauss_nodes_mpf``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp
from mpmath.libmp import from_man_exp

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
        if not (isinstance(self.digits, numbers.Integral)
                and 24 <= self.digits <= 64):
            raise ValueError("digits must lie in [24, 64]")


def _pair(v) -> tuple[int, int]:
    """An mpf (anything else through ``mp.mpf``) as an exact ``(m, e)``."""
    raw = getattr(v, "_mpf_", None)
    sign, man, exp, _ = mp.mpf(v)._mpf_ if raw is None else raw
    if not man and exp:
        raise ValueError(f"series inputs must be finite, got {v!r}")
    return (-man if sign else man), exp


def _add(am: int, ae: int, bm: int, be: int, prec: int) -> tuple[int, int]:
    """``a + b``, exact, then rounded to ``prec`` bits, half to even: the
    operation that the series loop inlines."""
    if ae > be:
        m, e = (am << (ae - be)) + bm, be
    else:
        m, e = am + (bm << (be - ae)), ae
    s = m.bit_length() - prec
    if s > 0:
        # floor((m + 2**(s-1) - 1 + odd) / 2**s), odd the parity of m >> s
        m, e = (m + (1 << (s - 1)) - 1 + ((m >> s) & 1)) >> s, e + s
    return m, e


@lru_cache(maxsize=4)
def _step_factors(am: int, ae: int, n: int, prec: int):
    """``(c_m, c_e, b_m, b_e, k+1)`` for steps k = 1 .. n-1: ``c`` and
    ``b`` are ``2*k + alpha + 1`` and ``k + alpha`` rounded at ``prec`` as
    mpf rounds them, for ``alpha = am * 2**ae``."""
    return tuple(
        _add(*_add(am, ae, 2 * k, 0, prec), 1, 0, prec)
        + _add(am, ae, k, 0, prec) + (k + 1,)
        for k in range(1, n))


def _poly_series_int(alpha, n: int, x) -> list:
    """Standard three-term recurrence ``L_0 .. L_n`` as ``(m, e)`` pairs,
    with every operation rounded at ``mp.prec`` as mpf arithmetic rounds
    it.  Every series of this module runs through this name."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    prec = mp.prec
    (am, ae), (xm, xe) = _pair(alpha), _pair(x)
    out = [(1, 0)]
    if n >= 1:
        out.append(_add(*_add(am, ae, 1, 0, prec), -xm, xe, prec))
    m0, e0 = out[0]
    m1, e1 = out[-1]
    for cm, ce, bm, be, d in _step_factors(am, ae, n, prec):
        # each of the five operations is exact, then rounded half to even
        if ce > xe:  # c - x
            m, e = (cm << (ce - xe)) - xm, xe
        else:
            m, e = cm - (xm << (xe - ce)), ce
        s = m.bit_length() - prec
        if s > 0:
            m, e = (m + (1 << (s - 1)) - 1 + ((m >> s) & 1)) >> s, e + s
        m, e = m * m1, e + e1  # (c - x) * L_k
        s = m.bit_length() - prec
        if s > 0:
            m, e = (m + (1 << (s - 1)) - 1 + ((m >> s) & 1)) >> s, e + s
        um, ue = bm * m0, be + e0  # b * L_{k-1}
        s = um.bit_length() - prec
        if s > 0:
            um, ue = (um + (1 << (s - 1)) - 1 + ((um >> s) & 1)) >> s, ue + s
        if e > ue:  # (c - x) * L_k - b * L_{k-1}
            m, e = (m << (e - ue)) - um, ue
        else:
            m -= um << (ue - e)
        s = m.bit_length() - prec
        if s > 0:
            m, e = (m + (1 << (s - 1)) - 1 + ((m >> s) & 1)) >> s, e + s
        # / (k+1) with libmp's guard bits, and a sticky bit for a remainder
        g = prec - m.bit_length() + d.bit_length() + 5
        m, r = divmod(m << g, d)
        if r:
            m, g = (m << 1) | 1, g + 1
        e -= g
        s = m.bit_length() - prec
        if s > 0:
            m, e = (m + (1 << (s - 1)) - 1 + ((m >> s) & 1)) >> s, e + s
        out.append((m, e))
        m0, e0, m1, e1 = m1, e1, m, e
    return out


def _sum(pairs, prec: int) -> tuple[int, int]:
    """The values of ``(m, e)`` pairs summed as ``sum`` adds mpf values:
    from int 0 upwards, each add exact and then rounded half to even."""
    tm = te = 0
    for m, e in pairs:
        tm, te = _add(tm, te, m, e, prec)
    return tm, te


def _mpf(pair):
    """An ``(m, e)`` pair as an mpf, exactly."""
    return mp.make_mpf(from_man_exp(*pair))


def _poly_series_mpf(alpha, n: int, x):
    """:func:`_poly_series_int` as mpf values."""
    return [_mpf(v) for v in _poly_series_int(alpha, n, x)]


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
        val = _mpf(_poly_series_int(aa, n, xx)[n])
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
                vals = _poly_series_int(a, N + 1, x)
                step = _mpf(vals[N + 1]) / -_mpf(_sum(vals[:N + 1], prec))
                x = x - step
                if abs(step) <= tol * x:
                    break
            else:
                raise ArithmeticError(
                    f"reference Newton did not converge at node {j}")
            out.append(x)
        return out

