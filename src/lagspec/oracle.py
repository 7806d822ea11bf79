"""Extended-precision reference values for recurrences and quadrature nodes.

Everything here runs at an mpmath decimal precision of 24 to 64 digits
(24 by default, matching the double-precision test regime with a
comfortable margin).  Float inputs are taken bit-exactly (``mp.mpf`` of a
double is exact); strings are parsed at the working precision.

``hp_eval`` returns decimal strings, so the double-precision API stays
free of extended-precision types; ``hp_gauss_nodes_mpf`` and the private
``_poly_series_mpf`` return mpf values for callers that keep computing in
mpmath.

Every series runs through ``_series`` on plain Python ints.  alpha and x
are dyadic, ``A / 2**s`` and ``X / 2**s``, so a step of
``(k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}`` is exact int
arithmetic and one floor of the quotient by ``(k+1) * 2**s``.  The two
states share one binary exponent; when the larger leaves the band of
``w = mp.prec + _GUARD`` to ``w + _GUARD`` bits, they and the running sum
``L_0 + ... + L_k`` are shifted so that it carries ``w`` bits.  A value or
the sum is rounded once to ``mp.prec`` bits, to nearest, where a caller
reads it: the last value in ``hp_eval``, all of them in
``_poly_series_mpf``, ``L_{N+1}`` and the sum in ``hp_gauss_nodes_mpf``.
The floors err by a few units in the larger state's last guard bit or
below, so what is read is the exact value correctly rounded unless it
cancels by some 60 bits against its neighbours; the tests find every value
and sum of their grids (24 to 64 digits, 4 to 113 bits, degrees to 255, x
from 0 and 1e-300 to 900) correctly rounded.  ``L_{N+1}`` at a node
cancels by far more, and there only its error below the node's last place
matters.  ``hp_eval``'s function value is that times ``exp(-x/2)`` in mpf.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from mpmath import mp
from mpmath.libmp import from_man_exp, round_nearest

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


# Guard bits above mp.prec, and the band's width.  A step's floor and its
# rescale each err by under one unit in the last place of the larger state,
# so 64 bits keep a value correctly rounded unless it cancels by some 60
# bits against its neighbours.  The exact integers k! 2**(s k) L_k cost five
# times as much (0.12 s against 0.023 s for compare's 256 series at alpha 0).
_GUARD = 64


def _series(alpha, n: int, x, out=None):
    """``L_n`` and the sum ``L_0 + ... + L_{n-1}`` as ``(m, e)`` pairs,
    ``m * 2**e``, each ``L_k`` appended to ``out`` if it is a list, with the
    states rescaled only out of their band (module docstring).  Every
    series of this module runs through this name."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    (am, ae), (xm, xe) = _pair(alpha), _pair(x)
    s = max(0, -ae, -xe)  # alpha = A / 2**s and x = X / 2**s, exactly
    d, d2, b = 1 << s, 2 << s, am << (ae + s)
    c, w = d + b - (xm << (xe + s)), mp.prec + _GUARD
    lo, hi, e, total = 0, 1 << (w - 1), 1 - w, 0
    if out is not None:
        out.append((hi, e))
    for k in range(1, n + 1):
        # k 2**s L_k = c L_{k-1} - b L_{k-2}, c = (2k-1) 2**s + A - X and
        # b = (k-1) 2**s + A: exact, then one floor of the quotient (the
        # floor by 2**s, then by k)
        total += hi
        lo, hi = hi, ((c * hi - b * lo) >> s) // k
        c, b = c + d2, b + d
        if (sh := hi.bit_length() - w) > _GUARD:  # lo, the last hi, is less
            lo, hi, total, e = lo >> sh, hi >> sh, total >> sh, e + sh
        elif sh < 0 and lo.bit_length() < w:
            sh = w - max(hi.bit_length(), lo.bit_length())
            lo, hi, total, e = lo << sh, hi << sh, total << sh, e - sh
        if out is not None:
            out.append((hi, e))
    return (hi, e), (total, e)


def _mpf(pair):
    """An ``(m, e)`` pair rounded once to ``mp.prec`` bits, to nearest."""
    return mp.make_mpf(from_man_exp(*pair, mp.prec, round_nearest))


def _poly_series_mpf(alpha, n: int, x):
    """The values of :func:`_series` as mpf."""
    _series(alpha, n, x, out := [])
    return [_mpf(v) for v in out]


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
        val = _mpf(_series(aa, n, xx)[0])
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
        tol = mp.mpf(10) ** (2 - ctx.digits)
        out = []
        for j, seed in enumerate(seeds):
            x = mp.mpf(float(seed))
            for _ in range(60):
                last, total = _series(a, N + 1, x)
                step = _mpf(last) / -_mpf(total)
                x = x - step
                if abs(step) <= tol * x:
                    break
            else:
                raise ArithmeticError(
                    f"reference Newton did not converge at node {j}")
            out.append(x)
        return out

