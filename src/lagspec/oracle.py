"""Extended-precision reference values for recurrences and quadrature nodes.

Everything here runs through mpmath at a configurable decimal precision
(24 digits by default, matching the double-precision test regime with a
comfortable margin).  Float inputs are taken bit-exactly (``mp.mpf`` of a
double is exact); strings are parsed at the working precision.

``hp_eval`` returns decimal strings, so the double-precision API stays
free of extended-precision types; ``hp_gauss_nodes_mpf`` and the private
``_poly_series_mpf`` return mpf values for callers that keep computing in
mpmath.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp

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


def _poly_series_mpf(alpha, n: int, x):
    """Standard three-term recurrence carried out in mpf arithmetic."""
    values = [mp.mpf(1)]
    if n >= 1:
        values.append(alpha + 1 - x)
    for k in range(1, n):
        values.append(((2 * k + alpha + 1 - x) * values[k]
                       - (k + alpha) * values[k - 1]) / (k + 1))
    return values


def hp_eval(ctx: HpContext, alpha, n: int, x) -> tuple[str, str]:
    """Degree-n polynomial ``L_n(x)`` and function ``exp(-x/2) L_n(x)``
    as decimal strings, both from one series."""
    with mp.workdps(ctx.digits):
        xx = mp.mpf(x)
        val = _poly_series_mpf(mp.mpf(alpha), n, xx)[n]
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
                vals = _poly_series_mpf(a, N + 1, x)
                deriv = -sum(vals[:N + 1])
                step = vals[N + 1] / deriv
                x = x - step
                if abs(step) <= tol * x:
                    break
            else:
                raise ArithmeticError(
                    f"reference Newton did not converge at node {j}")
            out.append(x)
        return out

