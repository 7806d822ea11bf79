"""Round-off error propagation model for the three-term recurrences.

The forward error ``e_n`` of the recurrence obeys the same three-term
recurrence driven by a per-step perturbation ``zeta_n`` whose magnitude is
set by the local values and machine epsilon.  This module provides the
perturbation envelopes, the energy-functional worst-case bounds (with the
non-expansive and expansive regimes), Monte-Carlo simulation of the error
recurrences, and empirical error measurement against the extended-precision
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .recurrence import (LagParams, _abscissae, _difference,
                         eval_poly_modified, eval_poly_standard)

__all__ = [
    "DOUBLE_EPS",
    "Regime",
    "ErrorBoundInput",
    "ErrorBoundResult",
    "zeta_envelopes",
    "growth_factor",
    "energy_bound",
    "abs_error_bound",
    "simulate_error_propagation",
    "simulate_energy",
    "measure_actual_error",
]

DOUBLE_EPS = float(np.finfo(float).eps)


class Regime(str, Enum):
    NONEXPANSIVE = "nonexpansive"  # 1 - 2 alpha - x - eta >= 0
    EXPANSIVE = "expansive"        # -1.5 < 1 - 2 alpha - x - eta < 0


@dataclass(frozen=True)
class ErrorBoundInput:
    """Inputs of the worst-case bounds.

    ``e1`` is the magnitude of the first-step error, ``zeta_max`` the
    largest per-step perturbation, ``eta`` the free Cauchy-inequality
    parameter of the energy argument.
    """

    n: int
    alpha: float
    x: float
    eta: float
    e1: float
    zeta_max: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.x < math.inf:
            raise ValueError(f"x must be finite and >= 0, got {self.x}")
        for name in ("e1", "zeta_max"):
            if not math.isfinite(v := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {v}")
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not 3.0 - self.alpha - self.x - self.eta > 0:
            raise ValueError(
                "hypothesis 3 - alpha - x - eta > 0 violated: "
                f"{3.0 - self.alpha - self.x - self.eta} <= 0")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def discriminant(self) -> float:
        return 1.0 - 2.0 * self.alpha - self.x - self.eta

    @property
    def regime(self) -> Regime:
        d = self.discriminant
        if d >= 0:
            return Regime.NONEXPANSIVE
        if d > -1.5 and self.alpha >= 0:
            return Regime.EXPANSIVE
        raise ValueError(
            f"parameters outside both regimes: 1-2a-x-eta = {d}, "
            f"alpha = {self.alpha}")


@dataclass(frozen=True)
class ErrorBoundResult:
    regime: Regime
    energy_bound: float
    beta_n: float | None = None


def growth_factor(n: int, alpha: float, x: float, eta: float) -> float:
    """Expansive-regime growth factor

    beta_n = [Gamma(n+2+alpha)/Gamma(2+alpha)] /
             [Gamma(n+3-alpha-x-eta)/Gamma(3-alpha-x-eta)]

    evaluated through log-gamma differences.
    """
    s = 3.0 - alpha - x - eta
    return math.exp(math.lgamma(n + 2.0 + alpha) - math.lgamma(2.0 + alpha)
                    - math.lgamma(n + s) + math.lgamma(s))


def energy_bound(inp: ErrorBoundInput) -> ErrorBoundResult:
    """Worst-case bound on the energy ``E_{n+1}``.

    Non-expansive regime:
        E_1 + (n+1)(n+2)(2n+3)/(6 eta) * zeta_max^2
    Expansive regime (alpha >= 0):
        beta_n E_1 + [(n-3)(n+1)^2 + 29 beta_n]/eta * zeta_max^2
    """
    regime = inp.regime
    n = inp.n
    # E_1 = x e_1^2 + (1 + alpha)(e_1 - e_0)^2 with e_0 = 0
    e1sq = (inp.x + 1.0 + inp.alpha) * inp.e1 ** 2
    z2 = inp.zeta_max ** 2
    if regime is Regime.NONEXPANSIVE:
        eb = e1sq + (n + 1.0) * (n + 2.0) * (2.0 * n + 3.0) / (6.0 * inp.eta) * z2
        beta_n = None
    else:
        beta_n = growth_factor(n, inp.alpha, inp.x, inp.eta)
        eb = beta_n * e1sq + ((n - 3.0) * (n + 1.0) ** 2 + 29.0 * beta_n) / inp.eta * z2
    return ErrorBoundResult(regime=regime, energy_bound=eb, beta_n=beta_n)


def abs_error_bound(inp: ErrorBoundInput) -> float:
    """Explicit bound on ``|e_{n+1}|``.

    First branch (-1 < alpha <= 1/4, x < 1/4, eta = 1/4):
        (2 + 2 (n+2)^{3/2} / sqrt(3)) * max{|e_1|, zeta_max} / sqrt(x)
    Second branch (expansive, alpha >= 0):
        (2 sqrt(beta_n) + (5.5 sqrt(beta_n) + sqrt(n) (n+1)) / sqrt(eta))
            * max{|e_1|, zeta_max} / sqrt(x)
    """
    n = inp.n
    m = max(abs(inp.e1), abs(inp.zeta_max))
    sx = math.sqrt(inp.x)
    if sx == 0.0:
        raise ValueError("x must be nonzero for the explicit bound")
    regime = inp.regime
    if regime is Regime.NONEXPANSIVE:
        if not (inp.alpha <= 0.25 and inp.x < 0.25):
            raise ValueError(
                "first-branch bound needs alpha <= 1/4 and x < 1/4")
        return (2.0 + 2.0 * (n + 2.0) ** 1.5 / math.sqrt(3.0)) * m / sx
    bn = growth_factor(n, inp.alpha, inp.x, inp.eta)
    sb = math.sqrt(bn)
    return (2.0 * sb + (5.5 * sb + math.sqrt(n) * (n + 1.0))
            / math.sqrt(inp.eta)) * m / sx


def zeta_envelopes(alpha: float, n_max: int, x: float,
                   mode: str = "standard") -> np.ndarray:
    """Per-step perturbation envelopes of steps ``n = 1 .. n_max-1``.

    Entry ``n-1`` bounds the perturbation of step n, from one series of
    degree ``n_max``, with ``eps`` = ``DOUBLE_EPS``:

    * ``mode="standard"``: ``(2 + x/(n+1)) |L_n| eps + |L_{n-1}| eps``,
    * ``mode="delta"``: ``(|dL_n| + (x/(n+1)) |L_n|) eps`` with
      ``dL_n = L_n - L_{n-1}`` from the difference recurrence.
    """
    eps = DOUBLE_EPS
    params = LagParams(alpha=alpha, n=n_max)
    n = np.arange(1, n_max)
    if mode == "standard":
        v = np.abs(eval_poly_standard(params, x))
        return (2.0 + x / (n + 1.0)) * v[1:n_max] * eps + v[0:n_max - 1] * eps
    if mode == "delta":
        v, d = map(np.abs, _difference(params, _abscissae(x), 1.0))
        return (d[0:n_max - 1] + x / (n + 1.0) * v[1:n_max]) * eps
    raise ValueError(f"unknown mode {mode!r}")


def simulate_error_propagation(alpha: float, n_max: int, x: float,
                               mode: str = "standard", rng_seed: int = 0
                               ) -> np.ndarray:
    """Simulate the error recurrence with random per-step perturbations.

    Starts from ``e_1 = |1 + alpha - x| DOUBLE_EPS``; each ``zeta_n`` is
    drawn uniformly from ``[-env_n, +env_n]``, the :func:`zeta_envelopes`
    of the same mode.  Returns ``e_0 .. e_{n_max}``; deterministic per seed.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rng = np.random.default_rng(rng_seed)
    env = zeta_envelopes(alpha, n_max, x, mode)
    zeta = rng.uniform(-env, env)
    e = np.zeros(n_max + 1)
    e[1] = abs(1.0 + alpha - x) * DOUBLE_EPS
    if mode == "standard":
        for n in range(1, n_max):
            e[n + 1] = ((2.0 * n + alpha + 1.0 - x) / (n + 1.0) * e[n]
                        - (n + alpha) / (n + 1.0) * e[n - 1] + zeta[n - 1])
    else:
        d = e[1]
        for n in range(1, n_max):
            d = (n + alpha) / (n + 1.0) * d - x / (n + 1.0) * e[n] + zeta[n - 1]
            e[n + 1] = e[n] + d
    return e


def simulate_energy(alpha: float, x: float, e: np.ndarray) -> np.ndarray:
    """Energies ``E_1 .. E_n`` of a simulated trajectory:
    ``E_n = x e_n^2 + (n + alpha)(e_n - e_{n-1})^2``.
    """
    n = np.arange(1, e.size)
    return x * e[1:] ** 2 + (n + alpha) * np.diff(e) ** 2


def measure_actual_error(alpha: float, n_max: int, x: float,
                         mode: str = "standard") -> np.ndarray:
    """Absolute errors ``|fl(L_n) - L_n|`` of the double-precision values
    of degrees ``0 .. n_max`` against the oracle, entry n for degree n
    (the indexing of :func:`simulate_error_propagation`).

    One double series in ``mode`` and one oracle series of degree
    ``n_max`` supply every degree; each reference value is the exact
    ``L_n`` correctly rounded to 24 digits (83 bits), far below the
    double errors measured.  Absolute errors are what
    :func:`abs_error_bound` bounds, and stay defined at a zero of ``L_n``.
    """
    from mpmath import mp
    from .oracle import HpContext, _poly_series_mpf

    params = LagParams(alpha=alpha, n=n_max)
    if mode == "standard":
        vals = eval_poly_standard(params, x)
    elif mode == "delta":
        vals = eval_poly_modified(params, x)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    with mp.workdps(HpContext().digits):
        refs = _poly_series_mpf(mp.mpf(alpha), n_max, mp.mpf(x))
        return np.array([float(abs(mp.mpf(float(v)) - r))
                         for v, r in zip(vals, refs)])
