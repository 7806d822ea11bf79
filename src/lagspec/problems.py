"""Benchmark problems for the half-line solver.

Three exact solutions are provided:

* ``u1 = sin(k x) exp(-x)``          (exponential decay, oscillatory)
* ``u2 = (1 + x)^-r``                (algebraic decay)
* ``u3 = sin(k x) (1 + x)^-r``       (algebraic decay, oscillatory)

``u2`` does not vanish at the origin; it is handled by subtracting a
lifting ``u2(0) exp(-c x)`` whose contribution to the right-hand side is
known in closed form.  The solver then works on the homogeneous remainder
and the lifting is added back at evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spectral import ModelProblem

__all__ = ["CaseSetup", "make_case"]


@dataclass
class CaseSetup:
    """A model problem plus the lifting needed to recover the full solution."""

    problem: ModelProblem
    lift: Callable[[np.ndarray], np.ndarray] | None = None
    lift_prime: Callable[[np.ndarray], np.ndarray] | None = None


def _u1(k: float, gamma: float) -> CaseSetup:
    def u(x):
        return np.sin(k * x) * np.exp(-x)

    def up(x):
        return (k * np.cos(k * x) - np.sin(k * x)) * np.exp(-x)

    def f(x):
        return np.exp(-x) * (((k * k - 1.0) + gamma) * np.sin(k * x)
                             + 2.0 * k * np.cos(k * x))

    return CaseSetup(ModelProblem(gamma=gamma, f=f, u_exact=u,
                                  u_exact_prime=up))


def _u2(r: float, gamma: float, lift_rate: float) -> CaseSetup:
    c = lift_rate

    def u_full(x):
        return (1.0 + x) ** (-r)

    def f_full(x):
        return (-r * (r + 1.0) * (1.0 + x) ** (-r - 2.0)
                + gamma * (1.0 + x) ** (-r))

    def lift(x):
        return np.exp(-c * x)

    def lift_prime(x):
        return -c * np.exp(-c * x)

    # -lift'' + gamma lift = (gamma - c^2) exp(-c x)
    def f_lifted(x):
        return f_full(x) - (gamma - c * c) * np.exp(-c * x)

    def u_lifted(x):
        return u_full(x) - lift(x)

    def up_lifted(x):
        return -r * (1.0 + x) ** (-r - 1.0) - lift_prime(x)

    problem = ModelProblem(gamma=gamma, f=f_lifted, u_exact=u_lifted,
                           u_exact_prime=up_lifted)
    return CaseSetup(problem, lift=lift, lift_prime=lift_prime)


def _u3(k: float, r: float, gamma: float) -> CaseSetup:
    def u(x):
        return np.sin(k * x) * (1.0 + x) ** (-r)

    def up(x):
        return (k * np.cos(k * x) * (1.0 + x) ** (-r)
                - r * np.sin(k * x) * (1.0 + x) ** (-r - 1.0))

    def f(x):
        return ((k * k + gamma) * np.sin(k * x) * (1.0 + x) ** (-r)
                + 2.0 * k * r * np.cos(k * x) * (1.0 + x) ** (-r - 1.0)
                - r * (r + 1.0) * np.sin(k * x) * (1.0 + x) ** (-r - 2.0))

    return CaseSetup(ModelProblem(gamma=gamma, f=f, u_exact=u,
                                  u_exact_prime=up))


def make_case(name: str, k: float = 2.0, r: float = 2.5, gamma: float = 2.0,
              lift_rate: float = 1.0) -> CaseSetup:
    """Build one of the named benchmark cases."""
    if name == "u1":
        return _u1(k, gamma)
    if name == "u2":
        return _u2(r, gamma, lift_rate)
    if name == "u3":
        return _u3(k, r, gamma)
    raise ValueError(f"unknown case {name!r}; expected u1, u2, or u3")
