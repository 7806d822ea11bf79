"""Stable Laguerre polynomials, quadrature, and a half-line spectral solver.

The public names are those of the modules' ``__all__``.  ``lagspec.X``
imports the modules of ``_MODULES`` in turn until one exports X, then binds
X (PEP 562), so ``import lagspec`` alone imports none of them.  mpmath
loads only with ``oracle``: on its names, in
``errmodel.measure_actual_error`` and in the CLI's ``compare`` and
``errlab --measure``.  Rules, solves and sweeps run without it.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# searched for a public name in this order
_MODULES = ("recurrence", "quadrature", "spectral", "problems", "errmodel",
            "oracle")


def __getattr__(name):
    if name == "__all__":
        return [*_MODULES,
                *(n for m in _MODULES for n in __getattr__(m).__all__)]
    if name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name in _MODULES or name == "cli":
        return _import_module(f"{__name__}.{name}")
    for module in map(__getattr__, _MODULES):
        if name in module.__all__:
            globals()[name] = getattr(module, name)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
