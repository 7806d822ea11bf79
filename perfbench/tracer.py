"""Per-layer spans for the traced run, recorded from outside the package.

Timing wrappers are installed on the names that callers look up at call
time (``lagspec.quadrature.fun_value_deriv_stable`` rather than the
definition in ``lagspec.recurrence``, because ``quadrature`` binds the name
at import).  Spans stay in memory as ``Span`` records and are turned into
per-layer metrics once a batch is over; the originals are restored when the
``Tracer`` context exits.

lagspec runs single-threaded with no queues, so no layer ever waits on
another: every span is busy time and no wait time is reported.
"""

from __future__ import annotations

import importlib
import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _npts(x) -> int:
    return int(np.size(x))


def _valder_counts(args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    return {"point_steps": params.n * _npts(_arg(args, kwargs, 1, "x"))}


def _series_counts(args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    return {"cells": (params.n + 1) * _npts(_arg(args, kwargs, 1, "x"))}


def _rule_counts(args, kwargs, result):
    return {"points": int(result.nodes.size)}


def _sweep_counts(args, kwargs, result):
    failed = sum(1 for c in result if c["error"] is not None
                 or not np.isfinite(c["l2_error"]))
    return {"cells": len(result), "cells_failed": failed}


def _hp_counts(args, kwargs, result):
    return {"mp_steps": int(_arg(args, kwargs, 2, "n"))}


def _measure_counts(args, kwargs, result):
    return {"mp_steps": int(_arg(args, kwargs, 1, "n"))}


def _cli_counts(args, kwargs, result):
    return {"nonzero_exits": int(result != 0)}


def callback_counts(args, kwargs, result):
    return {"points": _npts(args[0])}


# (module, attribute, span name, counter function, record warnings)
PATCHES = [
    ("lagspec.quadrature", "fun_value_deriv_stable", "recurrence.valder",
     _valder_counts, False),
    ("lagspec.spectral", "fun_series_stable", "recurrence.series",
     _series_counts, False),
    ("lagspec.recurrence", "eval_fun_stable", "recurrence.scalar", None, False),
    ("lagspec.recurrence", "eval_poly_standard", "recurrence.scalar", None,
     False),
    ("lagspec.recurrence", "eval_poly_modified", "recurrence.scalar", None,
     False),
    ("lagspec.errmodel", "eval_poly_standard", "recurrence.scalar", None,
     False),
    ("lagspec.errmodel", "eval_poly_modified", "recurrence.scalar", None,
     False),
    ("lagspec.quadrature", "nodes_eigen_seed", "quadrature.seed", None, False),
    ("lagspec.quadrature", "refine_newton", "quadrature.newton", None, True),
    ("lagspec.quadrature", "gauss_rule", "quadrature.rule", _rule_counts,
     False),
    ("lagspec.quadrature", "gauss_radau_rule", "quadrature.rule",
     _rule_counts, False),
    ("lagspec.spectral", "beta_sweep", "spectral.sweep", _sweep_counts, False),
    ("lagspec.spectral", "basis_matrices", "spectral.basis", None, False),
    ("lagspec.spectral", "project_rhs", "spectral.rhs", None, False),
    ("lagspec.spectral", "solveh_banded", "spectral.banded", None, False),
    ("lagspec.spectral", "_norms_at_order", "spectral.norms", None, False),
    ("lagspec.oracle", "hp_eval_poly", "oracle.hp", _hp_counts, False),
    ("lagspec.oracle", "hp_eval_fun", "oracle.hp", _hp_counts, False),
    ("lagspec.errmodel", "measure_actual_error", "errmodel.measure",
     _measure_counts, False),
    ("lagspec.errmodel", "simulate_error_propagation", "errmodel.simulate",
     None, False),
    ("lagspec.errmodel", "abs_error_bound", "errmodel.bound", None, False),
    ("lagspec.cli", "main", "cli.main", _cli_counts, False),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Installs the wrappers of ``PATCHES`` for the life of a ``with`` block.

    A call re-entering a span of the same name while it is open is folded
    into the outer span, so inclusive times are never counted twice.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.unmeasured: list[str] = []
        self._open: list[int] = []
        self._restore: list[tuple] = []

    def __enter__(self) -> "Tracer":
        self.unmeasured = []
        for modname, attr, span, counts, record_warnings in PATCHES:
            module = importlib.import_module(modname)
            original = getattr(module, attr, None)
            if original is None:
                self.unmeasured.append(f"{modname}.{attr}")
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr,
                    self.wrap(span, original, counts, record_warnings))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def wrap(self, name, fn, counts=None, record_warnings=False):
        """Return ``fn`` timed as span ``name``; ``counts(args, kwargs,
        result)`` gives the span's counters."""

        def traced(*args, **kwargs):
            if any(self.spans[i].name == name for i in self._open):
                return fn(*args, **kwargs)
            parent = self._open[-1] if self._open else -1
            span = Span(name, 0.0, 0.0, parent)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            caught = []
            span.start = time.perf_counter()
            try:
                if record_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename,
                                       w.lineno)
            if record_warnings:
                span.counts["warnings"] = len(caught)
            if counts is not None:
                span.counts.update(counts(args, kwargs, result))
            return result

        return traced

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced batch.

    Times are inclusive of the named call; ``*.self_s`` is the layer's
    span time not covered by child spans.
    """
    incl = defaultdict(float)
    selft = defaultdict(float)
    calls = Counter()
    counts = Counter()
    child = [0.0] * len(spans)
    nested = Counter()  # (parent name, child name) -> number of spans
    for s in spans:
        d = s.end - s.start
        incl[s.name] += d
        calls[s.name] += 1
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] += value
        if s.parent >= 0:
            child[s.parent] += d
            nested[spans[s.parent].name, s.name] += 1
    for s, c in zip(spans, child):
        selft[s.name] += (s.end - s.start) - c
    under_rule = sum(s.end - s.start for s in spans if s.parent >= 0
                     and spans[s.parent].name == "quadrature.rule"
                     and s.name in ("quadrature.seed", "quadrature.newton"))
    cells = counts["recurrence.series.cells"]
    return {
        "recurrence.valder_calls": calls["recurrence.valder"],
        "recurrence.valder_s": incl["recurrence.valder"],
        "recurrence.valder_point_steps": counts["recurrence.valder.point_steps"],
        "recurrence.series_calls": calls["recurrence.series"],
        "recurrence.series_s": incl["recurrence.series"],
        "recurrence.series_cells": cells,
        "recurrence.series_out_bytes": 8 * cells,
        "recurrence.scalar_calls": calls["recurrence.scalar"],
        "recurrence.scalar_s": incl["recurrence.scalar"],
        "quadrature.seed_s": incl["quadrature.seed"],
        "quadrature.newton_s": incl["quadrature.newton"],
        "quadrature.weights_s": incl["quadrature.rule"] - under_rule,
        "quadrature.rule_points": counts["quadrature.rule.points"],
        "quadrature.newton_iters":
            nested["quadrature.newton", "recurrence.valder"],
        "quadrature.newton_escapes": counts["quadrature.newton.warnings"],
        "spectral.cells": counts["spectral.sweep.cells"],
        "spectral.cells_failed": counts["spectral.sweep.cells_failed"],
        "spectral.basis_calls": calls["spectral.basis"],
        "spectral.basis_s": incl["spectral.basis"],
        "spectral.rhs_s": incl["spectral.rhs"],
        "spectral.banded_s": incl["spectral.banded"],
        "spectral.norms_s": incl["spectral.norms"],
        "spectral.self_s": sum((v for k, v in selft.items()
                                if k.startswith("spectral.")), 0.0),
        "problems.callback_calls": calls["problems.callback"],
        "problems.callback_points": counts["problems.callback.points"],
        "problems.callback_s": incl["problems.callback"],
        "oracle.calls": calls["oracle.hp"],
        "oracle.mp_steps": counts["oracle.hp.mp_steps"],
        "oracle.s": incl["oracle.hp"],
        "errmodel.measure_calls": calls["errmodel.measure"],
        "errmodel.measure_mp_steps": counts["errmodel.measure.mp_steps"],
        "errmodel.measure_s": incl["errmodel.measure"],
        "errmodel.simulate_s": incl["errmodel.simulate"],
        "errmodel.bound_s": incl["errmodel.bound"],
        "cli.calls": calls["cli.main"],
        "cli.nonzero_exits": counts["cli.main.nonzero_exits"],
        "cli.self_s": selft["cli.main"],
    }
