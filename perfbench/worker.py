"""One benchmark process: set up a workload, then run its batch in a closed
loop for the given number of seconds.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  The last line of
standard output is a JSON object for ``run.py``; ``ready`` is the
``time.monotonic()`` reading (CLOCK_MONOTONIC, shared by all processes on
Linux) at the end of set-up.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import time
from pathlib import Path

import tracer as tracing
from workloads import WORKLOADS

from lagspec import quadrature


def _cache_info():
    info = getattr(quadrature.cached_gauss_rule, "cache_info", None)
    return info() if info is not None else None


def _traced_batch(workload, tracer: tracing.Tracer):
    """One batch with the wrappers installed; its per-layer metrics."""
    before = _cache_info()
    with tracer:
        batch = workload.run(tracer)
    after = _cache_info()
    spans = tracer.take()
    metrics = tracing.layer_metrics(spans)
    hits = misses = 0
    if before is not None:
        hits, misses = after.hits - before.hits, after.misses - before.misses
    metrics["quadrature.cache_hits"] = hits
    metrics["quadrature.cache_misses"] = misses
    metrics["errmodel.measured_over_bound"] = batch.facts.get(
        "errmodel.measured_over_bound", 0)
    return batch, metrics, spans


def measure(workload, seconds: float, trace: bool, spans_path: Path) -> dict:
    """Run batches while the next one is expected to end within ``seconds``
    (at least one).

    Untraced, every batch counts towards ``wall_s``.  Traced, untraced and
    traced batches alternate, so the tracing overhead is measured in the
    same process; the spans of the last traced batch are written to
    ``spans_path``.
    """
    tracer = tracing.Tracer()
    walls, traced_walls, layers, batches, spans = [], [], [], [], []
    start = time.perf_counter()
    while True:
        batch = workload.run()
        batches.append(batch)
        walls.append(batch.wall_s)
        if trace:
            batch, metrics, spans = _traced_batch(workload, tracer)
            batches.append(batch)
            traced_walls.append(batch.wall_s)
            layers.append(metrics)
        elapsed = time.perf_counter() - start
        if elapsed * (len(walls) + 1) / len(walls) > seconds:
            break
    result = {
        "elapsed": elapsed,
        "walls": walls,
        "attempted": sum(b.attempted for b in batches),
        "failed": sum(b.failed for b in batches),
        "messages": [m for b in batches for m in b.messages][:20],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if trace:
        unmeasured = list(tracer.unmeasured)
        if _cache_info() is None:
            unmeasured.append("lagspec.quadrature.cached_gauss_rule.cache_info")
        spans_path.write_text(json.dumps(
            [dataclasses.asdict(s) for s in spans]))
        result.update(traced_walls=traced_walls, layers=layers,
                      unmeasured=unmeasured, spans_file=str(spans_path))
    return result


def _provenance() -> dict:
    import mpmath
    import numpy
    import scipy
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    args = p.parse_args()
    workload = WORKLOADS[args.workload](args.seed, args.out_dir)
    workload.warm_up()
    result = {"ready": time.monotonic(), "inputs": workload.inputs,
              "provenance": _provenance()}
    result.update(measure(
        workload, args.seconds, bool(args.trace),
        args.out_dir / f"spans-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
