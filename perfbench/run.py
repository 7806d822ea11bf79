"""lagspec benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload rules|sweep|oracle --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; lagspec is imported from ``src``.
With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics.  The last
line of standard output is the result; the line before it is the run's
provenance.

A run is ``PROCESSES`` fresh worker processes (``worker.py``) in turn.
Each sets up, so ``setup_s`` includes the imports and is a median over
set-ups spread across the run, and then measures its share of
``--seconds`` (time a process leaves unused passes to the next one).
``wall_s`` is the median over the batches of all processes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("rules", "sweep", "oracle")
DEFAULT_SEED = 1
PROCESSES = 5
# One BLAS thread (of nproc = 2 on the reference machine): the workloads
# are single-call closed loops, and one thread keeps the shared machine's
# noise out of the timings.
BLAS_THREADS = 1
BUDGET_S = 170.0


def _git_commit(root: Path) -> str | None:
    """Commit of a checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _spawn(args, seconds: float, out_dir: Path, deadline: float) -> dict:
    """Run one worker; its JSON result plus ``setup_s`` from its start."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - started, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def _combine(layers: list[dict]) -> dict:
    """Median of each per-layer metric over the traced batches (counts
    stay whole)."""
    out = {}
    for key in layers[0]:
        values = [m[key] for m in layers]
        if all(isinstance(v, int) for v in values):
            out[key] = statistics.median_low(values)
        else:
            out[key] = statistics.median(values)
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    deadline = time.monotonic() + BUDGET_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "lagspec" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print(f"error: no lagspec source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)

    runs, measured = [], 0.0
    try:
        for i in range(PROCESSES):
            share = max((i + 1) * args.seconds / PROCESSES - measured, 0.0)
            runs.append(_spawn(args, share, out_dir, deadline))
            measured += runs[-1]["elapsed"]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    last = runs[-1]
    walls = [w for r in runs for w in r["walls"]]
    setups = [r["setup_s"] for r in runs]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for message in [m for r in runs for m in r["messages"]][:20]:
        print(message, file=sys.stderr)
    if args.trace:
        traced = [w for r in runs for w in r["traced_walls"]]
        values = dict(
            _combine([m for r in runs for m in r["layers"]]),
            fail_ratio=failed / attempted,
            **{"trace.overhead_s": (statistics.median(traced)
                                    - statistics.median(walls)),
               "trace.unmeasured": len(last["unmeasured"])})
        wanted = spec["per_layer"]
    else:
        traced = None
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": max(r["peak_rss_mb"] for r in runs)}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    provenance = dict(
        last["provenance"], workload=args.workload, seed=args.seed,
        default_seed=DEFAULT_SEED, seconds=args.seconds, trace=args.trace,
        inputs=last["inputs"], commit=_git_commit(ROOT),
        python=platform.python_version(), nproc=os.cpu_count(),
        blas_threads=BLAS_THREADS, processes=PROCESSES, batches=len(walls),
        batch_walls_s=walls, setup_samples_s=setups,
        traced_batch_walls_s=traced, unmeasured=last.get("unmeasured"),
        spans_file=last.get("spans_file"))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
