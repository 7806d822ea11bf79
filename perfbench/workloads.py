"""The three benchmark workloads and the checks behind each operation.

Each workload is a closed loop in one process: one call at a time, the next
only after the previous one returned.  Sizes are fixed; the seed moves only
the parameters named in each class, and lagspec sees only the generated
values.  Only API that the roadmap keeps is used: ``gauss_rule``,
``gauss_radau_rule``, ``cached_gauss_rule`` (with ``cache_info``),
``beta_sweep``, ``make_case`` and ``cli.main``.

Criterion 6 (N=1024, cold) is left out on purpose: it takes about 8 s, of
which about 7 s is building the 2049- and 4099-point rules, so it repeats
the mechanisms that ``rules`` and ``sweep`` already measure.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lagspec import cli, problems, quadrature, spectral
from tracer import callback_counts

# Criterion 2: low-degree moments to <= 1e-11 relative.  The weight sum is
# the degree-0 moment and gets the same tolerance: at 1000 points it is
# already off by up to 1.1e-12 today, above the 1e-12 that criterion 9
# asks of the 51-point rule.
MOMENT_RTOL = 1e-11
MOMENT_DEGREE = 12
# Bench tolerance for the stable route in ``compare``: today's worst node
# is about 1.2e-13; 1e-11 leaves two orders of margin and still catches a
# kernel that loses accuracy.
COMPARE_STABLE_RTOL = 1e-11


@dataclass
class Batch:
    """Outcome of one pass over a workload's fixed batch of operations.

    ``wall_s`` sums the time of the calls into lagspec only; the checks run
    outside it.
    """

    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    def call(self, fn, *args, **kwargs):
        """Time one call into lagspec; returns ``(ok, result)``."""
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # counted against the operations of this call
            self.wall_s += time.perf_counter() - t0
            self.messages.append(traceback.format_exc(limit=3))
            return False, None
        self.wall_s += time.perf_counter() - t0
        return True, result

    def outcome(self, problems: list[str]) -> None:
        """Record one operation, failed when ``problems`` is not empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(problems)


def _moment_error(rule) -> float:
    """Worst relative error of the rule on x^k / Gamma(k+alpha+1),
    k <= MOMENT_DEGREE, whose exact integrals are all 1."""
    x = rule.nodes
    worst = 0.0
    for k in range(MOMENT_DEGREE + 1):
        vals = x ** k * np.exp(-x - math.lgamma(k + rule.alpha + 1.0))
        worst = max(worst, abs(float(vals @ rule.fun_weights) - 1.0))
    return worst


def _rule_problems(rule, kind, alpha, N) -> list[str]:
    label = f"{kind.value} alpha={alpha} N={N}"
    bad = []
    if rule.nodes.size != N + 1:
        bad.append(f"{label}: {rule.nodes.size} points")
    if not (np.all(np.isfinite(rule.nodes)) and np.all(np.diff(rule.nodes) > 0)):
        bad.append(f"{label}: nodes not finite and increasing")
    if kind is quadrature.RuleKind.GAUSS_RADAU and rule.nodes[0] != 0.0:
        bad.append(f"{label}: first node {rule.nodes[0]} != 0")
    if np.any(rule.weights < 0) or not np.all(
            np.isfinite(rule.fun_weights) & (rule.fun_weights > 0)):
        bad.append(f"{label}: weights not positive and finite")
    mass = float(rule.weights.sum()) / math.gamma(alpha + 1.0) - 1.0
    if not abs(mass) <= MOMENT_RTOL:
        bad.append(f"{label}: weight sum off by {mass:.3e}")
    moment = _moment_error(rule)
    if not moment <= MOMENT_RTOL:
        bad.append(f"{label}: moment error {moment:.3e}")
    return bad


class Rules:
    """Cold construction of four rules through ``gauss_rule`` and
    ``gauss_radau_rule`` directly, so repeats never hit the cache.

    Seed: the alpha of the last rule, uniform in [0.5, 2].  For about one
    alpha in 13 (seed 1 among them) Newton stalls at 1000 points as it
    does at 2049, so that rule costs about 10 evaluator calls, not 2-4.
    """

    def __init__(self, seed: int, out_dir: Path):
        alpha = random.Random(seed).uniform(0.5, 2.0)
        G, R = quadrature.RuleKind.GAUSS, quadrature.RuleKind.GAUSS_RADAU
        self.specs = [(G, 0.0, 999), (G, 0.0, 2048), (R, 0.0, 999),
                      (G, alpha, 999)]
        self.inputs = {"alpha": alpha}

    def warm_up(self) -> None:
        quadrature.gauss_rule(0.0, 15)
        quadrature.gauss_radau_rule(0.0, 15)

    def run(self, tracer=None) -> Batch:
        batch = Batch()
        for kind, alpha, N in self.specs:
            build = (quadrature.gauss_rule if kind is quadrature.RuleKind.GAUSS
                     else quadrature.gauss_radau_rule)
            ok, rule = batch.call(build, alpha, N)
            batch.outcome(_rule_problems(rule, kind, alpha, N) if ok
                          else [f"{kind.value} alpha={alpha} N={N} raised"])
        return batch


class Sweep:
    """Warm ``beta_sweep`` runs: ``u1`` on the criterion-7 grid and ``u3``
    on a jittered grid, each over N in {64, 128, 256, 512}; one operation
    per (beta, N) cell.

    Seed: each ``u3`` beta is scaled by a factor uniform in [0.9, 1.1].
    The warm-up sweeps every N once, so the rules the solver needs are
    built during set-up.
    """

    N_LIST = [64, 128, 256, 512]
    U1_BETAS = [1.0, 2.0, 4.47, 8.0, 16.0]
    U3_BETAS = [0.25, 0.5, 1.0, 2.0, 4.0]

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        self.u3_betas = [b * rng.uniform(0.9, 1.1) for b in self.U3_BETAS]
        self.inputs = {"u3_betas": self.u3_betas}
        self.u1 = problems.make_case("u1", k=2.0, gamma=2.0).problem
        self.u3 = problems.make_case("u3").problem

    def warm_up(self) -> None:
        spectral.beta_sweep(self.u1, self.N_LIST, [1.0])

    def run(self, tracer=None) -> Batch:
        batch = Batch()
        for name, problem, betas in (("u1", self.u1, self.U1_BETAS),
                                     ("u3", self.u3, self.u3_betas)):
            if tracer is not None:
                problem = dataclasses.replace(problem, **{
                    k: tracer.wrap("problems.callback", fn, callback_counts)
                    for k in ("f", "u_exact", "u_exact_prime")
                    if (fn := getattr(problem, k)) is not None})
            ok, cells = batch.call(spectral.beta_sweep, problem, self.N_LIST,
                                   betas)
            expected = [(beta, N) for beta in betas for N in self.N_LIST]
            if not ok or [(c["beta"], c["N"]) for c in cells] != expected:
                for beta, N in expected:
                    batch.outcome([f"{name} N={N} beta={beta}: no cell"])
                continue
            # criterion 7: the predicted beta wins outright at N=64
            at64 = {c["beta"]: c["l2_error"] for c in cells
                    if c["N"] == 64 and c["error"] is None}
            best = min(at64, key=at64.get, default=None)
            for c in cells:
                bad = []
                if c["error"] is not None or not (
                        np.isfinite(c["l2_error"])
                        and np.isfinite(c["h1_error"])):
                    bad.append(f"{name} cell failed: {c}")
                if name == "u1" and c["N"] == 64 and c["beta"] == 4.47 \
                        and best != 4.47:
                    bad.append(f"u1 N=64: argmin beta {best}, not 4.47")
                batch.outcome(bad)
        return batch


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Oracle:
    """The CLI in-process: ``compare --n 256`` and
    ``errlab --n 400 --measure``, each writing CSV to a file; one operation
    per command.

    Seed: the ``compare`` alpha, 0 or 0.5, and the ``errlab`` x, uniform
    in [0.05, 0.2].  The warm-up builds the rule ``compare`` reads from
    the cache.
    """

    COMPARE_N = 256
    ERRLAB_N = 400

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        self.alpha = rng.choice([0.0, 0.5])
        self.x = rng.uniform(0.05, 0.2)
        self.inputs = {"compare_alpha": self.alpha, "errlab_x": self.x}
        self.compare_out = out_dir / "compare.csv"
        self.errlab_out = out_dir / "errlab.csv"

    def warm_up(self) -> None:
        quadrature.cached_gauss_rule(self.alpha, self.COMPARE_N - 1)

    def _command(self, batch: Batch, argv: list[str], out: Path):
        """Run one CLI command; its rows, or None after a failed outcome."""
        ok, code = batch.call(cli.main, argv + ["--out", str(out)])
        if not (ok and code == 0):
            batch.outcome([f"{argv[0]}: exit code {code}"])
            return None
        return _read_rows(out)

    def run(self, tracer=None) -> Batch:
        batch = Batch()
        rows = self._command(batch, [
            "compare", "--n", str(self.COMPARE_N), "--alpha",
            repr(self.alpha)], self.compare_out)
        if rows is not None:
            errs = np.array([[float(r[c]) for c in (
                "rel_err_standard", "rel_err_modified", "rel_err_stable")]
                for r in rows]).reshape(-1, 3)
            worst = float(np.max(errs[:, 2], initial=0.0))
            batch.outcome([m for bad, m in (
                (len(rows) != self.COMPARE_N, f"compare: {len(rows)} rows"),
                (not np.all(np.isfinite(errs)),
                 "compare: non-finite relative error"),
                (not worst <= COMPARE_STABLE_RTOL,
                 f"compare: stable route rel error {worst:.3e}"),
            ) if bad])

        rows = self._command(batch, [
            "errlab", "--x", repr(self.x), "--n", str(self.ERRLAB_N),
            "--measure"], self.errlab_out)
        if rows is not None:
            sim, bound, measured = (np.array([float(r[c]) for r in rows])
                                    for c in ("simulated_err", "theory_bound",
                                              "measured_err"))
            batch.outcome([m for bad, m in (
                (len(rows) != self.ERRLAB_N - 1, f"errlab: {len(rows)} rows"),
                (not np.all(sim <= bound),
                 "errlab: simulated_err above theory_bound"),
                (not np.all(np.isfinite(measured)),
                 "errlab: non-finite measured_err"),
            ) if bad])
            # measured_err is relative and the bound absolute, so this is
            # reported, not gated
            batch.facts["errmodel.measured_over_bound"] = int(
                np.sum(measured > bound))
        return batch


WORKLOADS = {"rules": Rules, "sweep": Sweep, "oracle": Oracle}
