"""Print one SHA-256 over a fixed set of lagspec outputs.

Two checkouts that print the same digest compute the same bits for every
output below, so "bitwise unchanged" is one command on each side:

    python tools/output_digest.py          # from the repository root

The outputs are ``beta_sweep`` cells of the three model cases and of the
benchmark's ``sweep`` grid (one output per case and N), ``solve``
coefficients of each case at N = 2 to 5 (one per remainder of LAPACK
dpttrf's unroll by 4) and, with ``error_norms`` (quadrature check on), at
one larger N, the solution's value and derivative, ``project_rhs``, Gauss
and Radau rules at two (alpha, N), the rules of the benchmark's ``rules``
workload, the Gauss rule at N=2050, rules on both sides of the seed
crossover at alpha 0 and 6, a 1000-point rule just above alpha 5, eigen
seeds on both sides of the dense eigensolve's crossover, Radau rules at
N=2048 and at alpha -0.5, Gauss rules at (20, 511) and (50, 999), whose
Halley steps leave nodes to Newton, ``refine_newton`` from the 2049 eigen
seeds at alpha 0, which stops at its iteration cap with 39 nodes in
2-cycles, and from 10 seeds of which one leaves its bracket (the nodes and
the warning), the N=1024 solve of acceptance criterion 6 and its
derivative evaluated at the 4099 nodes of its norm rule, the stable
kernel's series and value/derivative (array and scalar) at abscissae
from 0 and the smallest subnormal up to 1.7e308 and, at degree 4096,
over 401 abscissae from 0 to 1e5, the value/derivative at alpha 500 and
degree 4096 over 601 abscissae from 0 to 60, where both overflow, the
oracle's 24-digit nodes of the 64-point Gauss rule at alpha 0 (their mpf
tuples), and the exact bytes and exit codes of CLI runs.
Floats enter the hash as their IEEE bytes (``float.hex``), arrays as
``tobytes()``.
Only the standard library and lagspec are used; ``lagspec`` is imported
from the ``src`` tree of the checkout that holds this file.  Add ``-v`` to
print a digest per output.  The BLAS thread setting, which some products
depend on, is printed next to the digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lagspec import (  # noqa: E402
    cli, oracle, problems, quadrature, recurrence, spectral)

CASES = {"u1": problems.make_case("u1", k=2.0, gamma=2.0).problem,
         "u2": problems.make_case("u2", r=2.5, gamma=2.0).problem,
         "u3": problems.make_case("u3").problem}

_G, _R = quadrature.RuleKind.GAUSS, quadrature.RuleKind.GAUSS_RADAU
# (alpha, N, kind): two small pairs in both kinds, the four rules of the
# benchmark's ``rules`` workload (seed 1), N=2050, the last eigen-seeded
# and first O(N)-seeded rule of each kind (499 and 500 points; Radau seeds
# its N interior nodes), an O(N)-seeded 1000-point rule at the double just
# above alpha 5, the last eigen-seeded and first O(N)-seeded Gauss rule at
# alpha 6 (499 and 500 points), and the last eigen seed solved dense and the
# first solved by scipy's tridiagonal solver (499 and 500 rows at alpha
# -0.5, below the O(N) seeds' alpha >= 0), two Radau rules: one at N=2048,
# one below alpha 0, and two Gauss rules whose seeds come from the larger
# Bessel-zero matrix above alpha 5 and that send nodes through Newton
RULES = ([(a, N, k) for a, N in ((0.0, 120), (1.5, 300)) for k in (_G, _R)]
         + [(0.0, 999, _G), (0.0, 2048, _G), (0.0, 999, _R),
            (0.7015463661686019, 999, _G), (0.0, 2050, _G),
            (0.0, 498, _G), (0.0, 499, _G), (0.0, 499, _R), (0.0, 500, _R),
            (5.000000000000001, 999, _G), (6.0, 498, _G), (6.0, 499, _G),
            (-0.5, 498, _G), (-0.5, 499, _G), (0.0, 2048, _R),
            (-0.5, 999, _R), (20.0, 511, _G), (50.0, 999, _G)])

# the kernel at its edges: zero, subnormal, tiny, moderate and huge x
KERNEL_X = [0.0, 5e-324, 1e-300, 0.5, 2.0, 1e4, 1e30, 1e150, 1e200, 1.7e308]
KERNEL_PARAMS = [(0.0, 2), (2.5, 40), (150.0, 1000)]
# degree 4096 over [0, 1e5]: values far above 1 (up to 1.9e280 at alpha
# 150), so the iterates' total rescale exceeds the weight's exponent x/2
WIDE_X = [250.0 * i for i in range(401)]
WIDE_PARAMS = [(20.0, 4096), (150.0, 4096)]
# alpha 500, degree 4096 over [0, 60]: every value and derivative is past
# the double range, the derivatives infinities of both signs, none a NaN
OVER_X = [0.1 * i for i in range(601)]

# the benchmark's ``sweep`` workload without its jitter of the u3 betas
BENCH_SWEEP_NS = [64, 128, 256, 512]
BENCH_SWEEPS = [("u1", [1.0, 2.0, 4.47, 8.0, 16.0]),
                ("u3", [0.25, 0.5, 1.0, 2.0, 4.0])]

CLI_RUNS = [
    ["quad", "--n", "40", "--alpha", "0.5"],
    ["quad", "--n", "33", "--kind", "radau"],
    ["eval", "--n", "200", "--x", "150", "--alpha", "1.5"],
    ["eval", "--n", "30", "--x", "0.7", "--method", "modified"],
    ["compare", "--n", "24", "--alpha", "0.5"],
    ["solve", "--case", "u2", "--n", "64", "--beta", "0.6"],
    ["sweep", "--case", "u3", "--n-list", "8,16",
     "--beta-list", "0.5,1,2", "--format", "json"],
    ["errlab", "--x", "0.1", "--n", "60", "--measure"],
    ["errlab", "--x", "0.1", "--n", "60", "--measure", "--mode", "delta"],
    ["solve", "--case", "u1", "--n", "8", "--beta", "1e200"],
    ["eval", "--n", "40", "--x", "1e200", "--alpha", "2.5"],
]


def _fl(v) -> bytes:
    return b"None" if v is None else float(v).hex().encode()


def _cells(cells) -> bytes:
    return b";".join(b",".join((str(c["N"]).encode(), _fl(c["beta"]),
                                _fl(c["l2_error"]), _fl(c["h1_error"]),
                                str(c["error"]).encode()))
                     for c in cells)


def _cli(argv) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode()


def outputs():
    """``(name, bytes)`` for every output in the digest, in a fixed order."""
    for name, prob in CASES.items():
        cells = spectral.beta_sweep(prob, [8, 16, 24], [0.5, 1.0, 2.0, 4.0])
        yield f"sweep {name}", _cells(cells)
    for name, betas in BENCH_SWEEPS:
        cells = spectral.beta_sweep(CASES[name], BENCH_SWEEP_NS, betas)
        for N in BENCH_SWEEP_NS:
            yield f"bench sweep {name} N={N}", _cells(
                c for c in cells if c["N"] == N)
    for name, prob in CASES.items():
        for N in (2, 3, 4, 5):
            yield f"solve {name} N={N}", spectral.solve(
                prob, N, None, 1.0).coeffs.tobytes()
    for name, N, beta in (("u1", 32, 1.5), ("u2", 96, 0.6), ("u3", 48, 2.0)):
        sol = spectral.solve(CASES[name], N, None, beta)
        rep = spectral.error_norms(sol, check_quadrature=True)
        yield f"solve {name}", sol.coeffs.tobytes()
        yield f"norms {name}", b",".join(map(_fl, (
            rep.l2_error, rep.h1_semi_error, rep.quad_error_estimate)))
        probe = [0.0, 0.3, 1.7, 9.5, 40.0]
        yield f"evaluate {name}", b",".join(
            _fl(sol.evaluate(x)) + b"/" + _fl(sol.evaluate_deriv(x))
            for x in probe)
        yield f"project_rhs {name}", spectral.project_rhs(
            CASES[name], N, 2 * N + 1, beta).tobytes()
    # criterion 6 (u2, N=1024, M=2048, beta=0.6) at its (2M+3)-point norm
    # rule, mapped back from the scaled variable
    sol = spectral.solve(CASES["u2"], 1024, 2048, 0.6)
    norm_nodes = quadrature.cached_gauss_rule(0.0, 2 * 2048 + 2).nodes
    yield "evaluate u2 1024", sol.evaluate(norm_nodes / 0.6).tobytes()
    yield "evaluate_deriv u2 1024", sol.evaluate_deriv(
        norm_nodes / 0.6).tobytes()
    for alpha, N, kind in RULES:
        rule = quadrature.cached_gauss_rule(alpha, N, kind)
        yield f"rule {kind.value} {alpha} {N}", b"".join(
            a.tobytes() for a in (rule.nodes, rule.weights, rule.fun_weights))
    yield "newton 0.0 2048 eigen seeds", quadrature.refine_newton(
        0.0, 2048, quadrature.nodes_eigen_seed(0.0, 2048)).tobytes()
    # node 3 starts just below its upper bracket end, where L' is small
    seeds = quadrature.nodes_eigen_seed(0.0, 9)
    seeds[3] = 0.5 * (seeds[3] + seeds[4]) - 0.02 * (seeds[4] - seeds[3])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        nodes = quadrature.refine_newton(0.0, 9, seeds)
    yield "newton 0.0 9 escape", nodes.tobytes() + "".join(
        str(w.message) for w in caught).encode()
    for alpha, n in KERNEL_PARAMS:
        params = recurrence.LagParams(alpha=alpha, n=n)
        yield f"series {alpha} {n}", recurrence.fun_series_stable(
            params, KERNEL_X).tobytes()
        yield f"value_deriv {alpha} {n}", b"".join(
            v.tobytes() for v in recurrence.fun_value_deriv_stable(
                params, KERNEL_X))
        yield f"value_deriv scalar {alpha} {n}", b"".join(
            _fl(v) for x in KERNEL_X
            for v in recurrence.fun_value_deriv_stable(params, x))
    for alpha, n in WIDE_PARAMS:
        params = recurrence.LagParams(alpha=alpha, n=n)
        yield f"series {alpha} {n} wide", recurrence.fun_series_stable(
            params, WIDE_X).tobytes()
        yield f"value_deriv {alpha} {n} wide", b"".join(
            v.tobytes() for v in recurrence.fun_value_deriv_stable(
                params, WIDE_X))
    yield "value_deriv 500.0 4096 over", b"".join(
        v.tobytes() for v in recurrence.fun_value_deriv_stable(
            recurrence.LagParams(alpha=500.0, n=4096), OVER_X))
    yield "oracle nodes 0.0 63", repr([v._mpf_ for v in (
        oracle.hp_gauss_nodes_mpf(oracle.HpContext(24), 0.0, 63))]).encode()
    for argv in CLI_RUNS:
        yield "cli " + " ".join(argv), _cli(argv)


def main(argv=None) -> int:
    verbose = "-v" in (sys.argv[1:] if argv is None else argv)
    total = hashlib.sha256()
    for name, data in outputs():
        total.update(name.encode() + b"\0" + data + b"\0")
        if verbose:
            print(hashlib.sha256(data).hexdigest()[:16], name)
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    print(f"{total.hexdigest()}  OPENBLAS_NUM_THREADS={threads}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
