"""Command-line front end.

Subcommands::

    quad      emit a quadrature table (index,node,weight,fun_weight)
    eval      evaluate a Laguerre polynomial/function series at one point
    compare   per-node relative errors of the three evaluation routes
              against the extended-precision reference
    solve     solve the model equation for one benchmark case
    sweep     error grid over scaling factors and basis counts
    errlab    round-off model lab: measured / simulated / bounded errors

All numeric output is written at 17 significant digits (round-trip exact
for doubles).  Exit codes: 0 success, 2 usage error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys

import numpy as np
from mpmath import mp

from . import errmodel, oracle, problems, quadrature, recurrence, spectral

USAGE_ERROR = 2
NUMERIC_ERROR = 3


def _float(text: str) -> float:
    """``type=`` of the float options: an infinity, ``1e400`` included, is
    a usage error.  NaN passes on to the checks that reject it by name."""
    value = float(text)
    if math.isinf(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _fmt(v) -> str:
    return f"{float(v):.17g}"


@contextlib.contextmanager
def _out(path):
    """``--out`` as a text stream: stdout for none or "-", else the file."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _write_rows(args, header, rows):
    with _out(args.out) as fh:
        if args.format == "json":
            json.dump([dict(zip(header, r)) for r in rows], fh, indent=2)
            fh.write("\n")
        else:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


def cmd_quad(args) -> int:
    kind = (quadrature.RuleKind.GAUSS_RADAU if args.kind == "radau"
            else quadrature.RuleKind.GAUSS)
    rule = quadrature.cached_gauss_rule(args.alpha, args.n, kind)
    rows = [(i, _fmt(x), _fmt(w), _fmt(fw))
            for i, (x, w, fw) in enumerate(
                zip(rule.nodes, rule.weights, rule.fun_weights))]
    _write_rows(args, ["index", "node", "weight", "fun_weight"], rows)
    return 0


def cmd_eval(args) -> int:
    params = recurrence.LagParams(alpha=args.alpha, n=args.n)
    if args.method == "standard":
        values = recurrence.eval_poly_standard(params, args.x).values
    elif args.method == "modified":
        values = recurrence.eval_poly_modified(params, args.x).values
    elif args.method == "fun":
        values = recurrence.eval_fun_modified(params, args.x).values
    else:  # stable
        values = recurrence.fun_series_stable(params, args.x)
    rows = [(k, _fmt(v)) for k, v in enumerate(values)]
    _write_rows(args, ["degree", "value"], rows)
    return 0


def cmd_compare(args) -> int:
    """Relative error of each double route at the Gauss nodes, vs oracle."""
    N = args.n
    alpha = args.alpha
    rule = quadrature.cached_gauss_rule(alpha, N - 1)
    ctx = oracle.HpContext(digits=args.digits)
    params = recurrence.LagParams(alpha=alpha, n=N - 1)
    # one call per route; a copied last row frees each full series at once
    std = recurrence.eval_poly_standard(params, rule.nodes).values[-1].copy()
    mod = recurrence.eval_poly_modified(params, rule.nodes).values[-1].copy()
    stable, _ = recurrence.fun_value_deriv_stable(params, rule.nodes)

    def rel(v, ref):
        if not np.isfinite(v):
            return float("nan")
        return float(abs((mp.mpf(float(v)) - ref) / ref))

    rows = []
    with mp.workdps(ctx.digits):
        for j, (xj, s, m, f) in enumerate(zip(rule.nodes, std, mod, stable)):
            ref_poly, ref_fun = map(
                mp.mpf, oracle.hp_eval(ctx, alpha, N - 1, float(xj)))
            rows.append((j, _fmt(xj), _fmt(rel(s, ref_poly)),
                         _fmt(rel(m, ref_poly)), _fmt(rel(f, ref_fun))))
    _write_rows(args, ["index", "node", "rel_err_standard",
                       "rel_err_modified", "rel_err_stable"], rows)
    return 0


def _setup_case(args) -> problems.CaseSetup:
    return problems.make_case(args.case, k=args.k, r=args.r,
                              gamma=args.gamma, lift_rate=args.lift_rate)


def cmd_solve(args) -> int:
    setup = _setup_case(args)
    sol = spectral.solve(setup.problem, args.n, args.m, args.beta)
    rep = spectral.error_norms(sol, setup.problem)
    _write_rows(args, ["N", "beta", "l2_error", "h1_error"],
                [(args.n, _fmt(args.beta), _fmt(rep.l2_error),
                  _fmt(rep.h1_semi_error))])
    return 0


def cmd_sweep(args) -> int:
    setup = _setup_case(args)
    n_list = [int(s) for s in args.n_list.split(",")]
    beta_list = [float(s) for s in args.beta_list.split(",")]
    cells = spectral.beta_sweep(setup.problem, n_list, beta_list)
    if args.format == "json":
        best = {}
        for c in cells:
            if c["l2_error"] is None:
                continue
            cur = best.get(c["N"])
            if cur is None or c["l2_error"] < cur["l2_error"]:
                best[c["N"]] = c
        payload = {"cells": cells,
                   "argmin_beta": {str(n): c["beta"] for n, c in best.items()}}
        with _out(args.out) as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        rows = [(c["N"], _fmt(c["beta"]),
                 "" if c["l2_error"] is None else _fmt(c["l2_error"]),
                 "" if c["h1_error"] is None else _fmt(c["h1_error"]),
                 c["error"] or "")
                for c in cells]
        _write_rows(args, ["N", "beta", "l2_error", "h1_error", "error"], rows)
    return 0


def cmd_errlab(args) -> int:
    n_max = args.n
    traj = errmodel.simulate_error_propagation(
        args.alpha, n_max, args.x, mode=args.mode, rng_seed=args.seed)
    # the bound at degree n assumes the largest perturbation of steps 1..n
    zeta_max = np.maximum.accumulate(
        errmodel.zeta_envelopes(args.alpha, n_max, args.x))
    bounds = [errmodel.abs_error_bound(errmodel.ErrorBoundInput(
        n=n, alpha=args.alpha, x=args.x, eta=args.eta, e1=abs(traj[1]),
        zeta_max=float(zeta_max[n - 1]))) for n in range(1, n_max)]
    # one oracle series for every degree; entry n-1 is degree n
    measured = (errmodel.measure_actual_error(args.alpha, n_max, args.x,
                                              mode=args.mode)
                if args.measure else np.full(n_max - 1, np.nan))
    rows = [(n, _fmt(measured[n - 1]), _fmt(abs(traj[n + 1])),
             _fmt(bounds[n - 1])) for n in range(1, n_max)]
    _write_rows(args, ["n", "measured_err", "simulated_err", "theory_bound"],
                rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lagspec", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", choices=["csv", "json"], default="csv")

    sp = sub.add_parser("quad", help="quadrature table")
    sp.add_argument("--alpha", type=_float, default=0.0)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--kind", choices=["gauss", "radau"], default="gauss")
    common(sp)
    sp.set_defaults(func=cmd_quad)

    sp = sub.add_parser("eval", help="evaluate a series at one abscissa")
    sp.add_argument("--alpha", type=_float, default=0.0)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--x", type=_float, required=True)
    sp.add_argument("--method",
                    choices=["standard", "modified", "fun", "stable"],
                    default="stable")
    common(sp)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("compare", help="per-node error comparison")
    sp.add_argument("--alpha", type=_float, default=0.0)
    sp.add_argument("--n", type=int, required=True,
                    help="number of quadrature points; degree n-1 is evaluated")
    sp.add_argument("--digits", type=int, default=24)
    common(sp)
    sp.set_defaults(func=cmd_compare)

    def case_args(sp):
        sp.add_argument("--case", choices=["u1", "u2", "u3"], required=True)
        sp.add_argument("--k", type=_float, default=2.0)
        sp.add_argument("--r", type=_float, default=2.5)
        sp.add_argument("--gamma", type=_float, default=2.0)
        sp.add_argument("--lift-rate", type=_float, default=1.0,
                        dest="lift_rate")

    sp = sub.add_parser("solve", help="solve the model equation")
    case_args(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--beta", type=_float, default=1.0)
    common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("sweep", help="error grid over beta and N")
    case_args(sp)
    sp.add_argument("--n-list", required=True, dest="n_list")
    sp.add_argument("--beta-list", required=True, dest="beta_list")
    common(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("errlab", help="round-off model lab")
    sp.add_argument("--alpha", type=_float, default=0.0)
    sp.add_argument("--x", type=_float, required=True)
    sp.add_argument("--n", type=int, default=100)
    sp.add_argument("--eta", type=_float, default=0.25)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mode", choices=["standard", "delta"], default="standard")
    sp.add_argument("--measure", action="store_true",
                    help="include oracle-measured errors (slower)")
    common(sp)
    sp.set_defaults(func=cmd_errlab)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # OSError: --out not writable
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ArithmeticError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
