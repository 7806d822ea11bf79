"""Tests for the command-line front end."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lagspec
from lagspec import errmodel, oracle, recurrence
from lagspec.cli import (BROKEN_PIPE, NUMERIC_ERROR, USAGE_ERROR,
                         build_parser, main)
from test_oracle import _exact_series


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


@pytest.fixture
def mp_series_calls(monkeypatch):
    """Degrees of the extended-precision series run while the test runs."""
    original = oracle._series
    degrees = []

    def counted(alpha, n, x, out=None):
        degrees.append(n)
        return original(alpha, n, x, out)

    # every series, errmodel's mpf one too, runs through this name
    monkeypatch.setattr(oracle, "_series", counted)
    return degrees


class TestQuad:
    def test_csv_table(self, capsys):
        code, out = _run(capsys, "quad", "--n", "7")
        assert code == 0
        rows = _rows(out)
        assert len(rows) == 8
        nodes = [float(r["node"]) for r in rows]
        assert nodes == sorted(nodes)
        total = sum(float(r["weight"]) for r in rows)
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_radau_kind(self, capsys):
        code, out = _run(capsys, "quad", "--n", "5", "--kind", "radau")
        assert code == 0
        rows = _rows(out)
        assert float(rows[0]["node"]) == 0.0

    def test_json_format(self, capsys):
        code, out = _run(capsys, "quad", "--n", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 4
        assert {"index", "node", "weight", "fun_weight"} <= set(data[0])

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "rule.csv"
        code, _ = _run(capsys, "quad", "--n", "3", "--out", str(path))
        assert code == 0
        assert len(_rows(path.read_text())) == 4


class TestEval:
    def test_stable_series(self, capsys):
        code, out = _run(capsys, "eval", "--n", "4", "--x", "2.0")
        assert code == 0
        rows = _rows(out)
        assert len(rows) == 5
        assert float(rows[0]["value"]) == pytest.approx(math.exp(-1.0),
                                                        rel=1e-12)

    def test_methods_agree_moderate_x(self, capsys):
        vals = {}
        for method in ("standard", "modified"):
            _, out = _run(capsys, "eval", "--n", "10", "--x", "3.0",
                          "--method", method)
            vals[method] = [float(r["value"]) for r in _rows(out)]
        np.testing.assert_allclose(vals["standard"], vals["modified"],
                                   rtol=1e-10)

    def test_fun_method(self, capsys):
        _, out_fun = _run(capsys, "eval", "--n", "6", "--x", "1.5",
                          "--method", "fun")
        _, out_stab = _run(capsys, "eval", "--n", "6", "--x", "1.5")
        a = [float(r["value"]) for r in _rows(out_fun)]
        b = [float(r["value"]) for r in _rows(out_stab)]
        np.testing.assert_allclose(a, b, rtol=1e-11)


class TestParser:
    def test_one_parser_runs_each_call_on_its_own_arguments(self, capsys):
        # the parser is built once per process; a call's options and
        # subcommand must not carry over to the next
        assert build_parser() is build_parser()
        quad = _run(capsys, "quad", "--n", "3", "--format", "json")
        ev = _run(capsys, "eval", "--n", "3", "--x", "1.0")
        assert quad[0] == ev[0] == 0
        assert [r["index"] for r in json.loads(quad[1])] == [0, 1, 2, 3]
        assert ev[1].splitlines()[0] == "degree,value"
        assert len(_rows(ev[1])) == 4
        assert _run(capsys, "quad", "--n", "3")[1].startswith(
            "index,node,weight,fun_weight")
        assert _run(capsys, "eval", "--n", "3", "--x", "1.0") == ev


class TestCompare:
    def test_small_case_near_exact(self, capsys):
        code, out = _run(capsys, "compare", "--n", "2")
        assert code == 0
        for row in _rows(out):
            for col in ("rel_err_standard", "rel_err_modified",
                        "rel_err_stable"):
                assert float(row[col]) <= 1e-14

    def test_one_oracle_series_per_node(self, capsys, mp_series_calls):
        code, out = _run(capsys, "compare", "--n", "8")
        assert code == 0
        assert len(_rows(out)) == 8
        assert mp_series_calls == [7] * 8

    def test_one_stable_kernel_call_over_all_nodes(self, capsys, monkeypatch):
        # the stable column is one kernel call over all nodes, and the
        # standard and modified columns likewise one array call each
        names = ("fun_value_deriv_stable", "eval_poly_standard",
                 "eval_poly_modified")
        sizes = {name: [] for name in names}

        def counted(name, original):
            def route(params, x):
                sizes[name].append(np.size(x))
                return original(params, x)
            return route

        for name in names:
            monkeypatch.setattr(recurrence, name,
                                counted(name, getattr(recurrence, name)))
        code, out = _run(capsys, "compare", "--n", "8")
        assert code == 0
        assert len(_rows(out)) == 8
        assert sizes == {name: [8] for name in names}


class TestOracleSeriesBytes:
    """CSV output is byte-identical with the exact series, correctly
    rounded."""

    @pytest.mark.parametrize("argv", [
        ["compare", "--n", "64"],
        ["compare", "--n", "64", "--alpha", "0.7015463661686019"],
        ["errlab", "--x", "0.1", "--n", "400", "--measure"],
        ["errlab", "--x", "0.1", "--n", "400", "--measure",
         "--mode", "delta"],
        # the oracle bench workload's runs
        ["compare", "--n", "256", "--alpha", "0.0"],
        ["compare", "--n", "256", "--alpha", "0.5"],
        ["errlab", "--x", "0.13538058122333185", "--n", "400", "--measure"],
    ])
    def test_same_bytes_as_mpf_operators(self, tmp_path, monkeypatch, argv):
        default, reference = tmp_path / "default.csv", tmp_path / "ref.csv"
        assert main(argv + ["--out", str(default)]) == 0
        calls = []

        def exact_series(a, n, x, out=None):
            calls.append(n)
            return _exact_series(a, n, x, out)

        # every series, errmodel's mpf one too, runs through this name
        monkeypatch.setattr(oracle, "_series", exact_series)
        assert main(argv + ["--out", str(reference)]) == 0
        assert calls, "the reference series never ran"
        assert default.read_bytes() == reference.read_bytes()


class TestSolveAndSweep:
    def test_solve_u1(self, capsys):
        code, out = _run(capsys, "solve", "--case", "u1", "--n", "32",
                         "--beta", "4.47")
        assert code == 0
        row = _rows(out)[0]
        assert float(row["l2_error"]) < 1e-6

    def test_sweep_json_argmin(self, capsys):
        code, out = _run(capsys, "sweep", "--case", "u1",
                         "--n-list", "16,32", "--beta-list", "1.0,4.47",
                         "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["cells"]) == 4
        assert payload["argmin_beta"]["32"] == 4.47

    def test_sweep_json_skips_failed_cells(self, capsys):
        # N = 0 and beta = 1e200 fail in their cells; the argmin is taken
        # over the cells that ran
        code, out = _run(capsys, "sweep", "--case", "u1", "--n-list", "0,8",
                         "--beta-list", "1,1e200,2", "--format", "json")
        assert code == 0
        cells = json.loads(out)["cells"]
        assert len(cells) == 6
        for c in cells:
            if c["N"] == 0:
                assert c["error"] == "N must be >= 1"
            elif c["beta"] == 1e200:
                assert c["error"].startswith("beta must be finite")
            else:
                assert c["error"] is None and c["l2_error"] is not None
        assert json.loads(out)["argmin_beta"] == {"8": 2.0}

    def test_solve_with_one_basis_function(self, capsys):
        code, out = _run(capsys, "solve", "--case", "u3", "--n", "1")
        assert code == 0
        assert 0 < float(_rows(out)[0]["l2_error"]) < 1

    def test_sweep_over_one_and_two_basis_functions(self, capsys):
        code, out = _run(capsys, "sweep", "--case", "u3", "--n-list", "1,2",
                         "--beta-list", "0.5,1,2")
        assert code == 0
        rows = _rows(out)
        assert len(rows) == 6
        assert all(r["error"] == "" and float(r["l2_error"]) > 0
                   for r in rows)

    def test_sweep_csv(self, capsys):
        code, out = _run(capsys, "sweep", "--case", "u2",
                         "--n-list", "16", "--beta-list", "1.0")
        assert code == 0
        rows = _rows(out)
        assert len(rows) == 1
        assert rows[0]["error"] == ""


class TestErrlab:
    def test_runs_with_simulation(self, capsys):
        code, out = _run(capsys, "errlab", "--x", "0.1", "--n", "20")
        assert code == 0
        rows = _rows(out)
        assert len(rows) == 19
        assert all(float(r["simulated_err"]) <= float(r["theory_bound"])
                   for r in rows)

    def test_theory_bound_takes_running_max_envelope(self, capsys):
        # the bound at degree n holds under the largest per-step
        # perturbation over steps 1..n, so it can only grow with n
        alpha, x, n_max = 0.0, 0.1, 120
        code, out = _run(capsys, "errlab", "--x", repr(x), "--n", str(n_max))
        assert code == 0
        bound = np.array([float(r["theory_bound"]) for r in _rows(out)])
        assert np.all(np.diff(bound) >= 0)
        e1 = abs(errmodel.simulate_error_propagation(alpha, n_max, x)[1])
        zeta_max = np.maximum.accumulate(
            errmodel.zeta_envelopes(alpha, n_max, x))
        expect = [errmodel.abs_error_bound(errmodel.ErrorBoundInput(
            n=n, alpha=alpha, x=x, eta=0.25, e1=e1, zeta_max=float(z)))
            for n, z in zip(range(1, n_max), zeta_max)]
        assert bound.tolist() == expect

    def test_measured_column(self, capsys):
        code, out = _run(capsys, "errlab", "--x", "0.1", "--n", "5",
                         "--measure")
        assert code == 0
        assert all(math.isfinite(float(r["measured_err"])) for r in _rows(out))

    @pytest.mark.parametrize("mode", ["standard", "delta"])
    @pytest.mark.parametrize("alpha, x", [
        (-0.5, 0.05), (0.0, 0.1), (0.0, 0.2), (0.2, 0.17), (0.5, 0.1),
        (1.0, 0.05), (0.0, 1.0), (0.5, 1.0)])
    def test_measured_within_theory_bound(self, capsys, alpha, x, mode):
        # both columns are absolute errors of degree n+1 in one mode, so
        # the bound holds on every row, near the zeros of L_n too
        code, out = _run(capsys, "errlab", "--alpha", repr(alpha),
                         "--x", repr(x), "--n", "400", "--mode", mode,
                         "--measure")
        assert code == 0
        rows = _rows(out)
        measured = [float(r["measured_err"]) for r in rows]
        assert len(rows) == 399
        assert measured == errmodel.measure_actual_error(
            alpha, 400, x, mode)[2:].tolist()
        assert all(m <= float(r["theory_bound"])
                   for m, r in zip(measured, rows))

    def test_measured_at_exact_zero(self, capsys):
        # L_1(alpha + 1) = 0 exactly: a relative error was 0/0 (exit 3)
        code, out = _run(capsys, "errlab", "--x", "1", "--n", "5",
                         "--measure")
        assert code == 0
        rows = _rows(out)
        assert len(rows) == 4
        assert all(math.isfinite(float(r[c])) for r in rows for c in (
            "measured_err", "simulated_err", "theory_bound"))

    def test_measure_runs_one_oracle_series(self, capsys, mp_series_calls):
        code, out = _run(capsys, "errlab", "--x", "0.1", "--n", "30",
                         "--measure")
        assert code == 0
        assert len(_rows(out)) == 29
        assert len(mp_series_calls) == 1


class TestExitCodes:
    def test_usage_error_from_bad_value(self, capsys):
        code = main(["solve", "--case", "u1", "--n", "8", "--gamma", "-2.0"])
        capsys.readouterr()
        assert code == USAGE_ERROR

    @pytest.mark.parametrize("argv", [
        ["solve", "--case", "u1", "--n", "8", "--beta", "0"],
        ["eval", "--n", "3", "--x", "nan", "--method", "stable"],
        ["solve", "--case", "u1", "--n", "8", "--beta", "1e200"],
        ["solve", "--case", "u2", "--n", "8", "--r", "nan"],
        ["solve", "--case", "u2", "--n", "8", "--lift-rate", "nan"],
        ["solve", "--case", "u1", "--n", "8", "--k", "nan"],
        ["solve", "--case", "u3", "--n", "8", "--k", "nan"],
        ["solve", "--case", "u1", "--n", "8", "--r", "nan"],
        ["sweep", "--case", "u3", "--n-list", "8", "--beta-list", "1",
         "--r", "nan"],
        ["errlab", "--x", "0.1", "--eta", "nan"]])
    def test_usage_error_from_bad_input(self, capsys, argv):
        code = main(argv)
        assert code == USAGE_ERROR
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["errlab", "--x", "inf"],
        ["errlab", "--x", "0.1", "--alpha", "inf"],
        ["compare", "--n", "4", "--alpha", "inf"],
        ["quad", "--n", "4", "--alpha", "inf"],
        ["eval", "--n", "3", "--x", "inf"],
        ["eval", "--n", "3", "--x=-inf"],
        ["eval", "--n", "3", "--x", "1e400"],
        ["errlab", "--x", "0.1", "--eta", "inf"],
        ["solve", "--case", "u2", "--n", "8", "--r", "inf"],
        ["solve", "--case", "u2", "--n", "8", "--lift-rate", "inf"]])
    def test_usage_error_from_infinite_number(self, capsys, argv):
        code = main(argv)
        assert code == USAGE_ERROR
        assert "must be finite" in capsys.readouterr().err

    def test_usage_error_from_diagonal_past_the_double_range(self, capsys):
        # gamma / beta^2 = 1e308 is a double, 0.5 + 2 gamma / beta^2 is not
        code = main(["solve", "--case", "u1", "--n", "8", "--gamma", "1e308"])
        assert code == USAGE_ERROR
        assert "gamma_eff" in capsys.readouterr().err

    def test_usage_error_from_parser(self, capsys):
        code = main(["quad"])  # missing required --n
        capsys.readouterr()
        assert code == USAGE_ERROR

    def test_usage_error_from_unwritable_out(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        code = main(["quad", "--n", "4", "--out", str(out)])
        assert code == USAGE_ERROR
        assert capsys.readouterr().err.startswith("error: ")

    # x L_1 overflows above about 1e154 unless the kernel rescales L_1
    # before its first step; every value there is a signed zero
    @pytest.mark.parametrize("x", ["1e200", "1e300", "1.7e308"])
    @pytest.mark.parametrize("args", [["--n", "5"],
                                      ["--n", "1000", "--alpha", "2.5"]])
    def test_eval_at_huge_x_prints_rows_of_1e150(self, capsys, args, x):
        ref = _run(capsys, "eval", *args, "--x", "1e150")
        assert ref[0] == 0
        assert _run(capsys, "eval", *args, "--x", x) == ref

    def test_numeric_error_code_value(self):
        assert NUMERIC_ERROR == 3

    # valid rules whose construction fails inside the library: a numeric
    # failure naming the layer, not a usage error about the input
    @pytest.mark.parametrize("argv, layer", [
        (["quad", "--n", "10", "--alpha", "1e4"], "Newton iterate"),
        (["quad", "--n", "10", "--alpha", "150"], "Gauss rule weights"),
        (["quad", "--n", "1", "--kind", "radau", "--alpha", "1e3"],
         "Gauss-Radau weight w0")])
    def test_numeric_failure_names_its_layer(self, capsys, argv, layer):
        with np.errstate(all="ignore"):
            code = main(argv)
        assert code == NUMERIC_ERROR
        assert layer in capsys.readouterr().err

    def test_closed_stdout_is_not_a_usage_error(self):
        # ``eval ... | head -1``: about 0.5 MB of rows, far more than a
        # pipe holds, so the process writes on after its reader is gone
        src = str(Path(lagspec.__file__).resolve().parents[1])
        with subprocess.Popen(
                [sys.executable, "-m", "lagspec.cli", "eval", "--n", "20000",
                 "--x", "1.5"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": src}) as proc:
            assert proc.stdout.readline().startswith(b"degree,value")
            proc.stdout.close()
            assert proc.stderr.read() == b""
        assert proc.returncode == BROKEN_PIPE
