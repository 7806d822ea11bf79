"""Tests for the command-line front end."""

import csv
import io
import json
import math

import numpy as np
import pytest

from lagspec import errmodel, oracle, recurrence
from lagspec.cli import NUMERIC_ERROR, USAGE_ERROR, main
from test_oracle import _mpf_operator_series


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


@pytest.fixture
def mp_series_calls(monkeypatch):
    """Degrees of the extended-precision series run while the test runs."""
    original = oracle._poly_series_mpf
    degrees = []

    def counted(alpha, n, x):
        degrees.append(n)
        return original(alpha, n, x)

    # errmodel binds the name at import, so both lookups are counted
    for module in (oracle, errmodel):
        monkeypatch.setattr(module, "_poly_series_mpf", counted)
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
        # eval_fun_stable goes through the same name, so a per-node stable
        # column would be counted here too; the standard and modified
        # columns likewise come from one array call each
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

    def test_factor_table_shared_across_nodes(self, capsys, mp_series_calls):
        oracle._step_factors.cache_clear()
        code, _ = _run(capsys, "compare", "--n", "8")
        assert code == 0
        info = oracle._step_factors.cache_info()
        assert (info.misses, info.hits) == (1, 7)
        assert mp_series_calls == [7] * 8


class TestOracleSeriesBytes:
    """CSV output is byte-identical with the mpf-operator recurrence."""

    @pytest.mark.parametrize("argv", [
        ["compare", "--n", "64"],
        ["compare", "--n", "64", "--alpha", "0.7015463661686019"],
        ["errlab", "--x", "0.1", "--n", "400", "--measure"],
        ["errlab", "--x", "0.1", "--n", "400", "--measure",
         "--mode", "delta"],
    ])
    def test_same_bytes_as_mpf_operators(self, tmp_path, monkeypatch, argv):
        default, reference = tmp_path / "default.csv", tmp_path / "ref.csv"
        assert main(argv + ["--out", str(default)]) == 0
        for module in (oracle, errmodel):
            monkeypatch.setattr(module, "_poly_series_mpf",
                                _mpf_operator_series)
        assert main(argv + ["--out", str(reference)]) == 0
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
         "--r", "nan"]])
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

    def test_usage_error_from_parser(self, capsys):
        code = main(["quad"])  # missing required --n
        capsys.readouterr()
        assert code == USAGE_ERROR

    def test_usage_error_from_unwritable_out(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        code = main(["quad", "--n", "4", "--out", str(out)])
        assert code == USAGE_ERROR
        assert capsys.readouterr().err.startswith("error: ")

    def test_numeric_error_code_value(self):
        assert NUMERIC_ERROR == 3
