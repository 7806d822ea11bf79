"""What a fresh process imports.

``import lagspec`` imports none of its modules.  Rules, the Galerkin
solver and the CLI's ``quad``, ``eval``, ``solve``, ``sweep`` and
``errlab`` without ``--measure`` run without ``scipy.linalg``, mpmath and
``numpy.ma``; ``compare`` and ``errlab --measure`` load mpmath, and an eigen
seed of 500+ rows, which only alpha < 0 takes, loads ``scipy.linalg``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import lagspec

CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
seen = {{}}
import lagspec
assert not hasattr(lagspec, "_poly_series_mpf")
assert not hasattr(lagspec, "__wrapped__")
seen["after_import"] = sorted(m for m in sys.modules if m.startswith("lagspec."))
from lagspec import cli, errmodel, problems, quadrature, recurrence, spectral

for module in (recurrence, quadrature, spectral, problems, errmodel):
    for name in module.__all__:
        assert getattr(lagspec, name) is getattr(module, name), name
for points in (16, 256, 1000, 2049):
    quadrature.gauss_rule(0.0, points - 1)
    quadrature.gauss_radau_rule(0.0, points - 1)
quadrature.gauss_rule(6.0, 499)  # 500 points
quadrature.gauss_radau_rule(6.0, 500)  # 500 interior points
problem = problems.make_case("u3").problem
spectral.error_norms(spectral.solve(problem, 8, None, 1.0))
spectral.beta_sweep(problem, [1, 2, 16], [0.5, 2.0])


def run(*commands):
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv


run(["quad", "--n", "40"], ["eval", "--n", "200", "--x", "150"],
    ["solve", "--case", "u2", "--n", "64", "--beta", "0.6"],
    ["sweep", "--case", "u1", "--n-list", "16,32", "--beta-list", "1,2"],
    ["errlab", "--x", "0.1", "--n", "60"])
seen["core"] = ["scipy.linalg" in sys.modules, "mpmath" in sys.modules,
                "numpy.ma" in sys.modules]
run(["compare", "--n", "24", "--alpha", "0.5"],
    ["errlab", "--x", "0.1", "--n", "60", "--measure"])
seen["oracle"] = ["scipy.linalg" in sys.modules, "mpmath" in sys.modules]
quadrature.gauss_rule(-0.5, 499)  # its eigen seed has 500 rows
seen["eigen_500"] = "scipy.linalg" in sys.modules
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def seen():
    src = str(Path(lagspec.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", CHILD.format(src=src)],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_only_eigen_seeds_of_500_rows_import_scipy_linalg(seen):
    assert seen["core"][0] is False
    assert seen["oracle"][0] is False
    assert seen["eigen_500"] is True


def test_core_never_imports_numpy_ma(seen):
    # np.unique, np.isin's sort path and np.setdiff1d import it
    assert seen["core"][2] is False


def test_only_the_oracle_commands_import_mpmath(seen):
    assert seen["after_import"] == []
    assert seen["core"][1] is False
    assert seen["oracle"][1] is True
