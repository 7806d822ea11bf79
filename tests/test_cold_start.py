"""What a fresh process imports: rules and the CLI's rule, kernel and oracle
commands run without ``scipy.linalg``; only the Galerkin solve loads it."""

import subprocess
import sys
from pathlib import Path

import lagspec

CHILD = """
import contextlib, io, sys
sys.path.insert(0, {src!r})
from lagspec import cli, quadrature, spectral, problems

for points in (16, 256, 1000, 2049):
    quadrature.gauss_rule(0.0, points - 1)
    quadrature.gauss_radau_rule(0.0, points - 1)
for argv in (["quad", "--n", "40"], ["eval", "--n", "200", "--x", "150"],
             ["compare", "--n", "24", "--alpha", "0.5"],
             ["errlab", "--x", "0.1", "--n", "60", "--measure"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print("scipy.linalg" in sys.modules)
spectral.solve(problems.make_case("u3").problem, 8, None, 1.0)
print("scipy.linalg" in sys.modules)
"""


def test_only_the_galerkin_solve_imports_scipy_linalg():
    src = str(Path(lagspec.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", CHILD.format(src=src)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "True"]
