"""What a fresh process imports: rules, the Galerkin solver and every CLI
command below run without ``scipy.linalg``; an eigen seed of 500+ rows,
which only alpha < 0 takes, loads it."""

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
quadrature.gauss_rule(6.0, 499)  # 500 points
quadrature.gauss_radau_rule(6.0, 500)  # 500 interior points
problem = problems.make_case("u3").problem
spectral.error_norms(spectral.solve(problem, 8, None, 1.0))
spectral.beta_sweep(problem, [1, 2, 16], [0.5, 2.0])
for argv in (["quad", "--n", "40"], ["eval", "--n", "200", "--x", "150"],
             ["compare", "--n", "24", "--alpha", "0.5"],
             ["errlab", "--x", "0.1", "--n", "60", "--measure"],
             ["solve", "--case", "u2", "--n", "64", "--beta", "0.6"],
             ["sweep", "--case", "u1", "--n-list", "16,32",
              "--beta-list", "1,2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print("scipy.linalg" in sys.modules)
quadrature.gauss_rule(-0.5, 499)  # its eigen seed has 500 rows
print("scipy.linalg" in sys.modules)
"""


def test_only_eigen_seeds_of_500_rows_import_scipy_linalg():
    src = str(Path(lagspec.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", CHILD.format(src=src)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "True"]
