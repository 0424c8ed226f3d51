"""The library runs with numpy as its only numerical dependency.

A subprocess makes ``import scipy`` fail before importing shufflegrad, then
exercises every path that solves a linear system or an eigenproblem, and
the CLI commands that build problems from a data file.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = textwrap.dedent(
    """
    import os, sys
    sys.modules["scipy"] = None  # any import of scipy now raises ImportError
    sys.path.insert(0, sys.argv[1])

    import shufflegrad as sg
    from shufflegrad.cli import main

    data = sg.generate(sg.GenSpec(m=80, d=3, noise=0.3, seed=5))
    ridge = sg.RidgeProblem(data, alpha=0.1)
    assert ridge.strong_convexity > 0 and ridge.wstar.shape == (3,)
    for kind in ("absolute", "hinge"):
        p = sg.LipschitzLinearProblem(data, kind=kind, radius=6.0, alpha=0.05)
        assert p.wstar.shape == (3,)
        assert p.reference_gap <= 1e-13 * max(1.0, abs(p.fstar))
    res = sg.matrix_concentration_check(data.X, 0.0, 12.0, 20, seed=6)
    assert res.gamma > 0

    tmp = sys.argv[2]
    path = os.path.join(tmp, "data.txt")

    def out(name):
        return ["--out", os.path.join(tmp, name)]

    assert main(["gen", "--m", "60", "--d", "3", "--seed", "7"] + out("data.txt")) == 0
    assert main(["sgd", "--data", path, "--T", "20", "--seeds", "2"] + out("sgd.csv")) == 0
    assert main(["svrg", "--data", path, "--reg", "0.2", "--eta", "0.1", "--T", "10",
                 "--S", "3", "--seeds", "2"] + out("svrg.csv")) == 0
    assert main(["dist", "--data", path, "--reg", "0.2", "--k", "2", "--eta", "0.1",
                 "--T", "10", "--S", "3"] + out("dist.csv")) == 0
    assert sys.modules["scipy"] is None
    assert not [name for name in sys.modules if name.startswith("scipy.")]
    print("ok")
    """
)


def test_library_and_cli_run_without_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
