"""``problem.row_dots`` gives the same bytes under two OpenBLAS kernels.

Two subprocesses, one BLAS thread each, evaluate the same products: one on
the kernel OpenBLAS picks for this CPU, one with ``OPENBLAS_CORETYPE``
forcing Nehalem.  ``X @ w`` is the control: if its bytes agree too, the
forced kernel did not take effect and the test has nothing to compare.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = textwrap.dedent(
    """
    import hashlib, sys
    sys.path.insert(0, sys.argv[1])
    import numpy as np
    from shufflegrad.problem import row_dots

    gen = np.random.default_rng(20)
    X, w = gen.standard_normal((5003, 20)), gen.standard_normal(20)
    idx = gen.integers(0, 5003, 1799)
    for name, out in (("gemv", X @ w), ("row_dots", row_dots(X, w)),
                      ("row_dots_gathered", row_dots(X[idx], w))):
        print(name, hashlib.sha256(out.tobytes()).hexdigest())
    """
)


def digests(**forced):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC)],
        env={**env, "OPENBLAS_NUM_THREADS": "1", **forced},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return dict(line.split() for line in proc.stdout.splitlines())


def test_row_dots_bytes_do_not_depend_on_the_blas_kernel():
    default = digests()
    forced = digests(OPENBLAS_CORETYPE="Nehalem")
    if default["gemv"] == forced["gemv"]:
        pytest.skip("forced kernel not in effect")
    assert forced["row_dots"] == default["row_dots"]
    assert forced["row_dots_gathered"] == default["row_dots_gathered"]
