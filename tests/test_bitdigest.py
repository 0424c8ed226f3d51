"""tools/bitdigest.py prints the OpenBLAS core, then one SHA-256 per driver."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DRIVERS = ["run_svrg", "run_distributed_svrg", "run_sgd", "SeedSummary", "suboptimality",
           "reference", "DivergenceError", "datagen", "sampling", "oracles",
           "exact_oracles", "rng", "points"]


def test_prints_one_digest_per_driver(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bitdigest.py"), str(ROOT / "src")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (core, *lines) = [line.split() for line in proc.stdout.splitlines()]
    assert core[0] == "openblas_core" and len(core) == 2
    assert [name for name, _ in lines] == DRIVERS
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for _, digest in lines)


def test_usage_error_without_a_source_dir():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bitdigest.py")], capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "bitdigest.py SRC_DIR" in proc.stderr


def against(src, other):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bitdigest.py"), str(src), "--against", str(other)],
        capture_output=True, text=True, timeout=240,
    )


def test_against_the_same_tree_agrees():
    proc = against(ROOT / "src", ROOT / "src")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_against_an_edited_copy_names_the_changed_driver(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    module = copy / "shufflegrad" / "distributed.py"
    text = module.read_text()
    assert text.count("rounds=2 * S,") == 1
    module.write_text(text.replace("rounds=2 * S,", "rounds=2 * S + 1,"))
    proc = against(copy, ROOT / "src")
    assert proc.returncode == 1, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [(sign, name) for sign, name, _ in lines] == [
        ("-", "run_distributed_svrg"), ("+", "run_distributed_svrg")]
