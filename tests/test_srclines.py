"""tools/srclines.py prints wc -l and code lines per module and in total."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "srclines.py"

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line

# a comment line


def f(x):
    """Function docstring."""
    text = """not a
docstring"""
    return (x +
            1)


class C:
    """Class docstring."""

    y = 1
'''


def run(*args, cwd=None):
    return subprocess.run([sys.executable, str(TOOL), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=60)


def rows(stdout):
    header, *lines = stdout.splitlines()
    assert header.split() == ["lines", "code", "module"]
    return [(int(a), int(b), name) for a, b, name in (line.split() for line in lines)]


def test_counts_a_known_module(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(SAMPLE)
    (pkg / "b.py").write_text("x = 1\n\n\n")
    proc = run(str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    # code in SAMPLE: import, def, the two-line string, return over two lines, class, y.
    assert rows(proc.stdout) == [(20, 8, "pkg/a.py"), (3, 1, "pkg/b.py"), (23, 9, "total")]


def test_lines_agree_with_newline_count_on_src():
    proc = run(str(ROOT / "src"))
    assert proc.returncode == 0, proc.stderr
    *modules, total = rows(proc.stdout)
    assert total[2] == "total"
    for lines, code, name in modules:
        assert lines == (ROOT / "src" / name).read_bytes().count(b"\n")
        assert 0 < code < lines
    assert total[:2] == (sum(r[0] for r in modules), sum(r[1] for r in modules))


def test_usage_error_without_a_source_dir(tmp_path):
    for args in ((), (str(tmp_path / "missing"),)):
        proc = run(*args)
        assert proc.returncode == 2
        assert "srclines.py SRC_DIR" in proc.stderr
