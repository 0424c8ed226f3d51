"""tools/bitdigest.py's output against the digests checked in as tests/digests.txt.

The file's first line names the machine it was read on; its other lines
hold one SHA-256 per driver.  A change that moves bits on purpose
rewrites the file (``python tools/bitdigest.py > tests/digests.txt``)
and names each moved line in CHANGES.md.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def parse(text):
    return dict(line.split(" ", 1) for line in text.splitlines())


RECORDED = parse((ROOT / "tests" / "digests.txt").read_text())
# Lines compared on every machine: `sampling` is the only one measured to
# keep its bits under the Haswell and Nehalem kernels and with AVX-512 off
# (ROADMAP items 16 and 22).
EVERY_MACHINE = ("sampling",)


def bitdigest(root, *args):
    return subprocess.run([sys.executable, str(root / "tools" / "bitdigest.py"), *args],
                          capture_output=True, text=True, timeout=120)


def digests(root):
    proc = bitdigest(root)
    assert proc.returncode == 0, proc.stderr
    return parse(proc.stdout)


@pytest.fixture(scope="module")
def fresh():
    return digests(ROOT)


def moved(lines, against):
    return [name for name in against if name != "machine" and lines[name] != against[name]]


def test_digests_match_the_file(fresh):
    assert list(fresh) == list(RECORDED)
    changed = moved(fresh, RECORDED)
    assert not set(changed) & set(EVERY_MACHINE), changed
    if fresh["machine"] != RECORDED["machine"]:
        pytest.skip(f"machine {fresh['machine']}; tests/digests.txt was read on "
                    f"machine {RECORDED['machine']}")
    assert changed == []


def test_an_edited_copy_moves_only_its_driver(tmp_path, fresh):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "bitdigest.py", tmp_path / "tools")
    module = tmp_path / "src" / "shufflegrad" / "distributed.py"
    text = module.read_text()
    assert text.count("rounds=2 * S,") == 1
    module.write_text(text.replace("rounds=2 * S,", "rounds=2 * S + 1,"))
    assert moved(digests(tmp_path), fresh) == ["run_distributed_svrg"]


def test_any_argument_is_a_usage_error():
    proc = bitdigest(ROOT, "src")
    assert proc.returncode == 2
    assert proc.stderr == "usage: python tools/bitdigest.py\n"
