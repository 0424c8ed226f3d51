import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from shufflegrad.cli import build_parser, main


def run_cli(args):
    return main(args)


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "data.txt"
    assert run_cli([
        "gen", "--m", "120", "--d", "4", "--noise", "0.2",
        "--signal-norm", "0.8", "--seed", "3", "--out", str(path),
    ]) == 0
    return path


def test_gen_writes_loadable_dataset(dataset_file):
    from shufflegrad import load

    ds = load(dataset_file)
    assert ds.m == 120 and ds.d == 4


def test_sgd_csv_schema(dataset_file, tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = run_cli([
        "sgd", "--data", str(dataset_file), "--sampler", "no-replacement",
        "--steps", "strongly-convex", "--T", "40", "--seeds", "5",
        "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "resolved config" in printed and '"seed": 0' in printed
    lines = out.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert any("config" in c for c in comments)
    assert any("schema" in c for c in comments)
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "t,mean_subopt,se"
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 40
    t, sub, se = rows[-1].split(",")
    assert int(t) == 40 and float(sub) >= 0 and float(se) >= 0


def test_sgd_rerun_is_byte_identical(dataset_file, tmp_path):
    args = [
        "sgd", "--data", str(dataset_file), "--T", "25", "--seeds", "3",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    a = out1.read_text().replace(str(out1), "OUT")
    b = out2.read_text().replace(str(out2), "OUT")
    assert a == b


def test_sgd_file_independent_of_core_count(dataset_file, tmp_path, monkeypatch):
    args = ["sgd", "--data", str(dataset_file), "--T", "25", "--seeds", "3"]
    texts = []
    for cores in (1, 64):
        monkeypatch.setattr(os, "cpu_count", lambda cores=cores: cores)
        out = tmp_path / f"cores{cores}.csv"
        assert run_cli(args + ["--out", str(out)]) == 0
        texts.append(out.read_text().replace(str(out), "OUT"))
    assert texts[0] == texts[1]


def test_svrg_auto_params_warns_on_small_m(dataset_file, capsys):
    code = run_cli([
        "svrg", "--data", str(dataset_file), "--reg", "0.01",
        "--eps", "0.01", "--seeds", "1",
        "--sampler", "reshuffle",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    # The "auto params:" line always names the rule; the warning is its own line.
    assert any(l.startswith("warning: dataset has m=") for l in printed.splitlines())


def test_svrg_auto_params_single_shuffle_warning_path(tmp_path, capsys):
    # m between S*T and 2*S*T: the default single-shuffle run proceeds
    # and the data-size warning is still printed.
    path = tmp_path / "mid.txt"
    assert run_cli(["gen", "--m", "700", "--d", "4", "--noise", "0.05",
                    "--signal-norm", "0.5", "--seed", "8", "--out", str(path)]) == 0
    capsys.readouterr()
    code = run_cli([
        "svrg", "--data", str(path), "--reg", "0.9",
        "--eps", "0.01", "--seeds", "1",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert any(l.startswith("warning: dataset has m=") for l in printed.splitlines())


def test_svrg_eps_on_large_m_prints_no_warning(tmp_path, capsys):
    # m = 5000 meets the rule's m >= 2*S*T, so only the "auto params:" line names it.
    path = tmp_path / "large.txt"
    assert run_cli(["gen", "--m", "5000", "--d", "4", "--noise", "0.05",
                    "--signal-norm", "0.5", "--seed", "8", "--out", str(path)]) == 0
    capsys.readouterr()
    code = run_cli(["svrg", "--data", str(path), "--reg", "0.9", "--eps", "0.01"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "auto params:" in printed and "m >= 2*S*T" in printed
    assert not any(l.startswith("warning:") for l in printed.splitlines())


def test_svrg_missing_epoch_flags_is_usage_error(dataset_file, capsys):
    data = ["--data", str(dataset_file)]
    assert run_cli(["svrg", *data]) == 2
    assert run_cli(["svrg", *data, "--T", "5"]) == 2
    assert run_cli(["dist", *data, "--k", "2", "--S", "3"]) == 2
    # --eps picks eta, T and S by the parameter rule, so it takes none of those flags.
    for epoch_flags in (["--T", "5"], ["--S", "3"], ["--T", "5", "--S", "3"], ["--eta", "0.5"]):
        assert run_cli(["svrg", *data, "--eps", "0.01", *epoch_flags]) == 2
        assert run_cli(["dist", *data, "--k", "2", "--eps", "0.01", *epoch_flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 11


@pytest.mark.parametrize("command", [["svrg"], ["dist", "--k", "2"]])
def test_eta_defaults_to_0_1_without_eps(dataset_file, capsys, command):
    data = ["--data", str(dataset_file), "--T", "5", "--S", "2"]
    for eta_flags, eta in (([], 0.1), (["--eta", "0.3"], 0.3)):
        assert run_cli([*command, *data, *eta_flags]) == 0
        (line,) = [l for l in capsys.readouterr().out.splitlines()
                   if l.startswith("resolved config: ")]
        assert json.loads(line.split(": ", 1)[1])["eta"] == eta


def test_sgd_eta_under_the_strongly_convex_rule_is_usage_error(dataset_file, capsys):
    # eta_t = 2 / (lambda t) reads no step size, so a given --eta would go unused.
    data = ["--data", str(dataset_file), "--T", "5"]
    for steps_flags in ([], ["--steps", "strongly-convex"]):
        assert run_cli(["sgd", *data, *steps_flags, "--eta", "0.7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["sgd --eta needs --steps fixed or inverse-sqrt"] * 2


@pytest.mark.parametrize("steps", ["strongly-convex", "fixed", "inverse-sqrt"])
def test_sgd_config_line_records_the_eta_that_ran(dataset_file, tmp_path, capsys, steps):
    data = ["--data", str(dataset_file), "--T", "5", "--steps", steps]
    cases = [([], None)] if steps == "strongly-convex" else [([], 0.1), (["--eta", "0.3"], 0.3)]
    texts = {}
    for eta_flags, eta in cases:
        out = tmp_path / "r.csv"
        assert run_cli(["sgd", *data, *eta_flags, "--out", str(out)]) == 0
        (line,) = [l for l in capsys.readouterr().out.splitlines()
                   if l.startswith("resolved config: ")]
        assert json.loads(line.split(": ", 1)[1])["eta"] == eta
        texts[eta] = out.read_text().split("\n", 3)[3]  # the trace after the comment lines
    if steps != "strongly-convex":
        assert texts[0.1] != texts[0.3]


def test_svrg_json_format(dataset_file, tmp_path):
    out = tmp_path / "svrg.json"
    code = run_cli([
        "svrg", "--data", str(dataset_file), "--reg", "0.2", "--eta", "0.1",
        "--T", "20", "--S", "3", "--seeds", "4", "--format", "json",
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["command"] == "svrg"
    assert doc["config"]["artifact_version"]
    assert len(doc["results"]["rows"]) == 3
    assert "mean_decrease_ratio" in doc["results"]


def test_dist_reports_comm_costs(dataset_file, tmp_path):
    out = tmp_path / "dist.json"
    code = run_cli([
        "dist", "--data", str(dataset_file), "--reg", "0.2", "--k", "3",
        "--eta", "0.1", "--T", "10", "--S", "4", "--format", "json",
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["rounds"] == 8
    assert doc["results"]["floats_moved"] == 2 * 3 * 4 * 4


def test_usage_error_exit_code_2():
    # Unknown flags (--auto-params was removed: --eps selects the rule; --c
    # was removed: the rule's c is 10), and the removed verify and
    # rademacher commands.
    for argv in (["sgd", "--bogus-flag"], ["svrg", "--auto-params"], ["svrg", "--c", "10"],
                 ["svrg", "--data", "missing.txt", "--eps", "0.01", "--auto-params"],
                 ["verify", "--lemma", "key"], ["rademacher"]):
        proc = subprocess.run(
            [sys.executable, "-m", "shufflegrad.cli", *argv], capture_output=True,
        )
        assert proc.returncode == 2, argv


def test_readme_names_every_subcommand():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (row,) = [l for l in readme.splitlines() if l.startswith("| `shufflegrad.cli` |")]
    listed = re.findall(r"`([a-z-]+)`", row.split("subcommands", 1)[1])
    assert sorted(listed) == sorted(sub.choices)


def test_readme_command_lines_run(tmp_path, monkeypatch):
    """README's CLI block runs as written, line by line, in one directory."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    commands = [shlex.split(line, comments=True)
                for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("shufflegrad ")]
    assert {argv[1] for argv in commands} == {"gen", "sgd", "svrg", "dist"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run_cli(argv[1:]) == 0, argv


def test_readme_python_example_runs(tmp_path, monkeypatch):
    """The README's library example runs as written once the CLI line its
    ``# after:`` comment names has written the data file it loads."""
    root = Path(__file__).resolve().parent.parent
    (block,) = re.findall(r"^```python\n(.*?)^```", (root / "README.md").read_text(),
                          flags=re.M | re.S)
    (after,) = re.findall(r"^# after: shufflegrad (.*)$", block, flags=re.M)
    monkeypatch.chdir(tmp_path)
    assert run_cli(shlex.split(after)) == 0
    proc = subprocess.run(
        [sys.executable, "-c", block], cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_gen_without_out_is_usage_error(capsys):
    assert run_cli(["gen", "--m", "5", "--d", "2"]) == 2
    err = capsys.readouterr().err
    assert err.strip() == "gen requires --out <path>"


def test_runtime_error_exit_code_1(tmp_path):
    missing = tmp_path / "nope.txt"
    assert run_cli(["sgd", "--data", str(missing), "--T", "5"]) == 1


@pytest.mark.parametrize("radius", ["0", "-1"])
def test_sgd_nonpositive_radius_exit_code_1(dataset_file, tmp_path, capsys, radius):
    # --radius 0 is a given radius, not a request for the default one.
    out = tmp_path / "r.csv"
    args = ["sgd", "--data", str(dataset_file), "--T", "5", "--radius", radius, "--out", str(out)]
    assert run_cli(args) == 1
    assert "radius must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["sgd", "--T", "5"],
    ["svrg", "--T", "5", "--S", "2", "--eta", "0.1"],
    ["dist", "--T", "5", "--S", "2", "--k", "2", "--eta", "0.1"],
], ids=["sgd", "svrg", "dist"])
def test_infinite_reg_exit_code_1(dataset_file, tmp_path, capsys, command):
    out = tmp_path / "r.csv"
    args = [*command, "--data", str(dataset_file), "--reg", "inf", "--out", str(out)]
    assert run_cli(args) == 1
    assert capsys.readouterr().err == "error: alpha must be finite and >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("command, message", [
    (["sgd", "--T", "5", "--steps", "fixed"], "step size must be finite and positive"),
    (["sgd", "--T", "5", "--steps", "inverse-sqrt"], "step size must be finite and positive"),
    (["svrg", "--T", "5", "--S", "2"], "step_size must be finite and positive"),
    (["dist", "--T", "5", "--S", "2", "--k", "2"], "step_size must be finite and positive"),
], ids=["sgd-fixed", "sgd-inverse-sqrt", "svrg", "dist"])
def test_infinite_eta_exit_code_1(dataset_file, tmp_path, capsys, command, message):
    # Rejected as a parameter, not met at the first step as a divergence.
    out = tmp_path / "r.csv"
    args = [*command, "--data", str(dataset_file), "--eta", "inf", "--out", str(out)]
    assert run_cli(args) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_invariant_violation_exit_code_1(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("#dim 2\n2.0 1:0.5\n")
    assert run_cli(["sgd", "--data", str(bad), "--T", "5"]) == 1
