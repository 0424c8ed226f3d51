"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload through ``run.py`` at the shortest length
   (``--seconds 0``: one round after set-up) with tracing off and on,
   and checks that the last line carries every metric that
   ``BENCHMARK.json`` names, with its unit, and that the run is correct.
   The traced run is made twice; its counts must repeat exactly.
2. Feeds each workload's checker real outputs, which must pass, and
   corrupted copies of them, which must fail.

Exits 1 when any check fails.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace

import run  # first: it pins BLAS to one thread before numpy loads

import gates
import numpy as np
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# Units of count metrics; these must repeat exactly between traced runs.
COUNT_UNITS = ("count", "bytes")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        expect(False, f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return {}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_emission(spec: dict) -> None:
    for w in spec["workloads"]:
        name = w["name"]
        traced_counts = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            res = bench(name, trace)
            if not res:
                continue
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                   f"{name} trace={trace}: result keys")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{name} trace={trace}: correct with no failed trials")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{name} trace={trace}: every {key} metric with its unit")
            values_ok = all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
            expect(values_ok, f"{name} trace={trace}: every metric has a numeric value")
            if trace:
                traced_counts.append({k: v["value"] for k, v in res["metrics"].items()
                                      if v["unit"] in COUNT_UNITS})
        if len(traced_counts) == 2:
            expect(traced_counts[0] == traced_counts[1],
                   f"{name}: traced counts repeat exactly for one seed")


def check_gates(sg) -> None:
    out_dir = str(run.OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    null = tracing.NullTracer()
    W = workloads.WORKLOADS

    def verdict_fails(w, state, calls, expected_failed, what):
        v = w.check_round(state, calls)
        expect(v.failed == expected_failed and v.problems,
               f"{w.name}: {what} fails {expected_failed} trial(s) (got {v.failed})")

    # sgd_ridge
    w = W["sgd_ridge"](sg, out_dir)
    state = w.setup(3, null)
    expect(not w.setup_problems(state), "sgd_ridge: reloaded dataset passes")
    X = state.loaded.X.copy()
    X.view(np.uint64)[7, 3] ^= np.uint64(1)
    expect(bool(gates.same_dataset(state.generated, replace(state.loaded, X=X))),
           "sgd_ridge: a one-bit change in the reloaded data fails")
    calls = w.run_round(state, workloads.round_seed(3, 0))
    v = w.check_round(state, calls)
    expect(v.failed == 0 and not v.problems, "sgd_ridge: real round passes")
    t = np.arange(1, state.problem.m + 1)
    bad = [replace(calls[0], output=replace(calls[0].output, mean=calls[0].output.mean * t)),
           calls[1]]
    verdict_fails(w, state, bad, w.trials_per_round, "mean trace multiplied by t")
    bad = [calls[0], replace(calls[1], output=replace(
        calls[1].output, mean=calls[1].output.mean / 10.0))]
    verdict_fails(w, state, bad, w.trials_per_round, "with-replacement final cut tenfold")
    bad = [calls[0], replace(calls[1], output=None, error=sg.DivergenceError("injected"))]
    verdict_fails(w, state, bad, w.per_sampler, "a raising call")

    # svrg_long
    w = W["svrg_long"](sg, out_dir)
    state = w.setup(3, null)
    calls = w.run_round(state, workloads.round_seed(3, 0))
    v = w.check_round(state, calls)
    expect(v.failed == 0 and not v.problems, "svrg_long: real round passes")
    traces = calls[0].output
    flat = [replace(tr, suboptimality=np.full_like(tr.suboptimality, tr.initial_suboptimality))
            for tr in traces]
    verdict_fails(w, state, [replace(calls[0], output=flat)], w.trials_per_round,
                  "no epoch decrease")
    over = np.exp(state.log_bound + 1.0)
    high = [replace(traces[0], max_suboptimality=traces[0].max_suboptimality + over)] + traces[1:]
    verdict_fails(w, state, [replace(calls[0], output=high)], 1,
                  "one trial over the log-suboptimality bound")

    # dist_short
    w = W["dist_short"](sg, out_dir)
    problem = w.setup(3, null)
    calls = w.run_round(problem, workloads.round_seed(3, 0))
    v = w.check_round(problem, calls)
    expect(v.failed == 0 and not v.problems, "dist_short: real round passes")
    trace, log = calls[0].output
    short = replace(log, rounds=log.rounds - 1)
    verdict_fails(w, problem, [replace(calls[0], output=(trace, short))] + calls[1:], 1,
                  "a CommLog one round short")
    expect(not w.final_problems(problem, 3), "dist_short: criterion 7 match passes")
    expect(bool(gates.match_gate(trace.suboptimality, trace.suboptimality + 1e-9)),
           "dist_short: a 1e-9 per-epoch gap fails the match")

    # sgd_kinked
    w = W["sgd_kinked"](sg, out_dir)
    problem = w.setup(3, null)
    calls = w.run_round(problem, workloads.round_seed(3, 0))
    v = w.check_round(problem, calls)
    expect(v.failed == 0 and not v.problems, "sgd_kinked: real round passes")
    mean = calls[0].output.mean
    t = np.arange(1, mean.size + 1)
    verdict_fails(w, problem, [replace(calls[0], output=replace(calls[0].output, mean=mean * t))],
                  w.trials_per_round, "mean trace multiplied by t")
    below = mean - 2.0 * mean.min()
    verdict_fails(w, problem, [replace(calls[0], output=replace(calls[0].output, mean=below))],
                  w.trials_per_round, "a negative mean value")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sg = run.import_library()
    check_gates(sg)
    check_emission(spec)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
