"""Benchmark of the shufflegrad library: Monte-Carlo trial throughput.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory and from nowhere else.  One single-threaded process
runs the workload as a closed loop: rounds of trials back to back.

``--trace 0`` sets the workload up several times (the median is
``setup_s``), then times rounds until ``--seconds`` have passed
(``trials_per_s`` is the median over rounds of trials per second) and
prints the end-to-end metrics.  ``--trace 1`` sets up once and runs a
fixed number of pairs of rounds, one untraced and one traced with the
same seeds, and prints the per-layer metrics; its counts repeat exactly
for a seed.  Either way every output is checked, and the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The spans of a traced run
are written to ``.perfbench_out/`` in the checkout.
"""

import os

# Pin BLAS to one thread before numpy loads it; OpenBLAS otherwise
# starts one thread per core.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 3
PR_SET_THP_DISABLE = 41
TRACE_PAIRS = 2

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def import_library():
    """Import shufflegrad from the checkout's src/, or exit with code 1."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import shufflegrad
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import shufflegrad from {src}: {exc}")
    origin = Path(shufflegrad.__file__).resolve()
    if src.resolve() not in origin.parents:
        sys.exit(f"perfbench: shufflegrad was imported from {origin}, not from {src}")
    return shufflegrad


def disable_thp() -> bool:
    """Turn transparent huge pages off for this process only.

    Whether the kernel grants huge pages depends on the host's memory
    fragmentation, and with them the gathers over the m=1e5 data ran up
    to 10% faster in some processes than in others.  Without them every
    run pays the same page cost."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def machine_info() -> dict:
    import numpy
    import scipy

    blas = {}
    for mod in (numpy, scipy):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[mod.__name__] = f"{dep['name']} {dep['version']}"
        except (KeyError, TypeError):
            blas[mod.__name__] = "unknown"
    task_dir = "/proc/self/task"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "process_threads": len(os.listdir(task_dir)) if os.path.isdir(task_dir) else None,
    }


class Run:
    """Totals of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.round_counts: dict | None = None

    def record(self, calls, verdict) -> int:
        trials = sum(c.trials for c in calls)
        self.attempted += trials
        self.failed += verdict.failed
        self.problems += verdict.problems
        if self.round_counts is None:
            self.round_counts = verdict.counts
        elif verdict.counts != self.round_counts:
            self.problems.append(
                f"algorithmic counts differ between rounds: {verdict.counts} "
                f"!= {self.round_counts}")
        return trials


def timed_run(workload, seed: int, seconds: float):
    run = Run()
    probe = hostspeed.HostSpeed(workload.probe_mix)
    before = probe.factor()

    def timed(fn):
        """Run fn; return (result, wall seconds, host slowdown over the call)."""
        nonlocal before
        start = perf_counter()
        result = fn()
        wall = perf_counter() - start
        after = probe.factor()
        slow = 0.5 * (before + after)
        before = after
        return result, wall, slow

    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        state, wall, slow = timed(lambda: workload.setup(seed, tracing.NullTracer()))
        setups.append(wall / slow)
        raw_setups.append(wall)
    run.problems += workload.setup_problems(state)

    rates, raw_rates = [], []
    began = perf_counter()
    r = 0
    while r == 0 or perf_counter() - began < seconds:
        calls, wall, slow = timed(
            lambda: workload.run_round(state, workloads.round_seed(seed, r)))
        trials = run.record(calls, workload.check_round(state, calls))
        rates.append(trials / wall * slow)
        raw_rates.append(trials / wall)
        r += 1
    run.problems += workload.final_problems(state, seed)

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "trials_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    samples = {"trials_per_s": len(rates), "setup_s": len(setups), "peak_rss_mb": 1}
    raw = {"wall_trials_per_s": raw_rates, "wall_setup_s": raw_setups,
           "trials_per_s": rates, "setup_s": setups}
    return run, metrics, samples, raw


def traced_run(workload, seed: int):
    run = Run()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        with tracer.span("bench.setup"):
            state = workload.setup(seed, tracer)
    finally:
        tracing.uninstall(undo)
    run.problems += workload.setup_problems(state)

    walls = {"untraced": 0.0, "traced": 0.0}
    for r in range(TRACE_PAIRS):
        for mode in ("untraced", "traced"):
            tracer.round = r
            traced = mode == "traced"
            undo = tracing.install(tracer) if traced else []
            try:
                start = perf_counter()
                with tracer.span("bench.round") if traced else contextlib.nullcontext():
                    calls = workload.run_round(state, workloads.round_seed(seed, r))
                walls[mode] += perf_counter() - start
            finally:
                tracing.uninstall(undo)
            run.record(calls, workload.check_round(state, calls))
    run.problems += workload.final_problems(state, seed)

    overhead = (walls["traced"] - walls["untraced"]) / walls["untraced"]
    metrics = tracing.layer_metrics(tracer, overhead)
    tracer.write(str(OUT_DIR / f"spans-{workload.name}.tsv"))
    samples = {name: 1 for name in metrics}
    return run, metrics, samples, walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    sg = import_library()
    thp_disabled = disable_thp()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](sg, str(OUT_DIR))

    if args.trace:
        run, metrics, samples, extra = traced_run(workload, args.seed)
        units = tracing.LAYER_UNITS
    else:
        run, metrics, samples, extra = timed_run(workload, args.seed, args.seconds)
        units = END_TO_END_UNITS

    for problem in run.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    correct = run.failed == 0 and not run.problems

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:<28} {shown:>14} {units[name]:<10} n={samples[name]}")
    failed_frac = run.failed / run.attempted
    print(f"  {'failed_frac':<28} {failed_frac:>14.6g} {'fraction':<10} "
          f"n={run.attempted} ({run.failed} failed)")
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": dict(machine_info(), thp_disabled=thp_disabled),
        "samples": samples,
        "extra": extra,
        "failed_frac": failed_frac,
        "round_counts": run.round_counts,
    }
    print(json.dumps({"perfbench_meta": meta}))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
