"""Output checks for the benchmark workloads.

Each gate returns a list of failure messages; an empty list is a pass.
The thresholds are the repository's own acceptance gates, unchanged:
criterion 4 (shuffled SGD rate), 5 and 6 (SVRG geometric decrease and
safety bound) and 7 (distributed equivalence and message counts), plus
the paper's 1/sqrt(T) rate for the kinked-loss workload.
"""

from __future__ import annotations

import math

import numpy as np

# Criterion 4's log-spaced grid; the kinked workload uses the same
# half-decade spacing up to its own pass length m = 2000.
RIDGE_GRID = (100, 316, 1000, 3162, 10_000)
KINKED_GRID = (20, 63, 200, 632, 2000)

RIDGE_SLOPE_MAX = -0.8
RIDGE_FINAL_RATIO_MAX = 3.0
KINKED_SLOPE_MAX = -0.5
SVRG_GEO_RATIO_MAX = 0.5
SVRG_REACH_LEVEL = 1e-8
SVRG_LIVE_FLOOR = 1e-10
DIST_MATCH_TOL = 1e-12


def loglog_slope(mean: np.ndarray, grid) -> float:
    """Least-squares slope of log10(mean[t-1]) against log10(t) on the grid."""
    g = np.asarray(grid)
    vals = np.asarray(mean, dtype=np.float64)[g - 1]
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
        return math.nan
    return float(np.polyfit(np.log10(g), np.log10(vals), 1)[0])


def same_dataset(a, b) -> list[str]:
    """The reloaded dataset equals the generated one bit for bit."""
    out = []
    for name in ("X", "y"):
        u, v = getattr(a, name), getattr(b, name)
        if u.shape != v.shape or u.dtype != v.dtype:
            out.append(f"{name}: shape/dtype {u.shape}/{u.dtype} != {v.shape}/{v.dtype}")
        elif not np.array_equal(u.view(np.uint64), v.view(np.uint64)):
            out.append(f"{name}: reloaded values differ from the generated ones")
    return out


def ridge_rate_gate(single_shuffle_mean, with_replacement_mean) -> list[str]:
    """Criterion 4: slope <= -0.8 on the grid, and the single-shuffle final
    mean at most 3 times the with-replacement one."""
    out = []
    slope = loglog_slope(single_shuffle_mean, RIDGE_GRID)
    if not slope <= RIDGE_SLOPE_MAX:
        out.append(f"single-shuffle log-log slope {slope:.3f} > {RIDGE_SLOPE_MAX}")
    wor, wr = float(single_shuffle_mean[-1]), float(with_replacement_mean[-1])
    if not wor <= RIDGE_FINAL_RATIO_MAX * wr:
        out.append(f"final single-shuffle {wor:.3g} > {RIDGE_FINAL_RATIO_MAX} x "
                   f"with-replacement {wr:.3g}")
    return out


def kinked_rate_gate(mean) -> list[str]:
    """The mean trace falls at least as fast as 1/sqrt(T) and never dips
    below the reference value."""
    out = []
    slope = loglog_slope(mean, KINKED_GRID)
    if not slope <= KINKED_SLOPE_MAX:
        out.append(f"kinked-loss log-log slope {slope:.3f} > {KINKED_SLOPE_MAX}")
    low = float(np.min(mean))
    if not low >= 0.0:
        out.append(f"mean suboptimality {low:.3g} < 0: the reference was beaten")
    return out


def svrg_decrease_gate(traces, n_epochs: int) -> list[str]:
    """Criterion 5 on the across-trial mean: geometric-mean epoch ratio
    <= 0.5 and the mean reaches 1e-8 within the run's epochs."""
    mean_traj = np.stack([t.suboptimality for t in traces]).mean(axis=0)
    start = np.mean([t.initial_suboptimality for t in traces])
    chain = np.concatenate([[start], mean_traj])
    live = chain[:-1] > SVRG_LIVE_FLOOR
    ratios = chain[1:][live] / chain[:-1][live]
    out = []
    if ratios.size == 0 or not np.all(np.isfinite(ratios)) or np.any(ratios <= 0.0):
        return [f"epoch ratios are not positive and finite: {ratios}"]
    geo = float(np.exp(np.mean(np.log(ratios))))
    if not geo <= SVRG_GEO_RATIO_MAX:
        out.append(f"geometric-mean epoch ratio {geo:.3f} > {SVRG_GEO_RATIO_MAX}")
    reached = np.flatnonzero(mean_traj <= SVRG_REACH_LEVEL)
    if reached.size == 0 or reached[0] + 1 > n_epochs:
        out.append(f"mean suboptimality never reached {SVRG_REACH_LEVEL:g} "
                   f"in {n_epochs} epochs")
    return out


def svrg_bound_gate(trace, log_bound: float) -> list[str]:
    """Criterion 6: every epoch's in-epoch worst log suboptimality stays
    at or below the probability-one bound."""
    worst = float(np.log(np.asarray(trace.max_suboptimality)).max())
    if not worst <= log_bound:
        return [f"max log suboptimality {worst:.3f} > bound {log_bound:.3f}"]
    return []


def comm_gate(log, n_machines: int, d: int, n_epochs: int) -> list[str]:
    """Criterion 7's counts: exactly 2S rounds moving 2kdS floats."""
    out = []
    if log.rounds != 2 * n_epochs:
        out.append(f"{log.rounds} comm rounds != 2S = {2 * n_epochs}")
    want = 2 * n_machines * d * n_epochs
    if log.payload_floats != want:
        out.append(f"{log.payload_floats} payload floats != 2kdS = {want}")
    return out


def match_gate(distributed_subopt, single_subopt) -> list[str]:
    """Criterion 7's match: the distributed run replays the single-machine
    run_svrg on the matched permutation within 1e-12 per epoch."""
    gap = float(np.max(np.abs(np.asarray(distributed_subopt) - np.asarray(single_subopt))))
    if not gap <= DIST_MATCH_TOL:
        return [f"distributed/single-machine per-epoch gap {gap:.3g} > {DIST_MATCH_TOL:g}"]
    return []


def count_gate(what: str, got: int, want: int) -> list[str]:
    """An algorithmic count equals the value the configuration fixes."""
    if got != want:
        return [f"{what}: counted {got}, configuration implies {want}"]
    return []
