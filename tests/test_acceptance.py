"""Acceptance suite: one test per numbered criterion, with stated
tolerances and runtime budgets pinned.  Run with ``pytest -v -s
tests/test_acceptance.py`` to see one pass line per criterion."""

import math
import time

import numpy as np
import pytest

from shufflegrad import (
    Dataset,
    GenSpec,
    InverseSqrtStep,
    LinearBallClass,
    LipschitzLinearProblem,
    RidgeProblem,
    Rng,
    SGDConfig,
    SVRGConfig,
    StronglyConvexStep,
    average_suboptimality_over_seeds,
    central_band_peak,
    generate,
    linear_ball_bound,
    log_suboptimality_bound,
    matched_permutation,
    matrix_concentration_check,
    partition,
    permutation_identity_check,
    rademacher_estimate,
    run_distributed_svrg,
    run_svrg,
    run_svrg_over_streams,
    sqrt_sum_bound_scan,
    suboptimality_decomposition_check,
)
from shufflegrad.distributed import BROADCAST, REDUCE
from conftest import random_dataset, random_ridge


def report(criterion, detail):
    print(f"[criterion {criterion:>2}] PASS  {detail}")


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


# ---------------------------------------------------------------------------
# shared benchmarks (built once per session)


@pytest.fixture(scope="session")
def sgd_benchmark():
    """Ridge benchmark with m = 10^4, d = 20 and strong convexity near 0.1."""
    data = generate(GenSpec(m=10_000, d=20, spectrum="geometric", decay=0.5,
                            noise=0.1, signal_norm=1.0, seed=1))
    problem = RidgeProblem(data, alpha=0.1)
    assert 0.09 <= problem.strong_convexity <= 0.11
    return problem


def rate_runs(problem):
    """Criterion 4's two arms on ``problem``: 100 streams of one pass each."""
    radius = 2.0 * max(1.0, float(np.linalg.norm(problem.wstar)))
    rule = StronglyConvexStep(problem.strong_convexity)
    out = {}
    for sampler in ("single_shuffle", "with_replacement"):
        config = SGDConfig(n_steps=10_000, step_rule=rule, radius=radius,
                           sampler=sampler, seed=11)
        out[sampler] = average_suboptimality_over_seeds(problem, config, n_seeds=100)
    return out


@pytest.fixture(scope="session")
def sgd_rate_runs(sgd_benchmark):
    return timed(lambda: rate_runs(sgd_benchmark))


@pytest.fixture(scope="session")
def svrg_benchmark():
    """Ridge benchmark with m = 10^5 and strong convexity 0.05 (+ < 3e-5)."""
    data = generate(GenSpec(m=100_000, d=20, spectrum="geometric", decay=0.45,
                            noise=0.1, signal_norm=1.0, seed=2))
    problem = RidgeProblem(data, alpha=0.05)
    lam = problem.strong_convexity
    assert 0.05 < lam < 0.05003
    return problem


@pytest.fixture(scope="session")
def svrg_traces(svrg_benchmark):
    problem = svrg_benchmark
    lam = problem.strong_convexity
    epoch_len = math.ceil(9.0 / (0.1 * lam) - 1e-9)
    assert epoch_len == 1800
    config = SVRGConfig(step_size=0.1, epoch_len=epoch_len, n_epochs=13,
                        sampler="single_shuffle", seed=21)
    assert problem.m >= 2 * config.n_epochs * config.epoch_len
    return timed(lambda: run_svrg_over_streams(problem, config, n_seeds=50)), config


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_permutation_identity_exact():
    def experiment():
        worst = 0.0
        cases = 0
        for m in range(2, 7):
            for rule_id in range(10):  # 10 rules per m: 50 rules total
                problem = random_ridge(m, 2, seed=100 * m + rule_id,
                                       alpha=0.1 + 0.05 * rule_id)
                step = 0.05 + 0.03 * rule_id

                def rule(prefix, _p=problem, _s=step):
                    w = np.zeros(_p.d)
                    for idx in prefix:
                        w = w - _s * _p.point_gradient(idx, w)
                    return _p.point_losses(w)

                for t in range(1, m + 1):
                    lhs, rhs = permutation_identity_check(m, t, rule)
                    worst = max(worst, abs(lhs - rhs))
                    cases += 1
        return worst, cases

    (worst, cases), elapsed = timed(experiment)
    assert worst <= 1e-12
    assert elapsed < 5.0
    report(1, f"max |lhs-rhs| = {worst:.2e} over {cases} cases ({elapsed:.1f}s)")


def test_criterion_02_decomposition_identity():
    def experiment():
        worst = 0.0
        ridge = random_ridge(5, 2, seed=42, alpha=0.25)
        data = random_dataset(5, 2, seed=43, label_scale=0.8)
        absolute = LipschitzLinearProblem(data, "absolute", radius=6.0, alpha=0.05)
        for problem, rule in (
            (ridge, StronglyConvexStep(ridge.strong_convexity)),
            (absolute, InverseSqrtStep(0.5)),
        ):
            radius = 6.0 if problem is absolute else 2.0 * max(
                1.0, float(np.linalg.norm(problem.wstar))
            )
            for T in range(1, 6):
                config = SGDConfig(n_steps=T, step_rule=rule, radius=radius)
                res = suboptimality_decomposition_check(problem, config)
                worst = max(worst, abs(res.lhs - res.regret_term - res.prefix_suffix_term))
        return worst

    worst, elapsed = timed(experiment)
    assert worst <= 1e-10
    assert elapsed < 10.0
    report(2, f"max identity gap = {worst:.2e} over 120 permutations x 2 losses "
               f"x T=1..5 ({elapsed:.1f}s)")


def test_criterion_03_linear_class_complexity_bound():
    def experiment():
        rng = Rng(31, 0)
        X = rng.normal(100 * 10).reshape(100, 10)
        X /= np.linalg.norm(X, axis=1)[:, None]
        return rademacher_estimate(LinearBallClass(X, 1.0), (50, 50), 10_000, seed=32)

    est, elapsed = timed(experiment)
    bound = linear_ball_bound(1.0, (50, 50))
    assert bound == pytest.approx(0.4, abs=1e-9)
    assert est.value <= 0.4 + 3 * est.stderr
    assert elapsed < 5.0
    report(3, f"estimate {est.value:.4f} +- {est.stderr:.4f} <= 0.4 ({elapsed:.1f}s)")


RATE_GRID = np.array([100, 316, 1000, 3162, 10_000])


def check_rate_gates(runs):
    """Assert criterion 4's two gates on ``runs``; return the slope and the
    final ratio."""
    wor = runs["single_shuffle"]
    means = wor.mean[RATE_GRID - 1]
    slope = float(np.polyfit(np.log10(RATE_GRID), np.log10(means), 1)[0])
    assert slope <= -0.8

    final_wor = wor.mean[-1]
    final_wr = runs["with_replacement"].mean[-1]
    # One-sided factor-3 gate: the claim under test is that a shuffled
    # pass is not significantly worse than independent draws (here it is
    # in fact better at T = m, see the decisions ledger).
    assert final_wor <= 3.0 * final_wr
    return slope, final_wor / final_wr


def test_criterion_04_strongly_convex_rate(sgd_rate_runs):
    runs, elapsed = sgd_rate_runs
    slope, ratio = check_rate_gates(runs)
    assert elapsed < 300.0
    report(4, f"slope {slope:.2f} <= -0.8; final ratio wor/wr = "
               f"{ratio:.2f} <= 3 over 100 seeds ({elapsed:.0f}s)")


ORDER_Z = 4.0  # fixed before the first run


def test_criterion_16_storage_order_invariance(sgd_benchmark, sgd_rate_runs):
    """Both samplers draw positions uniformly, so the order the rows are
    stored in cannot matter: criterion 4's arms on a copy of its data
    sorted by x . w* agree with the as-drawn runs' means within ORDER_Z
    combined standard errors at each grid step, and criterion 4's gates
    hold on the copy.  An order read off the storage fails it."""
    problem = sgd_benchmark
    order = np.argsort(problem.data.X @ problem.wstar, kind="stable")
    data = Dataset(X=problem.data.X[order], y=problem.data.y[order])
    (drawn, _), (stored, elapsed) = sgd_rate_runs, timed(
        lambda: rate_runs(RidgeProblem(data, alpha=problem.alpha)))
    worst = 0.0
    for sampler, a in drawn.items():
        b = stored[sampler]
        gap = np.abs(a.mean - b.mean)[RATE_GRID - 1]
        combined = np.hypot(a.stderr, b.stderr)[RATE_GRID - 1]
        assert np.all(gap <= ORDER_Z * combined), sampler
        worst = max(worst, float((gap / combined).max()))
    slope, ratio = check_rate_gates(stored)
    assert elapsed < 300.0
    report(16, f"sorted by x.w*: worst mean gap {worst:.2f} <= {ORDER_Z:g} combined SE; "
                f"slope {slope:.2f}, final ratio {ratio:.2f} ({elapsed:.1f}s)")


def test_criterion_05_geometric_convergence(svrg_traces):
    (traces, elapsed), config = svrg_traces
    mean_traj = np.stack([t.suboptimality for t in traces]).mean(axis=0)
    chain = np.concatenate([[np.mean([t.initial_suboptimality for t in traces])], mean_traj])
    live = chain[:-1] > 1e-10
    ratios = chain[1:][live] / chain[:-1][live]
    geo = float(np.exp(np.mean(np.log(ratios))))
    # recommended_params sets n_epochs = ceil(log_4(9 / epsilon)): the rule
    # itself targets a contraction of at least 4x per epoch.
    assert geo <= 0.25
    reach = int(np.argmax(mean_traj <= 1e-8)) + 1 if np.any(mean_traj <= 1e-8) else 99
    assert reach <= 13
    assert elapsed < 600.0
    report(5, f"geometric mean ratio {geo:.3f} <= 0.25; mean suboptimality "
               f"<= 1e-8 after {reach} epochs over 50 seeds ({elapsed:.0f}s)")


def test_criterion_06_runtime_safety_bound(svrg_benchmark, svrg_traces):
    (traces, _), config = svrg_traces
    bound = log_suboptimality_bound(
        config.epoch_len, config.n_epochs, svrg_benchmark.strong_convexity
    )
    worst = -np.inf
    for trace in traces:
        worst = max(worst, float(np.log(trace.max_suboptimality).max()))
    assert worst <= bound
    report(6, f"max ln(in-epoch suboptimality) {worst:.2f} <= bound {bound:.2f} "
               f"on every epoch of all 50 runs")


def test_criterion_07_distributed_equivalence_and_comm():
    def experiment():
        problem = random_ridge(2000, 12, seed=50, alpha=0.1, label_scale=0.8)
        config = SVRGConfig(step_size=0.1, epoch_len=80, n_epochs=6, seed=51)
        shards = partition(problem.data, 4, Rng(51, 7))
        dist_trace, log = run_distributed_svrg(problem, 4, config, shards=shards)
        solo_trace = run_svrg(
            problem, config, sigma=matched_permutation(shards, 80, 6)
        )
        return problem, config, dist_trace, solo_trace, log

    (problem, config, dist_trace, solo_trace, log), elapsed = timed(experiment)
    for field in ("suboptimality", "max_suboptimality", "final_snapshot"):
        assert getattr(dist_trace, field).tobytes() == getattr(solo_trace, field).tobytes()
    assert (np.float64(dist_trace.initial_suboptimality).tobytes()
            == np.float64(solo_trace.initial_suboptimality).tobytes())
    assert log.rounds == 2 * config.n_epochs
    assert log.messages_by_kind == {REDUCE: 4 * config.n_epochs, BROADCAST: 4 * config.n_epochs}
    assert log.payload_floats == problem.d * sum(log.messages_by_kind.values())
    assert elapsed < 60.0
    report(7, f"k=4 trace bitwise equal to one machine; rounds = {log.rounds} = 2S; "
               f"payload = {log.payload_floats} = 2kdS floats ({elapsed:.1f}s)")


def test_criterion_08_matrix_concentration_scaling():
    def experiment():
        peaks, rates = {}, {}
        for m in (100, 400):
            rng = Rng(60, m)
            X = rng.normal(m * 5).reshape(m, 5)
            X /= np.linalg.norm(X, axis=1)[:, None]
            res = matrix_concentration_check(X, 0.0, 12.0, 2000, seed=61, stream=m)
            peaks[m] = central_band_peak(res.max_deviation_profile)
            rates[m] = res.violation_rate
        return peaks, rates

    (peaks, rates), elapsed = timed(experiment)
    assert rates[100] == 0.0 and rates[400] == 0.0
    ratio = peaks[400] / peaks[100]
    assert ratio <= 0.7
    assert elapsed < 120.0
    report(8, f"central-band peak ratio {ratio:.3f} <= 0.7; zero violations "
               f"in 2x2000 trials ({elapsed:.0f}s)")


def test_criterion_09_weighted_sqrt_sum_bound():
    worst, elapsed = timed(lambda: sqrt_sum_bound_scan(2000))
    assert worst <= 1.0
    assert elapsed < 30.0
    report(9, f"worst ratio {worst:.4f} <= 1 over all m <= 2000, T <= m ({elapsed:.1f}s)")


def test_criterion_10_birthday_regime_consistency(svrg_benchmark):
    problem = svrg_benchmark  # m = 10^5 so S*T = 50 << sqrt(m)

    def experiment():
        out = {}
        for sampler in ("single_shuffle", "with_replacement"):
            config = SVRGConfig(step_size=0.1, epoch_len=10, n_epochs=5,
                                sampler=sampler, seed=71)
            traces = run_svrg_over_streams(problem, config, n_seeds=200)
            finals = np.array([t.suboptimality[-1] for t in traces])
            out[sampler] = (finals.mean(), finals.std(ddof=1) / math.sqrt(finals.size))
        return out

    out, elapsed = timed(experiment)
    gap = abs(out["single_shuffle"][0] - out["with_replacement"][0])
    combined = math.hypot(out["single_shuffle"][1], out["with_replacement"][1])
    assert gap <= 3.0 * combined
    assert elapsed < 120.0
    report(10, f"|mean difference| = {gap:.2e} <= 3 x combined SE = "
                f"{3 * combined:.2e} over 200 seeds each ({elapsed:.0f}s)")
