import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shufflegrad import (
    Dataset,
    LipschitzLinearProblem,
    RidgeProblem,
    Rng,
    SVRGConfig,
    epoch_decrease_ratio,
    log_suboptimality_bound,
    recommended_params,
    run_distributed_svrg,
    run_svrg,
    run_svrg_over_streams,
)
from shufflegrad.errors import DivergenceError, InvalidParameter
from shufflegrad.sampling import schedule
from conftest import random_dataset, random_ridge


def reference_svrg(problem, eta, epoch_len, n_epochs, indices):
    """Straight-line reimplementation of the epoch recursion (test oracle).

    Mirrors the documented arithmetic exactly: the offset v = w - snapshot
    steps as v <- c v + q - x_i (eta (x_i . v)), the iterate is
    v + snapshot, and a running iterate sum gives the epoch average.
    """
    X, a = problem.data.X, problem.alpha
    snapshot = np.zeros(problem.d)
    snapshots, maxima = [], []
    pos = 0
    for _ in range(n_epochs):
        anchor = problem.full_gradient(snapshot)
        v = np.zeros(problem.d)
        acc = np.zeros_like(v)
        worst = 0.0
        for _ in range(epoch_len):
            w = v + snapshot
            worst = max(worst, problem.suboptimality(w))
            acc += w
            xi = X[indices[pos]]
            pos += 1
            v = (1.0 - eta * a) * v + (-eta * anchor) - xi * (eta * (xi @ v))
        worst = max(worst, problem.suboptimality(v + snapshot))
        snapshot = acc / epoch_len
        snapshots.append(snapshot.copy())
        maxima.append(worst)
    return snapshots, maxima


class Crossed(Exception):
    """Raised by :class:`Guarded` at the first iterate over the guard."""


class Guarded:
    """A problem whose suboptimality applies the safety guard, for running
    :func:`reference_svrg` as the guard's oracle.  The oracle evaluates
    epoch_len + 1 iterates per epoch in order, so the call count locates
    the crossing."""

    def __init__(self, problem, guard):
        self._problem, self._guard, self._calls = problem, guard, 0

    def __getattr__(self, name):
        return getattr(self._problem, name)

    def suboptimality(self, w):
        sub = self._problem.suboptimality(w)
        if not math.isfinite(sub) or sub > self._guard:
            raise Crossed(self._calls, sub)
        self._calls += 1
        return sub


class TestUpdateStructure:
    def test_first_step_from_snapshot_is_full_gradient_step(self):
        # At w = snapshot the offset is zero and every stochastic term is
        # exactly zero: the first inner step of an epoch is the full-gradient
        # step from the snapshot, bit for bit, whichever index was drawn.
        # This draw breaks when the step's dot and the anchor-side residual
        # are rounded by different kernels.
        p = random_ridge(300, 20, seed=15, alpha=0.05)
        eta, sigma = 0.3, [132, 171, 290, 43]
        w1 = run_svrg(p, SVRGConfig(eta, 2, 1), sigma=sigma[:2]).final_snapshot
        trace = run_svrg(p, SVRGConfig(eta, 2, 2), sigma=sigma)
        expected = np.cumsum([w1, w1 - eta * p.full_gradient(w1)], axis=0)[-1] / 2
        assert trace.final_snapshot.tobytes() == expected.tobytes()

    def test_minimizer_is_fixed_point(self):
        p = random_ridge(30, 3, seed=1, alpha=0.3)
        X, y, a = p.data.X, p.data.y, p.alpha
        w = p.wstar
        anchor = p.full_gradient(w)
        for i in range(p.m):
            xi = X[i]
            g_now = (xi @ w - y[i]) * xi + a * w
            g_ref = (xi @ w - y[i]) * xi + a * w
            step = g_now - g_ref + anchor
            assert np.linalg.norm(step) <= 1e-9

    def test_hand_computation(self, unit_axes_problem):
        # eta=0.1, epoch of 2 steps on indices [0, 1] starting from 0:
        #   anchor = (-0.5, 0)
        #   w_1 = (0, 0)            -> w_2 = (0.05, 0)
        #   w_2 step uses point 1   -> w_3 = (0.0975, 0)
        # snapshot = mean(w_1, w_2) = (0.025, 0)
        p = unit_axes_problem
        cfg = SVRGConfig(step_size=0.1, epoch_len=2, n_epochs=1)
        trace = run_svrg(p, cfg, sigma=[0, 1])
        assert np.allclose(trace.final_snapshot, [0.025, 0.0], atol=1e-15)
        expected_sub = p.full_objective([0.025, 0.0]) - p.fstar
        assert trace.suboptimality[0] == pytest.approx(expected_sub, abs=1e-12)

    def test_matches_reference_reimplementation(self):
        p = random_ridge(60, 4, seed=2, alpha=0.2)
        cfg = SVRGConfig(
            step_size=0.08, epoch_len=10, n_epochs=3, sampler="with_replacement", seed=5
        )
        trace = run_svrg(p, cfg)
        # replay the same drawn indices through the straight-line oracle
        indices = schedule("with_replacement", p.m, 3, 10, Rng(5, 0)).ravel()
        snaps, maxima = reference_svrg(p, 0.08, 10, 3, indices)
        assert np.array_equal(trace.final_snapshot, snaps[-1])
        assert np.array_equal(trace.max_suboptimality, np.array(maxima))
        assert trace.suboptimality[-1] == p.suboptimality(snaps[-1])


class TestBookkeeping:
    def test_gradient_counts(self):
        p = random_ridge(50, 3, seed=4)
        trace = run_svrg(p, SVRGConfig(step_size=0.1, epoch_len=5, n_epochs=4, seed=1))
        assert np.array_equal(trace.stochastic_grad_evals, np.full(4, 5))
        assert np.array_equal(trace.full_grad_point_evals, np.full(4, 50))

    def test_run_is_deterministic(self):
        p = random_ridge(50, 3, seed=4, alpha=0.3)
        cfg = SVRGConfig(step_size=0.1, epoch_len=6, n_epochs=4, seed=17)
        a, b = run_svrg(p, cfg), run_svrg(p, cfg)
        assert np.array_equal(a.suboptimality, b.suboptimality)
        assert np.array_equal(a.final_snapshot, b.final_snapshot)
        assert np.all(a.suboptimality >= -1e-10)

    def test_single_shuffle_never_revisits(self):
        p = random_ridge(40, 3, seed=5)
        cfg = SVRGConfig(step_size=0.1, epoch_len=8, n_epochs=5, seed=2)
        # instrument by replaying the schedule
        seen = schedule("single_shuffle", p.m, 5, 8, Rng(2, 0)).ravel()
        assert len(set(seen.tolist())) == 40
        run_svrg(p, cfg)  # must not raise

    def test_single_shuffle_budget_enforced(self):
        p = random_ridge(10, 2, seed=6)
        with pytest.raises(InvalidParameter):
            run_svrg(p, SVRGConfig(step_size=0.1, epoch_len=4, n_epochs=3))

    def test_reshuffle_mode_allows_many_epochs(self):
        p = random_ridge(12, 2, seed=7, alpha=0.4)
        cfg = SVRGConfig(
            step_size=0.1, epoch_len=6, n_epochs=6, sampler="reshuffle_each_epoch", seed=3
        )
        trace = run_svrg(p, cfg)
        assert trace.n_epochs == 6

    def test_sigma_too_short_rejected(self):
        p = random_ridge(10, 2, seed=8)
        with pytest.raises(InvalidParameter):
            run_svrg(p, SVRGConfig(step_size=0.1, epoch_len=4, n_epochs=2), sigma=[0, 1, 2])


class TestParameterRule:
    def test_worked_example(self):
        p = type("P", (), {"strong_convexity": 0.01, "m": 10**6})()
        params = recommended_params(p, epsilon=0.01)
        assert params.step_size == pytest.approx(0.1)
        assert params.epoch_len == 9000
        assert params.n_epochs == 5
        assert params.m_required == 90_000

    def test_exact_power_of_four(self):
        p = type("P", (), {"strong_convexity": 1.0, "m": 1000})()
        assert recommended_params(p, epsilon=0.5625).n_epochs == 2

    def test_unit_constants(self):
        # lambda = 10 makes step_size * lambda = 1, so epoch_len is 9 exactly.
        p = type("P", (), {"strong_convexity": 10.0, "m": 100})()
        assert recommended_params(p, epsilon=0.5).epoch_len == 9

    def test_epsilon_range(self):
        p = type("P", (), {"strong_convexity": 0.5, "m": 100})()
        with pytest.raises(InvalidParameter):
            recommended_params(p, epsilon=2.25)
        with pytest.raises(InvalidParameter):
            recommended_params(p, epsilon=0.0)

    def test_small_dataset_warns(self):
        p = type("P", (), {"strong_convexity": 0.01, "m": 100})()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            recommended_params(p, epsilon=0.01)
        assert any("2*S*T" in str(w.message) for w in caught)


@pytest.mark.parametrize("call", [
    lambda p: run_svrg(p, SVRGConfig(step_size=0.1, epoch_len=2, n_epochs=2)),
    lambda p: run_distributed_svrg(p, 2, SVRGConfig(step_size=0.1, epoch_len=2, n_epochs=2)),
    lambda p: recommended_params(p, epsilon=0.01),
], ids=["run_svrg", "run_distributed_svrg", "recommended_params"])
@pytest.mark.parametrize("make", [
    lambda: LipschitzLinearProblem(random_dataset(20, 3, seed=5), "absolute", radius=6.0,
                                   alpha=0.05),
    # a zero feature column at alpha = 0: the Hessian's smallest eigenvalue is exactly 0
    lambda: RidgeProblem(Dataset(X=np.column_stack([np.linspace(0.1, 1.0, 10), np.zeros(10)]),
                                 y=np.zeros(10)), alpha=0.0),
], ids=["lipschitz", "ridge_lambda_0"])
def test_svrg_needs_a_strongly_convex_ridge_problem(call, make):
    with pytest.raises(InvalidParameter, match="strongly convex"):
        call(make())


class TestSafetyBound:
    def test_worked_values(self):
        assert log_suboptimality_bound(9000, 5, 0.01) == pytest.approx(113.13, abs=0.01)
        assert log_suboptimality_bound(1, 1, 0.5) == pytest.approx(5.298, abs=0.001)

    def test_monotonicity(self):
        base = log_suboptimality_bound(100, 3, 0.1)
        assert log_suboptimality_bound(200, 3, 0.1) > base
        assert log_suboptimality_bound(100, 4, 0.1) > base
        assert log_suboptimality_bound(100, 3, 0.05) > base

    def test_holds_on_convergent_runs(self):
        p = random_ridge(200, 4, seed=9, alpha=0.2)
        cfg = SVRGConfig(step_size=0.1, epoch_len=40, n_epochs=5, seed=4)
        trace = run_svrg(p, cfg)
        bound = log_suboptimality_bound(40, 5, p.strong_convexity)
        assert np.log(trace.max_suboptimality.max()) <= bound

    def test_divergent_run_aborts(self):
        p = random_ridge(400, 3, seed=10, alpha=0.05)
        cfg = SVRGConfig(step_size=250.0, epoch_len=80, n_epochs=5, seed=5)
        with pytest.raises(DivergenceError):
            run_svrg(p, cfg)

    def test_divergence_error_carries_its_data(self):
        p = random_ridge(400, 3, seed=10, alpha=0.05)
        cfg = SVRGConfig(step_size=250.0, epoch_len=80, n_epochs=5, seed=5)
        with pytest.raises(DivergenceError) as info:
            run_svrg(p, cfg)
        err = info.value
        guard = math.exp(min(log_suboptimality_bound(80, 5, p.strong_convexity), 700.0))
        assert 1 <= err.epoch <= 5
        assert 1 <= err.step <= 80 + 1
        assert err.bound == guard
        assert not math.isfinite(err.value) or err.value > err.bound
        assert f"epoch {err.epoch}" in str(err)

    @pytest.mark.parametrize(
        "eta, epoch_len, n_epochs",
        [
            (250.0, 80, 5),  # inside the first epoch
            (20.0, 80, 5),  # inside a later epoch
            (1e4, 3, 5),  # at an epoch boundary (step epoch_len + 1)
            (1e7, 1, 3),  # at the boundary of one-step epochs
            (1e200, 80, 5),  # the suboptimality overflows to inf
        ],
    )
    def test_divergence_reports_the_first_crossing(self, eta, epoch_len, n_epochs):
        p = random_ridge(400, 3, seed=10, alpha=0.05)
        cfg = SVRGConfig(step_size=eta, epoch_len=epoch_len, n_epochs=n_epochs, seed=5)
        guard = math.exp(
            min(log_suboptimality_bound(epoch_len, n_epochs, p.strong_convexity), 700.0)
        )
        indices = schedule("single_shuffle", p.m, n_epochs, epoch_len, Rng(5, 0)).ravel()
        with np.errstate(all="ignore"), pytest.raises(Crossed) as crossed:
            reference_svrg(Guarded(p, guard), eta, epoch_len, n_epochs, indices)
        calls, value = crossed.value.args
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as info:
                run_svrg(p, cfg)
        err = info.value
        assert err.epoch == calls // (epoch_len + 1) + 1
        assert err.step == calls % (epoch_len + 1) + 1
        assert np.float64(err.value).tobytes() == np.float64(value).tobytes()
        assert err.bound == guard


@pytest.mark.parametrize(
    "d, eta, epoch_len",
    [
        (1, 0.3, 37),  # one feature: the snapshot adds a single column in step order
        (3, 12.0, 1),  # overshooting one-step epochs: the post-step iterate is the maximum
    ],
)
def test_snapshots_and_maxima_match_reference(d, eta, epoch_len):
    p = random_ridge(200, d, seed=14, alpha=0.2)
    cfg = SVRGConfig(step_size=eta, epoch_len=epoch_len, n_epochs=4, seed=8)
    trace = run_svrg(p, cfg)
    indices = schedule("single_shuffle", p.m, 4, epoch_len, Rng(8, 0)).ravel()
    snaps, maxima = reference_svrg(p, eta, epoch_len, 4, indices)
    assert np.array_equal(trace.final_snapshot, snaps[-1])
    assert np.array_equal(trace.max_suboptimality, np.array(maxima))
    assert np.array_equal(trace.suboptimality, [p.suboptimality(s) for s in snaps])


@settings(max_examples=40, deadline=None)
@given(
    sampler=st.sampled_from(
        ["single_shuffle", "reshuffle_each_epoch", "with_replacement", "sigma"]
    ),
    d=st.integers(1, 6),
    T=st.integers(1, 60),
    S=st.integers(1, 5),
    eta=st.floats(0.01, 0.6),
    alpha=st.floats(0.01, 1.5),
    spare=st.integers(0, 40),
    seed=st.integers(0, 2**32),
)
# The driver steps on the epoch's gathered rows; the oracle reads its rows
# off the full array.  The first two cases run at d = 20, the benchmark's
# width, wider than the drawn d, with T and m not multiples of 4.  The
# third has alpha = 0, so c = 1 exactly and the offset's scaling is the
# identity.
@example(sampler="single_shuffle", d=20, T=39, S=5, eta=0.3, alpha=0.05, spare=3, seed=0)
@example(sampler="single_shuffle", d=20, T=59, S=5, eta=0.3, alpha=0.05, spare=0, seed=1)
@example(sampler="single_shuffle", d=6, T=40, S=3, eta=0.3, alpha=0.0, spare=10, seed=3)
def test_run_matches_reference_bitwise(sampler, d, T, S, eta, alpha, spare, seed):
    """run_svrg has the oracle's bits for each sampler and for an explicit sigma."""
    p = random_ridge(T * S + spare, d, seed=seed % 997, alpha=alpha)
    if sampler == "sigma":
        sigma = np.random.default_rng(seed).integers(0, p.m, T * S)
        cfg = SVRGConfig(step_size=eta, epoch_len=T, n_epochs=S)
        trace, indices = run_svrg(p, cfg, sigma=sigma), sigma
    else:
        cfg = SVRGConfig(step_size=eta, epoch_len=T, n_epochs=S, sampler=sampler, seed=seed)
        trace = run_svrg(p, cfg)
        indices = schedule(sampler, p.m, S, T, Rng(seed, 0)).ravel()
    snaps, maxima = reference_svrg(p, eta, T, S, indices)
    assert trace.final_snapshot.tobytes() == snaps[-1].tobytes()
    assert trace.max_suboptimality.tobytes() == np.array(maxima).tobytes()
    assert trace.suboptimality.tobytes() == np.array([p.suboptimality(w) for w in snaps]).tobytes()


def test_epoch_cost_does_not_grow_with_m():
    # An epoch reads its T gathered rows and the O(d^2) anchor: no (m,) vector.
    m = 200_000
    p = random_ridge(m, 4, seed=6, alpha=0.1)
    p.wstar, p.strong_convexity  # cached set-up, not epoch cost
    sigma = np.random.default_rng(6).choice(m, 150, replace=False)
    tracemalloc.start()
    try:
        run_svrg(p, SVRGConfig(0.1, 50, 3), sigma=sigma)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * m


class TestEpochRatios:
    def test_chain_is_the_start_then_each_snapshot(self):
        trace = run_svrg(random_ridge(30, 2, seed=11),
                         SVRGConfig(step_size=0.1, epoch_len=5, n_epochs=3))
        chain = np.concatenate([[trace.initial_suboptimality], trace.suboptimality])
        assert trace.chain.tobytes() == chain.tobytes()

    def test_needs_two_epochs(self):
        p = random_ridge(30, 2, seed=11)
        trace = run_svrg(p, SVRGConfig(step_size=0.1, epoch_len=5, n_epochs=1))
        with pytest.raises(InvalidParameter):
            epoch_decrease_ratio(trace)

    def test_zero_trajectory_stays_zero(self):
        # Labels identically zero make w* = 0 = starting snapshot.
        X = np.eye(3)
        p = RidgeProblem(Dataset(X=X, y=np.zeros(3)), alpha=0.5)
        trace = run_svrg(p, SVRGConfig(step_size=0.2, epoch_len=1, n_epochs=3))
        assert np.allclose(trace.suboptimality, 0.0, atol=1e-30)
        ratios = epoch_decrease_ratio(trace)
        assert np.all(ratios >= 0.0) and np.all(ratios <= 1.0)

    @pytest.mark.filterwarnings("ignore:dataset has")
    def test_geometric_decrease_on_benchmark(self):
        p = random_ridge(4000, 6, seed=12, alpha=0.1)
        params = recommended_params(p, epsilon=1e-6)
        cfg = SVRGConfig(
            step_size=params.step_size,
            epoch_len=params.epoch_len,
            n_epochs=min(params.n_epochs, 4000 // params.epoch_len),
            seed=6,
        )
        traces = run_svrg_over_streams(p, cfg, n_seeds=8)
        mean = np.stack([t.suboptimality for t in traces]).mean(axis=0)
        chain = np.concatenate([[traces[0].initial_suboptimality], mean])
        live = chain > 1e-10
        ratios = chain[1:][live[:-1]] / chain[:-1][live[:-1]]
        geo = float(np.exp(np.mean(np.log(ratios))))
        # recommended_params sets n_epochs = ceil(log_4(9 / epsilon)): the rule
        # itself targets a contraction of at least 4x per epoch.
        assert geo <= 0.25

    def test_birthday_regime_agreement(self):
        # Short runs far below sqrt(m): the two disciplines agree within
        # 3 combined standard errors.
        p = random_ridge(4096, 4, seed=13, alpha=0.15)
        finals = {}
        for sampler in ("single_shuffle", "with_replacement"):
            cfg = SVRGConfig(
                step_size=0.1, epoch_len=8, n_epochs=2, sampler=sampler, seed=7
            )
            traces = run_svrg_over_streams(p, cfg, n_seeds=100)
            vals = np.array([t.suboptimality[-1] for t in traces])
            finals[sampler] = (vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size))
        gap = abs(finals["single_shuffle"][0] - finals["with_replacement"][0])
        combined = math.hypot(finals["single_shuffle"][1], finals["with_replacement"][1])
        assert gap <= 3.0 * combined
