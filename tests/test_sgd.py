import functools
import math
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shufflegrad import (
    Dataset,
    FixedStep,
    InverseSqrtStep,
    LipschitzLinearProblem,
    RidgeProblem,
    SGDConfig,
    StronglyConvexStep,
    average_suboptimality_over_seeds,
    run_sgd,
    suboptimality_decomposition_check,
)
from shufflegrad.errors import DivergenceError, InvalidParameter
from shufflegrad.rng import Rng
from shufflegrad.sampling import schedule
from shufflegrad import sgd as sgd_module
from shufflegrad.sgd import EVAL_BLOCK
from conftest import (
    random_dataset,
    random_ridge,
    straight_objective,
    straight_suboptimality,
)


def config_for(problem, T, sampler="single_shuffle", seed=0, radius=None, rule=None):
    return SGDConfig(
        n_steps=T,
        step_rule=rule or StronglyConvexStep(problem.strong_convexity),
        radius=radius or 2.0 * max(1.0, float(np.linalg.norm(problem.wstar))),
        sampler=sampler,
        seed=seed,
    )


def reference_sgd(problem, config, indices, reference=None):
    """Straight-line SGD (test oracle): the running average of every step
    is evaluated on its own, right after it is formed."""
    X, y, a = problem.data.X, problem.data.y, problem.alpha
    comparator = problem.wstar if reference is None else reference
    star = problem.point_losses(comparator)
    T, d = config.n_steps, problem.d
    w = np.zeros(d)
    csum = [np.zeros(d)]  # running sums S_t = w_1 + ... + w_t
    subopt, regret = [], 0.0
    for t in range(1, T + 1):
        csum.append(csum[-1] + w)
        if config.averaging == "suffix_half":
            window = (t + 1) // 2
            avg = (csum[t] - csum[t - window]) / window
        else:
            avg = csum[t] / t
        if reference is None:
            subopt.append(straight_suboptimality(problem, avg))
        else:
            subopt.append(straight_objective(problem, avg) - straight_objective(problem, reference))
        i = indices[t - 1]
        z = X[i] @ w
        if problem.kind == "squared":
            slope = z - y[i]
            loss = 0.5 * slope * slope
        elif problem.kind == "absolute":
            slope = np.sign(z - y[i])
            loss = abs(z - y[i])
        else:
            margin = 1.0 - y[i] * z
            slope = -y[i] if margin > 0.0 else 0.0
            loss = max(0.0, margin)
        if a:
            loss += 0.5 * a * (w @ w)
        regret += loss - star[i]
        g = slope * X[i]
        if a:
            g = g + a * w
        w = w - config.step_rule.rate(t) * g
        norm = math.sqrt(w @ w)
        if norm > config.radius:
            w *= config.radius / norm
    return np.array(subopt), avg, float(regret)


@pytest.mark.parametrize("T", [1, 37, EVAL_BLOCK, 2 * EVAL_BLOCK + 37])
@pytest.mark.parametrize("averaging", ["all", "suffix_half"])
@pytest.mark.parametrize("kind", ["ridge", "absolute"])
def test_run_matches_per_step_oracle(T, averaging, kind):
    data = random_dataset(120, 3, seed=T)
    if kind == "ridge":
        problem, reference = RidgeProblem(data, alpha=0.1), None
        rule = StronglyConvexStep(0.1)
    else:  # the comparator is given: no reference solve for the kinked loss
        problem = LipschitzLinearProblem(data, "absolute", radius=2.0, alpha=0.05)
        reference, rule = np.full(3, 0.1), InverseSqrtStep(0.5)
    cfg = SGDConfig(n_steps=T, step_rule=rule, radius=2.0, averaging=averaging)
    sigma = Rng(T, 1).below(np.full(T, problem.m, dtype=np.uint64))
    trace = run_sgd(problem, cfg, sigma=sigma, reference=reference)
    subopt, avg, regret = reference_sgd(problem, cfg, sigma, reference)
    assert np.array_equal(trace.suboptimality, subopt)
    assert np.array_equal(trace.average_iterate, avg)
    assert trace.regret == regret


class TestSingleRun:
    def test_hand_step(self, unit_axes_problem):
        # lambda = 1 so eta_1 = 2; from w_1 = 0 one step lands on (2, 0),
        # exactly on the radius-2 ball.
        cfg = SGDConfig(
            n_steps=2, step_rule=StronglyConvexStep(1.0), radius=2.0, seed=0
        )
        trace = run_sgd(unit_axes_problem, cfg, sigma=[0, 1], collect_iterates=True)
        assert np.allclose(trace.iterates[0], [0.0, 0.0])
        assert np.allclose(trace.iterates[1], [2.0, 0.0])

    def test_t1_average_is_origin(self, unit_axes_problem):
        cfg = SGDConfig(n_steps=1, step_rule=StronglyConvexStep(1.0), radius=2.0)
        trace = run_sgd(unit_axes_problem, cfg, sigma=[0])
        assert np.allclose(trace.average_iterate, [0.0, 0.0])
        assert trace.suboptimality[0] == pytest.approx(0.125, abs=1e-12)
        assert trace.gradient_evals == 1

    def test_zero_steps_forbidden(self, unit_axes_problem):
        with pytest.raises(InvalidParameter):
            SGDConfig(n_steps=0, step_rule=FixedStep(0.1), radius=1.0)

    def test_deterministic_across_runs(self):
        p = random_ridge(40, 3, seed=1)
        cfg = config_for(p, 30, sampler="with_replacement", seed=7)
        a = run_sgd(p, cfg)
        b = run_sgd(p, cfg)
        assert np.array_equal(a.suboptimality, b.suboptimality)
        assert a.regret == b.regret
        assert np.all(a.suboptimality >= -1e-10)

    def test_projection_keeps_ball(self):
        p = random_ridge(30, 3, seed=2, alpha=0.05)
        radius = max(1.0, float(np.linalg.norm(p.wstar)) + 0.1)
        cfg = config_for(p, 30, radius=radius)
        trace = run_sgd(p, cfg, collect_iterates=True)
        norms = np.linalg.norm(trace.iterates, axis=1)
        assert norms.max() <= radius + 1e-12

    def test_radius_must_cover_minimizer(self):
        p = random_ridge(30, 3, seed=3, alpha=0.01, label_scale=1.0)
        tiny = 0.25 * float(np.linalg.norm(p.wstar))
        with pytest.raises(InvalidParameter):
            run_sgd(p, config_for(p, 5, radius=tiny))

    def test_single_shuffle_requires_T_at_most_m(self):
        p = random_ridge(10, 2, seed=4)
        with pytest.raises(InvalidParameter):
            run_sgd(p, config_for(p, 11))

    def test_non_finite_iterate_reports_its_step(self):
        p = random_ridge(30, 3, seed=4)
        cfg = config_for(p, 10, rule=FixedStep(float("inf")))
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
            run_sgd(p, cfg)
        assert info.value.step == 1
        assert info.value.epoch is None and info.value.bound is None

    def test_average_iterate_jensen(self):
        # F(average of iterates) <= average of F(iterates) + 1e-10.
        p = random_ridge(50, 4, seed=5)
        cfg = config_for(p, 50, seed=3)
        trace = run_sgd(p, cfg, collect_iterates=True)
        for t in (1, 10, 50):
            avg = trace.iterates[:t].mean(axis=0)
            f_avg = p.full_objective(avg)
            mean_f = np.mean([p.full_objective(w) for w in trace.iterates[:t]])
            assert f_avg <= mean_f + 1e-10

    def test_suffix_averaging_window(self):
        # suffix mode reports the mean of the last ceil(t/2) iterates
        p = random_ridge(30, 3, seed=21, alpha=0.2)
        cfg = config_for(p, 12, seed=6)
        suffix_cfg = SGDConfig(
            n_steps=12, step_rule=cfg.step_rule, radius=cfg.radius,
            sampler=cfg.sampler, averaging="suffix_half", seed=6,
        )
        plain = run_sgd(p, cfg, collect_iterates=True)
        suffix = run_sgd(p, suffix_cfg)
        for t in (1, 2, 5, 12):
            window = (t + 1) // 2
            manual = plain.iterates[t - window : t].mean(axis=0)
            assert suffix.suboptimality[t - 1] == pytest.approx(
                p.suboptimality(manual), rel=1e-12, abs=1e-15
            )
        assert np.allclose(
            suffix.average_iterate, plain.iterates[6:].mean(axis=0), atol=1e-12
        )

    def test_regret_measurement(self, unit_axes_problem):
        p = unit_axes_problem
        cfg = SGDConfig(n_steps=2, step_rule=StronglyConvexStep(1.0), radius=2.0)
        trace = run_sgd(p, cfg, sigma=[0, 1], collect_iterates=True)
        expected = sum(
            p.point_loss(i, trace.iterates[t]) - p.point_loss(i, p.wstar)
            for t, i in enumerate([0, 1])
        )
        assert trace.regret == pytest.approx(expected, abs=1e-12)


class TestSeedAveraging:
    def test_mean_decreases_with_replacement(self):
        p = random_ridge(300, 4, seed=6, alpha=0.3)
        cfg = config_for(p, 300, sampler="with_replacement", seed=1)
        summary = average_suboptimality_over_seeds(p, cfg, n_seeds=30)
        early = summary.mean[9]
        late = summary.mean[-1]
        se = np.hypot(summary.stderr[9], summary.stderr[-1])
        assert late <= early + 2 * se
        assert late < early

    def test_single_seed_has_no_stderr(self):
        p = random_ridge(20, 2, seed=7)
        summary = average_suboptimality_over_seeds(p, config_for(p, 10), n_seeds=1)
        assert summary.stderr is None
        assert summary.n_seeds == 1

    def test_without_replacement_comparable_at_full_pass(self):
        # Within a factor of 3 of the with-replacement mean at T = m.
        p = random_ridge(400, 4, seed=9, alpha=0.25)
        T = 400
        wor = average_suboptimality_over_seeds(
            p, config_for(p, T, sampler="single_shuffle", seed=2), n_seeds=40
        )
        wr = average_suboptimality_over_seeds(
            p, config_for(p, T, sampler="with_replacement", seed=2), n_seeds=40
        )
        assert wor.mean[-1] <= 3.0 * wr.mean[-1]

    def test_rate_slope_small_benchmark(self):
        p = random_ridge(2048, 6, seed=10, alpha=0.1)
        cfg = config_for(p, 2048, seed=4)
        summary = average_suboptimality_over_seeds(p, cfg, n_seeds=40)
        grid = np.array([64, 256, 1024, 2048])
        slope = np.polyfit(np.log10(grid), np.log10(summary.mean[grid - 1]), 1)[0]
        assert slope <= -0.8

    def test_inverse_sqrt_rate_on_absolute_loss(self):
        data = random_dataset(2048, 6, seed=11, label_scale=0.9)
        p = LipschitzLinearProblem(data, "absolute", radius=4.0, alpha=0.01)
        cfg = SGDConfig(
            n_steps=2048,
            step_rule=InverseSqrtStep(1.0),
            radius=4.0,
            sampler="single_shuffle",
            seed=5,
        )
        summary = average_suboptimality_over_seeds(p, cfg, n_seeds=25)
        grid = np.array([64, 256, 1024, 2048])
        slope = np.polyfit(np.log10(grid), np.log10(summary.mean[grid - 1]), 1)[0]
        assert slope <= -0.4


class TestDecomposition:
    def test_identity_on_random_instances(self):
        # Exact equality (to enumeration rounding) on 20 random problems.
        for trial in range(20):
            m = 3 + trial % 3
            p = random_ridge(m, 2, seed=trial, alpha=0.2 + 0.1 * (trial % 2))
            T = 1 + trial % m
            cfg = config_for(p, T)
            res = suboptimality_decomposition_check(p, cfg)
            assert res.lhs == pytest.approx(
                res.regret_term + res.prefix_suffix_term, abs=1e-10
            )

    def test_t1_prefix_suffix_term_zero(self):
        p = random_ridge(5, 2, seed=30)
        res = suboptimality_decomposition_check(p, config_for(p, 1))
        assert res.prefix_suffix_term == 0.0

    def test_constant_losses_vanish(self):
        # All-zero features and labels with no regularizer: every f_i = 0.
        data = Dataset(X=np.zeros((4, 2)), y=np.zeros(4))
        p = RidgeProblem(data, alpha=0.0)
        cfg = SGDConfig(n_steps=3, step_rule=FixedStep(0.5), radius=1.0)
        res = suboptimality_decomposition_check(p, cfg, wstar=np.zeros(2))
        assert res.lhs == pytest.approx(0.0, abs=1e-15)
        assert res.regret_term == pytest.approx(0.0, abs=1e-15)
        assert res.prefix_suffix_term == pytest.approx(0.0, abs=1e-15)

    def test_guard_on_large_m(self):
        p = random_ridge(8, 2, seed=31)
        with pytest.raises(InvalidParameter):
            suboptimality_decomposition_check(p, config_for(p, 2))

    def test_absolute_loss_identity(self):
        data = random_dataset(4, 2, seed=32, label_scale=0.8)
        p = LipschitzLinearProblem(data, "absolute", radius=6.0, alpha=0.05)
        cfg = SGDConfig(
            n_steps=3, step_rule=InverseSqrtStep(0.5), radius=6.0, seed=0
        )
        res = suboptimality_decomposition_check(p, cfg)
        assert res.lhs == pytest.approx(
            res.regret_term + res.prefix_suffix_term, abs=1e-10
        )


# --- the seed-batched engine ---------------------------------------------


def tiny_budget(config, d, collect_iterates, streams):
    """A chunk budget that holds exactly ``streams`` streams of this shape."""
    return streams * sgd_module._stream_bytes(config, d, collect_iterates)


@functools.lru_cache(maxsize=None)
def engine_problem(kind, d):
    data = random_dataset(300, d, seed=40 + d, label_scale=0.8)
    if kind == "ridge":
        return RidgeProblem(data, alpha=0.1)
    return LipschitzLinearProblem(data, kind, radius=1.0, alpha=0.05)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["ridge", "squared", "absolute", "hinge"]),
    sampler=st.sampled_from(["single_shuffle", "with_replacement", "reshuffle_each_epoch"]),
    averaging=st.sampled_from(["all", "suffix_half"]),
    d=st.integers(1, 5),
    T=st.integers(1, 2 * EVAL_BLOCK + 7),
    B=st.integers(1, 7),
    cap=st.integers(1, 3),
    collect=st.booleans(),
    given_reference=st.booleans(),
    eta=st.floats(0.05, 4.0),
    seed=st.integers(0, 2**32),
)
@example(kind="hinge", sampler="single_shuffle", averaging="suffix_half", d=3,
         T=EVAL_BLOCK + 1, B=7, cap=2, collect=True, given_reference=True, eta=2.0, seed=1)
def test_batch_rows_match_one_stream_runs(kind, sampler, averaging, d, T, B, cap, collect,
                                          given_reference, eta, seed):
    """Row b of a batch has the bits of run_sgd on stream b, also across chunks."""
    p = engine_problem(kind, d)
    if sampler == "single_shuffle":
        T = min(T, p.m)
    # the kinked losses always get a comparator, which skips their ADMM reference solve
    reference = np.full(d, 0.02) if given_reference or kind in ("absolute", "hinge") else None
    radius = 0.3 if reference is not None else 1.05 * float(np.linalg.norm(p.wstar)) + 1e-3
    rule = FixedStep(eta) if seed % 2 else InverseSqrtStep(eta)
    cfg = SGDConfig(n_steps=T, step_rule=rule, radius=radius, sampler=sampler,
                    averaging=averaging, seed=seed)

    def rows(k):
        return schedule(cfg.sampler, p.m, 1, cfg.n_steps, Rng(cfg.seed, k), p.m)[0]

    budget = tiny_budget(cfg, d, collect, cap)
    with mock.patch.object(sgd_module, "STREAM_CHUNK_BYTES", budget):
        batch = list(sgd_module._traces(p, cfg, rows, B, collect, reference))
    assert len(batch) == B
    for k, got in enumerate(batch):
        solo = run_sgd(p, replace(cfg, stream=k), collect_iterates=collect, reference=reference)
        assert np.array_equal(got.suboptimality, solo.suboptimality)
        assert np.array_equal(got.average_iterate, solo.average_iterate)
        assert got.regret == solo.regret
        assert got.gradient_evals == solo.gradient_evals == T
        if collect:
            assert np.array_equal(got.iterates, solo.iterates)
        else:
            assert got.iterates is None and solo.iterates is None


def test_projection_fires_in_engine_runs():
    """At the radius the batch test gives a comparator (0.3), most steps project."""
    p = engine_problem("absolute", 3)
    cfg = SGDConfig(n_steps=300, step_rule=FixedStep(2.0), radius=0.3)
    trace = run_sgd(p, cfg, collect_iterates=True, reference=np.full(3, 0.02))
    on_sphere = np.isclose(np.linalg.norm(trace.iterates[1:], axis=1), 0.3, rtol=1e-12)
    assert on_sphere.mean() > 0.5


def blow_up_problem():
    """Point 0 never moves the iterate; point 1 multiplies it by ~1e20."""
    data = Dataset(X=np.array([[0.0, 0.0], [1.0, 0.0]]), y=np.array([0.0, 1.0]))
    cfg = SGDConfig(n_steps=60, step_rule=FixedStep(1e20), radius=math.inf)
    return RidgeProblem(data, alpha=0.0), cfg, np.zeros(2)


def first_sequential_error(problem, cfg, sigmas, reference):
    """The DivergenceError a loop of one-stream runs raises first."""
    for sigma in sigmas:
        try:
            with np.errstate(all="ignore"):
                run_sgd(problem, cfg, sigma=sigma, reference=reference)
        except DivergenceError as err:
            return err
    return None


def batch_error(problem, cfg, rows, n, reference):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as info:
            list(sgd_module._traces(problem, cfg, rows, n, reference=reference))
    return info.value


@pytest.mark.parametrize("cap", [1, 2, 4])
def test_batch_raises_lowest_diverging_stream(cap):
    p, cfg, ref = blow_up_problem()
    quiet = np.zeros(60, dtype=np.int64)
    late = quiet.copy()
    late[30:] = 1  # diverges around step 38
    early = quiet.copy()
    early[2:] = 1  # diverges around step 10
    sigmas = [quiet, late, early, quiet]
    expected = first_sequential_error(p, cfg, sigmas, ref)
    assert expected is not None and expected.step > 30
    assert first_sequential_error(p, cfg, [early], ref).step < expected.step
    with mock.patch.object(sgd_module, "STREAM_CHUNK_BYTES", tiny_budget(cfg, 2, False, cap)):
        got = batch_error(p, cfg, lambda k: sigmas[k], len(sigmas), ref)
    assert str(got) == str(expected)
    assert got.step == expected.step
    assert (got.epoch, got.value, got.bound) == (None, None, None)


@pytest.mark.parametrize("seed", range(6))
def test_seed_average_raises_the_sequential_error(seed):
    # One loud point among 40 multiplies the iterate by ~1e12 and a stream
    # diverges once it has drawn it about 13 times; the quiet points
    # contract the second coordinate and keep the Hessian nonsingular.
    X = np.zeros((40, 2))
    X[:, 1] = 1.2e-6
    X[7] = [1.0, 0.0]
    y = np.zeros(40)
    y[7] = 1.0
    p = RidgeProblem(Dataset(X=X, y=y), alpha=0.0)
    cfg = SGDConfig(n_steps=450, step_rule=FixedStep(1e12), radius=math.inf,
                    sampler="with_replacement", seed=seed)
    n = 12
    sigmas = [schedule(cfg.sampler, p.m, 1, cfg.n_steps, Rng(cfg.seed, k), p.m)[0]
              for k in range(n)]
    expected = first_sequential_error(p, cfg, sigmas, None)
    # The surviving streams' iterates reach ~1e150, so the across-seed
    # variance overflows whatever runs the streams; only the error is compared.
    with np.errstate(over="ignore"), mock.patch.object(
        sgd_module, "STREAM_CHUNK_BYTES", tiny_budget(cfg, 2, False, 5)
    ):
        if expected is None:
            average_suboptimality_over_seeds(p, cfg, n)
            return
        with pytest.raises(DivergenceError) as info:
            average_suboptimality_over_seeds(p, cfg, n)
    assert str(info.value) == str(expected)
    assert info.value.step == expected.step


def test_suffix_batch_memory_stays_within_budget():
    """Streams above the chunk cap run in chunks: the peak stays under the
    fixed budget, far below what one batch of every stream would take."""
    p = random_ridge(100, 200, seed=41)
    cfg = SGDConfig(n_steps=1000, step_rule=StronglyConvexStep(p.strong_convexity),
                    radius=2.0, sampler="with_replacement", averaging="suffix_half")
    n_seeds = 48
    per_stream = sgd_module._stream_bytes(cfg, p.d, False)
    assert n_seeds * (cfg.n_steps + 1) * p.d * 8 > 2 * sgd_module.STREAM_CHUNK_BYTES
    assert sgd_module.STREAM_CHUNK_BYTES // per_stream < n_seeds
    p.wstar  # the reference solve is not part of the run
    tracemalloc.start()
    try:
        average_suboptimality_over_seeds(p, cfg, n_seeds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= sgd_module.STREAM_CHUNK_BYTES


# (EVAL_BLOCK, LIST_TEST_ROWS): block sizes, and the projection test on
# Python floats (3 streams <= 32) or by the ufunc reduce (3 > 0).
ENGINE_SETTINGS = [(256, 32), (1, 32), (7, 0), (256, 0)]


@pytest.mark.parametrize("averaging", ["all", "suffix_half"])
@pytest.mark.parametrize("kind", ["ridge", "absolute", "hinge"])
def test_block_size_keeps_every_bit(kind, averaging):
    """The running sum and the last iterate carried from block to block:
    blocks of 1, 7 and 256 steps, and either projection test, give the
    same bits."""
    p = engine_problem(kind, 3)
    reference = None if kind == "ridge" else np.full(3, 0.02)
    radius = 0.3 if reference is not None else 1.05 * float(np.linalg.norm(p.wstar)) + 1e-3
    cfg = SGDConfig(n_steps=300, step_rule=InverseSqrtStep(1.0), radius=radius,
                    sampler="with_replacement", averaging=averaging, seed=3)

    def rows(k):
        return schedule(cfg.sampler, p.m, 1, cfg.n_steps, Rng(cfg.seed, k), p.m)[0]

    runs = []
    for block, list_rows in ENGINE_SETTINGS:
        with mock.patch.multiple(sgd_module, EVAL_BLOCK=block, LIST_TEST_ROWS=list_rows):
            runs.append(list(sgd_module._traces(p, cfg, rows, 3, True, reference)))
    for run in runs[1:]:
        for got, want in zip(run, runs[0], strict=True):
            assert np.array_equal(got.suboptimality, want.suboptimality)
            assert np.array_equal(got.average_iterate, want.average_iterate)
            assert got.regret == want.regret
            assert np.array_equal(got.iterates, want.iterates)


def test_block_size_keeps_the_divergence_step():
    p, cfg, ref = blow_up_problem()
    cfg = replace(cfg, n_steps=300)
    sigma = np.zeros(300, dtype=np.int64)
    sigma[260:] = 1  # non-finite in the second block of 256 steps
    errors = set()
    for block, list_rows in ENGINE_SETTINGS:
        with mock.patch.multiple(sgd_module, EVAL_BLOCK=block, LIST_TEST_ROWS=list_rows):
            with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
                run_sgd(p, cfg, sigma=sigma, reference=ref)
        errors.add((str(info.value), info.value.step))
    assert len(errors) == 1
    (_, step), = errors
    assert 260 < step < 300


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8, 9, 16, 20, 33, 64])
def test_vecdot_rows_match_one_dimensional_dots(d):
    """The engine's row dots have the bytes of the 1-D ``x_i @ w``, also
    when written into a row or a strided column of a larger buffer."""
    rng = Rng(60, d)
    for B in (1, 2, 3, 8, 57, 300):
        scale = np.exp(20.0 * (rng.uniform(B) - 0.5))[:, None]
        X = scale * rng.normal(B * d).reshape(B, d)
        w = rng.normal(B * d).reshape(B, d)
        dots = np.array([X[b] @ w[b] for b in range(B)])
        squares = np.array([w[b] @ w[b] for b in range(B)])
        for out in (np.empty((2, B))[1], np.empty((B, 2))[:, 0]):
            np.vecdot(X, w, out=out)
            assert out.tobytes() == dots.tobytes()
            np.vecdot(w, w, out=out)
            assert out.tobytes() == squares.tobytes()
