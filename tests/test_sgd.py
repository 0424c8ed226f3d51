import functools
import itertools
import math
import sys
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
    GenSpec,
    InverseSqrtStep,
    LipschitzLinearProblem,
    RidgeProblem,
    SGDConfig,
    StronglyConvexStep,
    average_suboptimality_over_seeds,
    generate,
    run_sgd,
    suboptimality_decomposition_check,
)
from shufflegrad.errors import DivergenceError, InvalidParameter
from shufflegrad.rng import Rng
from shufflegrad.sampling import SAMPLER_KINDS, schedule
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
    total = np.zeros(d)  # running sum S_t = w_1 + ... + w_t
    subopt, regret = [], 0.0
    for t in range(1, T + 1):
        total = total + w
        avg = total / t
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
        r = config.step_rule.rate(t)
        w = ((1.0 - r * a) * w if a else w) - X[i] * (r * slope)
        norm = math.sqrt(w @ w)
        if norm > config.radius:
            w *= config.radius / norm
    return np.array(subopt), avg, float(regret)


def loud_case(kind, T, loud):
    """A run that projects at step ``loud`` and at no other step.

    The ball has radius 0.01.  The 120 quiet points have norm at most
    1e-4, so with eta_t = 0.5 / sqrt(t) the quiet steps keep the iterate
    within sqrt(T) * 1e-4 < 0.003 of the origin, and, since alpha * 0.01
    exceeds 1e-4 times any slope, strictly inside the ball once it is on
    the sphere.  From within 0.003 of the origin, the loud point e_1 with
    label 1 has a slope within 0.003 of -1 at every kind, so its step
    leaves the ball: 0.997 * 0.5 / sqrt(T) > 0.02 for T < 600.
    """
    data = random_dataset(120, 3, seed=T)
    data = Dataset(X=np.vstack([1e-4 * data.X, [1.0, 0.0, 0.0]]), y=np.append(data.y, 1.0))
    problem = (RidgeProblem(data, alpha=0.1) if kind == "ridge"
               else LipschitzLinearProblem(data, kind, radius=2.0, alpha=0.05))
    cfg = SGDConfig(n_steps=T, step_rule=InverseSqrtStep(0.5), radius=0.01)
    sigma = Rng(T, 1).below(np.full(T, 120, dtype=np.uint64))
    sigma[loud - 1] = 120
    return problem, cfg, sigma, np.full(3, 0.001)


# Past the plain runs, each case drives one path of the engine's ball test:
# the first projection in a block after a clean one, which the block test
# finds and the rest of the block replays from; a projection at a block's
# last step, whose replay is empty; and a radius of 1.0001 times the
# comparator's norm, where nearly every block projects.
ORACLE_CASES = [pytest.param(T, None, id=str(T)) for T in (1, 37, EVAL_BLOCK, 2 * EVAL_BLOCK + 37)]
ORACLE_CASES += [pytest.param(2 * EVAL_BLOCK + 37, EVAL_BLOCK + 44, id="replay"),
                 pytest.param(2 * EVAL_BLOCK + 37, 2 * EVAL_BLOCK, id="empty_replay"),
                 pytest.param(6 * EVAL_BLOCK + 37, "tight", id="tight")]


@pytest.mark.parametrize("T, path", ORACLE_CASES)
@pytest.mark.parametrize("kind", ["ridge", "absolute", "hinge"])
def test_run_matches_per_step_oracle(kind, T, path):
    if isinstance(path, int):
        problem, cfg, sigma, reference = loud_case(kind, T, path)
    else:
        data = random_dataset(120, 3, seed=T)
        if kind == "ridge":
            problem, reference = RidgeProblem(data, alpha=0.1), None
            rule = StronglyConvexStep(0.1)
        else:  # the comparator is given: no reference solve for the kinked losses
            problem = LipschitzLinearProblem(data, kind, radius=2.0, alpha=0.05)
            reference, rule = np.full(3, 0.1), InverseSqrtStep(0.5)
        comparator = problem.wstar if reference is None else reference
        radius = 1.0001 * float(np.linalg.norm(comparator)) if path == "tight" else 2.0
        cfg = SGDConfig(n_steps=T, step_rule=rule, radius=radius)
        sigma = Rng(T, 1).below(np.full(T, problem.m, dtype=np.uint64))
    # The slope writer runs once per step run, replayed steps included.
    slope_of = mock.Mock(wraps=sgd_module._SLOPES[problem.kind])
    with mock.patch.object(sgd_module, "_project", wraps=sgd_module._project) as project, \
            mock.patch.dict(sgd_module._SLOPES, {problem.kind: slope_of}):
        trace = run_sgd(problem, cfg, sigma=sigma, reference=reference)
    subopt, avg, regret = reference_sgd(problem, cfg, sigma, reference)
    assert np.array_equal(trace.suboptimality, subopt)
    assert np.array_equal(trace.average_iterate, avg)
    assert trace.regret == regret
    # the steps the engine projected, each once, and their blocks
    steps = [call.args[0] for call in project.call_args_list]
    blocks = [(t - 1) // EVAL_BLOCK for t in steps]
    if isinstance(path, int):
        # The only projection, in a block after a clean one: the block test
        # found it, and the steps after it in its block ran again.
        assert steps == [path] and blocks[0] >= 1
        assert slope_of.call_count == T + (blocks[0] + 1) * EVAL_BLOCK - path
    elif path == "tight":
        assert len(set(blocks)) >= 6  # of 7, so most blocks are tested per step


def test_given_reference_is_valued_by_full_objective():
    """F(reference) has the formula of F(avg_t), full_objective, not the
    mean of point_losses, which may differ in its last bits."""
    problem = LipschitzLinearProblem(random_dataset(400, 20, seed=3), "absolute",
                                     radius=2.0, alpha=0.05)
    candidates = 0.1 * Rng(3, 2).normal(20 * 20).reshape(20, 20)
    differs = [w for w in candidates
               if problem.full_objective(w) != np.add.reduce(problem.point_losses(w)) / problem.m]
    reference = (differs or candidates)[0]  # one where the formulas disagree, if any does
    T = 5
    cfg = SGDConfig(n_steps=T, step_rule=InverseSqrtStep(0.5), radius=2.0)
    trace = run_sgd(problem, cfg, sigma=np.arange(T), reference=reference,
                    collect_iterates=True)
    averages = np.cumsum(trace.iterates, axis=0) / np.arange(1, T + 1)[:, None]
    expected = problem.full_objective(averages) - problem.full_objective(reference)
    assert np.array_equal(trace.suboptimality, expected)


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

    # The reference solve's rule, ||w|| <= radius * (1 + 1e-9), at margins
    # where an absolute slack of 1e-9 decides the other way.
    @pytest.mark.parametrize("radius, norm, inside", [(4.0, 4.0 + 2e-9, True),
                                                      (0.5, 0.5 + 0.8e-9, False),
                                                      (4.0, math.nan, False)])
    def test_reference_inside_the_ball_by_the_solve_rule(self, radius, norm, inside):
        p = random_ridge(30, 3, seed=3)
        reference = np.array([0.0, norm, 0.0])
        cfg = config_for(p, 5, radius=radius)
        if inside:
            assert run_sgd(p, cfg, reference=reference).regret is not None
        else:
            with pytest.raises(InvalidParameter, match="excludes the minimizer"):
                run_sgd(p, cfg, reference=reference)

    def test_single_shuffle_requires_T_at_most_m(self):
        p = random_ridge(10, 2, seed=4)
        with pytest.raises(InvalidParameter):
            run_sgd(p, config_for(p, 11))

    def test_non_finite_iterate_reports_its_step(self):
        p = random_ridge(30, 3, seed=4)
        cfg = config_for(p, 10, rule=FixedStep(sys.float_info.max))  # ||w_1||^2 overflows
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


# Exact expectations at m = 6: every index sequence a sampler can draw is
# equally likely, so the mean trace over all of them, each run through the
# engine as an explicit row, is the expectation the seed average estimates.
EXACT_T = 6
EXACT_Z = 3.72  # two-sided, family-wise alpha = 1e-3, Bonferroni over t = 2..6
EXACT_STREAMS = 4000
EXACT_SEED = 0  # fixed before the first run


@functools.cache
def exact_expectation_setup(sampler):
    data = generate(GenSpec(m=6, d=3, spectrum="geometric", decay=0.7, noise=0.2, seed=11))
    problem = RidgeProblem(data, alpha=0.1)
    cfg = SGDConfig(n_steps=EXACT_T, step_rule=FixedStep(0.5), radius=1e3, sampler=sampler,
                    seed=EXACT_SEED)
    if sampler == "single_shuffle":
        rows = np.array(list(itertools.permutations(range(6))))  # 720 orders
    else:
        rows = np.array(list(itertools.product(range(6), repeat=EXACT_T)))  # 46,656 sequences
    exact = np.mean([trace.suboptimality for trace in run_sgd(problem, cfg, rows)], axis=0)
    return problem, cfg, exact


@pytest.mark.parametrize("sampler", ["single_shuffle", "with_replacement"])
def test_seed_average_centres_on_the_exact_expectation(sampler):
    problem, cfg, exact = exact_expectation_setup(sampler)
    summary = average_suboptimality_over_seeds(problem, cfg, n_seeds=EXACT_STREAMS)
    # Every stream starts at w_1 = 0, so t = 1 has no spread to test against.
    assert summary.mean[0] == pytest.approx(exact[0], rel=1e-12, abs=0)
    z = (summary.mean[1:] - exact[1:]) / summary.stderr[1:]
    assert np.all(np.abs(z) <= EXACT_Z), z


def test_exact_expectation_without_replacement_is_lower():
    _, _, without = exact_expectation_setup("single_shuffle")
    _, _, with_ = exact_expectation_setup("with_replacement")
    assert np.all(without[2:] <= with_[2:])
    assert without[-1] == pytest.approx(0.02448, abs=5e-6)
    assert with_[-1] == pytest.approx(0.02870, abs=5e-6)


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

    @pytest.mark.parametrize("T", [1, 2, 4])
    def test_terms_match_a_loop_over_permutations(self, T):
        # Each term against one run_sgd per permutation, with the regret
        # formed from point_losses rather than read from the engine.
        p = random_ridge(4, 2, seed=33, alpha=0.3)
        cfg = config_for(p, T)
        res = suboptimality_decomposition_check(p, cfg)
        ref = p.point_losses(p.wstar)
        sums = np.zeros(3)
        for sigma in itertools.permutations(range(4)):
            ws = run_sgd(p, cfg, sigma=sigma, collect_iterates=True).iterates
            losses = [p.point_losses(w) for w in ws]
            lhs = sum(f.mean() - ref.mean() for f in losses) / T
            regret = sum(losses[t][sigma[t]] - ref[sigma[t]] for t in range(T)) / T
            ps = sum((t - 1) * (f[list(sigma[: t - 1])].mean() - f[list(sigma[t - 1 :])].mean())
                     for t, f in zip(range(2, T + 1), losses[1:])) / (4 * T)
            sums += (lhs, regret, ps)
        got = (res.lhs, res.regret_term, res.prefix_suffix_term)
        assert got == pytest.approx(tuple(sums / 24), rel=1e-12, abs=1e-15)

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


def stream_rows(config, m, n, width=None):
    """The (n, width) index rows of streams 0..n-1 of ``config``, each drawn
    on its own stream, width ``n_steps`` by default."""
    return np.concatenate([schedule(config.sampler, m, 1, width or config.n_steps,
                                    Rng(config.seed, k)) for k in range(n)])


@functools.lru_cache(maxsize=None)
def engine_problem(kind, d):
    data = random_dataset(300, d, seed=40 + d, label_scale=0.8)
    if kind == "ridge":
        return RidgeProblem(data, alpha=0.1)
    return LipschitzLinearProblem(data, kind, radius=1.0, alpha=0.05)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["ridge", "absolute", "hinge"]),
    sampler=st.sampled_from(["single_shuffle", "with_replacement", "reshuffle_each_epoch"]),
    d=st.integers(1, 5),
    T=st.integers(1, 2 * EVAL_BLOCK + 7),
    B=st.integers(1, 7),
    cap=st.integers(1, 3),
    collect=st.booleans(),
    given_reference=st.booleans(),
    eta=st.floats(0.05, 4.0),
    seed=st.integers(0, 2**32),
)
@example(kind="hinge", sampler="single_shuffle", d=3,
         T=EVAL_BLOCK + 1, B=7, cap=2, collect=True, given_reference=True, eta=2.0, seed=1)
# 40 streams in one batch; at some steps only rows above 32 leave the ball
@example(kind="ridge", sampler="with_replacement", d=3,
         T=EVAL_BLOCK + 3, B=40, cap=40, collect=False, given_reference=False, eta=0.5, seed=2)
def test_batch_rows_match_one_stream_runs(kind, sampler, d, T, B, cap, collect,
                                          given_reference, eta, seed):
    """Row b of a batch has the bits of run_sgd on stream b, also across chunks."""
    p = engine_problem(kind, d)
    if sampler == "single_shuffle":
        T = min(T, p.m)
    # the kinked losses always get a comparator, which skips their ADMM reference solve
    reference = np.full(d, 0.02) if given_reference or kind in ("absolute", "hinge") else None
    radius = 0.3 if reference is not None else 1.05 * float(np.linalg.norm(p.wstar)) + 1e-3
    rule = FixedStep(eta) if seed % 2 else InverseSqrtStep(eta)
    cfg = SGDConfig(n_steps=T, step_rule=rule, radius=radius, sampler=sampler, seed=seed)
    rows = stream_rows(cfg, p.m, B)
    budget = tiny_budget(cfg, d, collect, cap)
    with mock.patch.object(sgd_module, "STREAM_CHUNK_BYTES", budget):
        batch = run_sgd(p, cfg, rows, collect_iterates=collect, reference=reference)
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


def batch_error(problem, cfg, sigmas, reference, collect_iterates=False):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as info:
            run_sgd(problem, cfg, np.array(sigmas), collect_iterates, reference)
    return info.value


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["ridge", "absolute", "hinge", "blow_up"]),
    sampler=st.sampled_from(SAMPLER_KINDS),
    T=st.integers(1, 2 * EVAL_BLOCK + 7),
    extra=st.integers(0, 2),
    n=st.integers(1, 7),
    cap=st.integers(1, 3),
    collect=st.booleans(),
    given_reference=st.booleans(),
    seed=st.integers(0, 2**32),
)
# rows 3, 4 and 5 of 7 diverge, at steps 18, 17 and 9; chunks of 2 rows
@example(kind="blow_up", sampler="with_replacement", T=20, extra=1, n=7, cap=2,
         collect=True, given_reference=True, seed=212)
def test_two_dimensional_sigma_runs_each_row_alone(kind, sampler, T, extra, n, cap, collect,
                                                   given_reference, seed):
    """Row k of a 2-D sigma has the bytes of run_sgd on row k alone, its
    entries past n_steps unread; if rows diverge, the call raises the
    error a loop over the rows raises first."""
    if kind == "blow_up":
        p, cfg, reference = blow_up_problem()
    else:
        p = engine_problem(kind, 3)
        reference = np.full(3, 0.02) if given_reference or kind != "ridge" else None
        radius = 0.3 if reference is not None else 1.05 * float(np.linalg.norm(p.wstar)) + 1e-3
        cfg = SGDConfig(n_steps=1, step_rule=InverseSqrtStep(1.0), radius=radius)
    width = T + extra if sampler != "single_shuffle" else min(T + extra, p.m)
    cfg = replace(cfg, n_steps=min(T, width), sampler=sampler, seed=seed)
    rows = stream_rows(cfg, p.m, n, width)
    solo, expected = [], None
    with np.errstate(all="ignore"):
        for row in rows:
            try:
                solo.append(run_sgd(p, cfg, row, collect, reference))
            except DivergenceError as err:
                expected = err
                break
    with mock.patch.object(sgd_module, "STREAM_CHUNK_BYTES",
                           tiny_budget(cfg, p.d, collect, cap)):
        if expected is not None:
            got = batch_error(p, cfg, rows, reference, collect)
            assert (str(got), got.step) == (str(expected), expected.step)
            return
        batch = run_sgd(p, cfg, rows, collect, reference)
    assert len(batch) == n
    for got, want in zip(batch, solo, strict=True):
        assert got.suboptimality.tobytes() == want.suboptimality.tobytes()
        assert got.average_iterate.tobytes() == want.average_iterate.tobytes()
        assert np.float64(got.regret).tobytes() == np.float64(want.regret).tobytes()
        assert got.gradient_evals == want.gradient_evals == cfg.n_steps
        if collect:
            assert got.iterates.tobytes() == want.iterates.tobytes()
        else:
            assert got.iterates is None and want.iterates is None


@pytest.mark.parametrize("cap", [1, 2, 4])
def test_batch_raises_lowest_diverging_stream(cap):
    p, cfg, ref = blow_up_problem()
    quiet = np.zeros(60, dtype=np.int64)
    late = quiet.copy()
    late[30:] = 1  # diverges around step 38
    early = quiet.copy()
    early[2:] = 1  # diverges around step 10
    assert first_sequential_error(p, cfg, [early], ref).step < 30
    # 4 streams in chunks of cap; 40 in chunks of 10 * cap, one batch at
    # cap 4 with the diverging streams at rows 33 and 35.
    for sigmas, streams in (([quiet, late, early, quiet], cap),
                            ([quiet] * 33 + [late, quiet, early] + [quiet] * 4, 10 * cap)):
        expected = first_sequential_error(p, cfg, sigmas, ref)
        assert expected is not None and expected.step > 30
        budget = tiny_budget(cfg, 2, False, streams)
        with mock.patch.object(sgd_module, "STREAM_CHUNK_BYTES", budget):
            got = batch_error(p, cfg, sigmas, ref)
        assert str(got) == str(expected)
        assert got.step == expected.step
        assert (got.epoch, got.value, got.bound) == (None, None, None)


@pytest.mark.parametrize("overflow, point", [(2 * EVAL_BLOCK + 20, 3), (2 * EVAL_BLOCK + 5, 3),
                                             (2 * EVAL_BLOCK + 5, 4)])
def test_overflow_in_an_untested_block_raises_the_sequential_error(overflow, point):
    """In the third block, untested after a clean second one, row 1
    projects at step 2 EVAL_BLOCK + 10 and row 2's norm becomes infinite or
    NaN before or after it: the block test finds the first of the two, the
    replay the other, and the call raises row 2's error, the one a loop
    over the rows raises."""
    # With eta = 1.5e308, point 0 never moves the iterate; from the origin,
    # point 1 steps to (0, 1.5e108) and point 2 to (-1.5e108, 0), both
    # projected; from (-1, 0), point 3 steps to (7.5e307, 0), whose squared
    # norm overflows, and point 4 to (inf, nan), as eta_t s_t overflows.
    data = Dataset(X=np.array([[0.0, 0.0], [0.0, 1e-200], [1e-200, 0.0], [0.5, 0.0], [1.0, 0.0]]),
                   y=np.array([0.0, 1.0, -1.0, 0.5, 1.0]))
    p = RidgeProblem(data, alpha=0.0)
    cfg = SGDConfig(n_steps=3 * EVAL_BLOCK, step_rule=FixedStep(1.5e308), radius=1.0)
    quiet = np.zeros(3 * EVAL_BLOCK, dtype=np.int64)
    projects, overflows = quiet.copy(), quiet.copy()
    projects[2 * EVAL_BLOCK + 9] = 1
    overflows[4] = 2
    overflows[overflow - 1] = point
    sigmas = [quiet, projects, overflows]
    ref = np.zeros(2)
    expected = first_sequential_error(p, cfg, sigmas, ref)
    assert expected.step == overflow
    with mock.patch.object(sgd_module, "_project", wraps=sgd_module._project) as project:
        got = batch_error(p, cfg, sigmas, ref)
    assert (str(got), got.step) == (str(expected), expected.step)
    # block 1's projection, then the block test's find in block 3, then the
    # replay's (a NaN row fails every later step's test)
    steps = [call.args[0] for call in project.call_args_list]
    assert steps[:2] == [5, min(overflow, 2 * EVAL_BLOCK + 10)]
    assert {2 * EVAL_BLOCK + 10, overflow} <= set(steps)


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
    sigmas = [schedule(cfg.sampler, p.m, 1, cfg.n_steps, Rng(cfg.seed, k))[0]
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


def test_batch_memory_stays_within_budget():
    """Streams above the chunk cap run in chunks: the peak stays under the
    fixed budget, far below what one batch of every stream would take."""
    p = random_ridge(100, 200, seed=41)
    cfg = SGDConfig(n_steps=1000, step_rule=StronglyConvexStep(p.strong_convexity),
                    radius=2.0, sampler="with_replacement")
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


BLOCK_SIZES = [256, 1, 7]


@pytest.mark.parametrize("kind", ["ridge", "absolute", "hinge"])
def test_block_size_keeps_every_bit(kind):
    """The running sum and the last iterate carried from block to block:
    blocks of 1, 7 and 256 steps give the same bits."""
    p = engine_problem(kind, 3)
    reference = None if kind == "ridge" else np.full(3, 0.02)
    radius = 0.3 if reference is not None else 1.05 * float(np.linalg.norm(p.wstar)) + 1e-3
    cfg = SGDConfig(n_steps=300, step_rule=InverseSqrtStep(1.0), radius=radius,
                    sampler="with_replacement", seed=3)
    rows = stream_rows(cfg, p.m, 3)
    runs = []
    for block in BLOCK_SIZES:
        with mock.patch.object(sgd_module, "EVAL_BLOCK", block):
            runs.append(run_sgd(p, cfg, rows, collect_iterates=True, reference=reference))
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
    for block in BLOCK_SIZES:
        with mock.patch.object(sgd_module, "EVAL_BLOCK", block):
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
        # The engine's merged call: plane 0 of a (2, K+2, B, d) buffer holds
        # the points, plane 1 the iterates; row j gives both dots at once.
        buf = np.zeros((2, 5, B, d))
        buf[0, 3], buf[1, 3] = X, w
        zs = np.zeros((2, 5, B))
        np.vecdot(buf[:, 3], buf[1, 3], out=zs[:, 3])
        assert zs[0, 3].tobytes() == dots.tobytes()
        assert zs[1, 3].tobytes() == squares.tobytes()
        rows = np.arange(0, B, 2)  # the recomputed pairs of projected rows
        assert np.vecdot(buf[:, 3][:, rows], buf[1, 3][rows]).tobytes() == \
            np.stack([dots[rows], squares[rows]]).tobytes()


NEAR_2_40 = [2**40 - 1, 2**40, 2**40 + 1, 2**40 + 3**20]


@pytest.mark.parametrize("rule", [StronglyConvexStep(0.1), StronglyConvexStep(3.7e-5),
                                  InverseSqrtStep(0.3), InverseSqrtStep(7.0), FixedStep(0.05)])
def test_rate_table_has_the_bits_of_per_step_calls(rule):
    """The engine's one array call of ``rate`` equals the calls at each t."""
    for steps in (range(1, 10**5 + 1), NEAR_2_40):
        table = rule.rate(np.array(steps, dtype=np.float64))
        table = np.broadcast_to(table, (len(steps),))  # FixedStep returns its scalar
        calls = np.array([rule.rate(t) for t in steps], dtype=np.float64)
        assert table.tobytes() == calls.tobytes()
