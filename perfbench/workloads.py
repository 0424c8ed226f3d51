"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed (``setup``), runs
one round of Monte-Carlo trials through the library's public API
(``run_round``; this is what the benchmark times), and checks the round's
outputs afterwards (``check_round``).  A trial is one seed's complete
run.  Trials that raise a library error fail; when an aggregate gate of
an experiment call fails, every trial of that call fails.

Seeds: the dataset uses ``GenSpec(seed=seed)``; round r uses the config
seed ``seed + (r + 1) * 2**32``, so rounds draw fresh trials, never share
a generator stream with the dataset, and repeat exactly for a given seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

import gates


def round_seed(seed: int, r: int) -> int:
    return seed + (r + 1) * 2**32


@dataclass
class Call:
    """One experiment call: how many trials it ran, and its output or error."""

    trials: int
    output: object = None
    error: Exception | None = None


@dataclass
class Verdict:
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)


def attempt(sg, trials: int, fn, *args, **kwargs) -> Call:
    try:
        return Call(trials, output=fn(*args, **kwargs))
    except sg.ShufflegradError as exc:
        return Call(trials, error=exc)


class Workload:
    name = ""
    trials_per_round = 1
    # Weights of the host-speed probe kernels (see hostspeed.py), after
    # the resources a trial spends its time on.
    probe_mix = {"loop": 1.0}

    def __init__(self, sg, scratch_dir: str):
        self.sg = sg
        self.scratch_dir = scratch_dir

    def setup(self, seed: int, tracer):
        raise NotImplementedError

    def setup_problems(self, state) -> list[str]:
        """Correctness checks on the set-up outputs (outside the timing)."""
        return []

    def run_round(self, state, config_seed: int) -> list[Call]:
        raise NotImplementedError

    def check_round(self, state, calls: list[Call]) -> Verdict:
        raise NotImplementedError

    def final_problems(self, state, seed: int) -> list[str]:
        """Checks run once per run, outside the timed section."""
        return []

    def _ridge(self, data, alpha: float, tracer):
        """RidgeProblem with its strong convexity and exact minimizer computed."""
        sg = self.sg
        with tracer.span("problem.build"):
            problem = sg.RidgeProblem(data, alpha=alpha)
            problem.strong_convexity
        with tracer.span("problem.reference"):
            problem.wstar, problem.fstar
        return problem


def _failed_calls(calls: list[Call], verdict: Verdict, problems: list[str], call_ids) -> None:
    if problems:
        verdict.problems += problems
        verdict.failed += sum(calls[i].trials for i in call_ids)


def _errors(calls: list[Call], verdict: Verdict) -> bool:
    bad = [c for c in calls if c.error is not None]
    for c in bad:
        verdict.problems.append(f"{type(c.error).__name__}: {c.error}")
    verdict.failed += sum(c.trials for c in bad)
    return bool(bad)


@dataclass
class RidgeSgdState:
    problem: object
    generated: object
    loaded: object
    rule: object
    radius: float


class SgdRidge(Workload):
    """Criterion 4's data with a text round trip; full single-shuffle and
    with-replacement passes of strongly convex SGD."""

    name = "sgd_ridge"
    per_sampler = 3
    trials_per_round = 2 * per_sampler
    samplers = ("single_shuffle", "with_replacement")

    def setup(self, seed, tracer):
        sg = self.sg
        spec = sg.GenSpec(m=10_000, d=20, spectrum="geometric", decay=0.5,
                          noise=0.1, seed=seed)
        generated = sg.generate(spec)
        path = os.path.join(self.scratch_dir, f"sgd_ridge-{os.getpid()}.txt")
        try:
            sg.save(generated, path)
            loaded = sg.load(path)
        finally:
            os.remove(path)
        problem = self._ridge(loaded, 0.1, tracer)
        radius = 2.0 * max(1.0, float(np.linalg.norm(problem.wstar)))
        return RidgeSgdState(problem, generated, loaded,
                             sg.StronglyConvexStep(problem.strong_convexity), radius)

    def setup_problems(self, state):
        return gates.same_dataset(state.generated, state.loaded)

    def run_round(self, state, config_seed):
        sg = self.sg
        calls = []
        for sampler in self.samplers:
            config = sg.SGDConfig(n_steps=state.problem.m, step_rule=state.rule,
                                  radius=state.radius, sampler=sampler, seed=config_seed)
            calls.append(attempt(sg, self.per_sampler, sg.average_suboptimality_over_seeds,
                                 state.problem, config, self.per_sampler))
        return calls

    def check_round(self, state, calls):
        v = Verdict()
        if _errors(calls, v):
            return v
        steps = sum(c.output.mean.size * c.output.n_seeds for c in calls)
        v.counts["sgd.steps"] = steps
        problems = gates.count_gate("sgd steps", steps,
                                    state.problem.m * self.trials_per_round)
        problems += gates.ridge_rate_gate(calls[0].output.mean, calls[1].output.mean)
        _failed_calls(calls, v, problems, range(len(calls)))
        return v


@dataclass
class SvrgState:
    problem: object
    log_bound: float


class SvrgLong(Workload):
    """Criterion 5's problem and parameters: T=1800, S=13, one shuffle."""

    name = "svrg_long"
    trials_per_round = 1
    probe_mix = {"loop": 0.5, "stream": 0.5}
    eta, epoch_len, n_epochs = 0.1, 1800, 13

    def setup(self, seed, tracer):
        spec = self.sg.GenSpec(m=100_000, d=20, spectrum="geometric", decay=0.45,
                               noise=0.1, seed=seed)
        problem = self._ridge(self.sg.generate(spec), 0.05, tracer)
        bound = self.sg.log_suboptimality_bound(self.epoch_len, self.n_epochs,
                                                problem.strong_convexity)
        return SvrgState(problem, bound)

    def run_round(self, state, config_seed):
        sg = self.sg
        config = sg.SVRGConfig(step_size=self.eta, epoch_len=self.epoch_len,
                               n_epochs=self.n_epochs, sampler="single_shuffle",
                               seed=config_seed)
        return [attempt(sg, self.trials_per_round, sg.run_svrg_over_streams,
                        state.problem, config, self.trials_per_round)]

    def check_round(self, state, calls):
        v = Verdict()
        if _errors(calls, v):
            return v
        traces = calls[0].output
        steps = sum(int(t.stochastic_grad_evals.sum()) for t in traces)
        anchors = sum(int(t.full_grad_point_evals.sum()) for t in traces)
        v.counts.update({"svrg.steps": steps, "svrg.anchor_point_evals": anchors})
        S, n = self.n_epochs, self.trials_per_round
        problems = gates.count_gate("svrg trials", len(traces), n)
        problems += gates.count_gate("svrg steps", steps, n * S * self.epoch_len)
        problems += gates.count_gate("svrg anchor point evals", anchors,
                                     n * S * state.problem.m)
        problems += gates.svrg_decrease_gate(traces, S)
        if problems:
            _failed_calls(calls, v, problems, [0])
            return v
        for trace in traces:
            bad = gates.svrg_bound_gate(trace, state.log_bound)
            v.problems += bad
            v.failed += bool(bad)
        return v


class DistShort(Workload):
    """The m=1e5 problem; short distributed runs, k=4, T=100, S=8, each
    trial on its own stream and so on a fresh random partition."""

    name = "dist_short"
    trials_per_round = 2
    probe_mix = {"loop": 0.5, "stream": 0.5}
    k, eta, epoch_len, n_epochs = 4, 0.1, 100, 8

    def setup(self, seed, tracer):
        spec = self.sg.GenSpec(m=100_000, d=20, spectrum="geometric", decay=0.45,
                               noise=0.1, seed=seed)
        return self._ridge(self.sg.generate(spec), 0.05, tracer)

    def _config(self, config_seed, stream=0):
        return self.sg.SVRGConfig(step_size=self.eta, epoch_len=self.epoch_len,
                                  n_epochs=self.n_epochs, seed=config_seed, stream=stream)

    def run_round(self, problem, config_seed):
        sg = self.sg
        return [attempt(sg, 1, sg.run_distributed_svrg, problem, self.k,
                        self._config(config_seed, stream))
                for stream in range(self.trials_per_round)]

    def check_round(self, problem, calls):
        v = Verdict()
        totals = {"distributed.rounds": 0, "distributed.floats_moved": 0, "svrg.steps": 0}
        for call in calls:
            if _errors([call], v):
                continue
            trace, log = call.output
            steps = int(trace.stochastic_grad_evals.sum())
            totals["distributed.rounds"] += log.rounds
            totals["distributed.floats_moved"] += log.payload_floats
            totals["svrg.steps"] += steps
            bad = gates.comm_gate(log, self.k, problem.d, self.n_epochs)
            bad += gates.count_gate("distributed steps", steps,
                                    self.n_epochs * self.epoch_len)
            v.problems += bad
            v.failed += bool(bad)
        v.counts = totals
        return v

    def final_problems(self, problem, seed):
        """Criterion 7's match on one explicitly partitioned trial."""
        sg = self.sg
        config = self._config(round_seed(seed, 0))
        shards = sg.partition(problem.data, self.k, sg.Rng(config.seed, 7))
        dist_trace, log = sg.run_distributed_svrg(problem, self.k, config, shards=shards)
        solo = sg.run_svrg(problem, config, sigma=sg.matched_permutation(
            shards, self.epoch_len, self.n_epochs))
        return (gates.match_gate(dist_trace.suboptimality, solo.suboptimality)
                + gates.comm_gate(log, self.k, problem.d, self.n_epochs))


class SgdKinked(Workload):
    """Absolute loss on a ball: ADMM reference in set-up, single-shuffle
    1/sqrt(t) SGD with an O(md) objective evaluation per step."""

    name = "sgd_kinked"
    trials_per_round = 8
    radius = 4.0

    def setup(self, seed, tracer):
        sg = self.sg
        spec = sg.GenSpec(m=2000, d=20, spectrum="geometric", decay=0.7, noise=0.2,
                          signal_norm=0.8, seed=seed)
        data = sg.generate(spec)
        with tracer.span("problem.build"):
            problem = sg.LipschitzLinearProblem(data, "absolute", radius=self.radius,
                                                alpha=0.05)
        with tracer.span("problem.reference"):
            problem.wstar, problem.fstar
        return problem

    def run_round(self, problem, config_seed):
        sg = self.sg
        config = sg.SGDConfig(n_steps=problem.m, step_rule=sg.InverseSqrtStep(0.5),
                              radius=self.radius, sampler="single_shuffle", seed=config_seed)
        return [attempt(sg, self.trials_per_round, sg.average_suboptimality_over_seeds,
                        problem, config, self.trials_per_round)]

    def check_round(self, problem, calls):
        v = Verdict()
        if _errors(calls, v):
            return v
        summary = calls[0].output
        steps = summary.mean.size * summary.n_seeds
        v.counts["sgd.steps"] = steps
        problems = gates.count_gate("sgd steps", steps, problem.m * self.trials_per_round)
        problems += gates.kinked_rate_gate(summary.mean)
        _failed_calls(calls, v, problems, [0])
        return v


WORKLOADS = {w.name: w for w in (SgdRidge, SvrgLong, DistShort, SgdKinked)}
