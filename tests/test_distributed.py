import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflegrad import (
    CommLog,
    Dataset,
    RidgeProblem,
    Rng,
    SVRGConfig,
    matched_permutation,
    partition,
    run_distributed_svrg,
    run_svrg,
)
from shufflegrad import distributed
from shufflegrad.distributed import AUX_STREAM_BIT, BROADCAST, REDUCE
from shufflegrad.problem import _gram_form
from shufflegrad.errors import BatchesExhausted, DivergenceError, IndexOutOfRange, InvalidParameter
from conftest import fsum_row_mean, random_dataset, random_ridge


def batch_rows(shards, epoch_len, n_epochs):
    """The run's (n_epochs, epoch_len) batch schedule: the leading rows of
    the matched permutation."""
    consumed = matched_permutation(shards, epoch_len, n_epochs)[: n_epochs * epoch_len]
    return consumed.reshape(n_epochs, epoch_len)


class TestPartition:
    def test_balanced_disjoint_cover(self):
        data = random_dataset(8, 2, seed=0)
        shards = partition(data, 2, Rng(1, 0))
        assert [len(s) for s in shards] == [4, 4]
        merged = np.concatenate(shards)
        assert sorted(merged.tolist()) == list(range(8))

    def test_uneven_sizes_differ_by_at_most_one(self):
        data = random_dataset(10, 2, seed=1)
        shards = partition(data, 3, Rng(2, 0))
        sizes = [len(s) for s in shards]
        assert sorted(sizes) == [3, 3, 4]

    @pytest.mark.parametrize("m, k", [(10, 3), (103, 4), (7, 7), (9, 1), (40, 6)])
    def test_sizes_follow_array_split(self, m, k):
        shards = partition(random_dataset(m, 2, seed=m), k, Rng(m, k))
        assert [len(s) for s in shards] == [len(a) for a in np.array_split(np.arange(m), k)]

    def test_single_machine_gets_everything(self):
        data = random_dataset(6, 2, seed=2)
        (shard,) = partition(data, 1, Rng(3, 0))
        assert sorted(shard.tolist()) == list(range(6))

    def test_assignment_frequencies(self):
        data = random_dataset(4, 2, seed=3)
        rng = Rng(4, 0)
        hits = np.zeros(4)
        n = 10_000
        for _ in range(n):
            shards = partition(data, 2, rng)
            hits[shards[0]] += 1
        assert np.abs(hits / n - 0.5).max() < 0.02

    def test_bad_machine_counts(self):
        data = random_dataset(4, 2, seed=4)
        with pytest.raises(InvalidParameter):
            partition(data, 0, Rng(0))
        with pytest.raises(InvalidParameter):
            partition(data, 5, Rng(0))

    def test_batches_drop_remainder(self):
        data = random_dataset(10, 2, seed=5)
        shards = partition(data, 1, Rng(5, 0))
        assert [len(b) for b in batch_rows(shards, 4, 2)] == [4, 4]
        with pytest.raises(BatchesExhausted):
            batch_rows(shards, 4, 3)


class TestEquivalence:
    def test_single_machine_bitwise(self):
        p = random_ridge(300, 4, seed=6, alpha=0.2)
        cfg = SVRGConfig(step_size=0.1, epoch_len=25, n_epochs=4, seed=8)
        shards = partition(p.data, 1, Rng(8, 77))
        dist_trace, _ = run_distributed_svrg(p, 1, cfg, shards=shards)
        sigma = matched_permutation(shards, 25, 4)
        solo_trace = run_svrg(p, cfg, sigma=sigma)
        assert np.array_equal(dist_trace.suboptimality, solo_trace.suboptimality)
        assert np.array_equal(dist_trace.max_suboptimality, solo_trace.max_suboptimality)
        assert np.array_equal(dist_trace.final_snapshot, solo_trace.final_snapshot)

    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(1, 6),
        T=st.integers(1, 60),
        S=st.integers(1, 5),
        eta=st.floats(0.01, 0.6),
        alpha=st.floats(0.01, 1.5),
        spare=st.integers(0, 40),
        seed=st.integers(0, 2**32),
    )
    def test_single_machine_bitwise_on_random_runs(self, d, T, S, eta, alpha, spare, seed):
        p = random_ridge(T * S + spare, d, seed=seed % 997, alpha=alpha)
        cfg = SVRGConfig(step_size=eta, epoch_len=T, n_epochs=S, seed=seed)
        shards = partition(p.data, 1, Rng(seed, 77))
        dist_trace, _ = run_distributed_svrg(p, 1, cfg, shards=shards)
        solo_trace = run_svrg(p, cfg, sigma=matched_permutation(shards, T, S))
        for field in ("suboptimality", "max_suboptimality", "final_snapshot"):
            assert getattr(dist_trace, field).tobytes() == getattr(solo_trace, field).tobytes()
        assert dist_trace.initial_suboptimality == solo_trace.initial_suboptimality

    def test_four_machines_bitwise(self):
        p = random_ridge(600, 5, seed=7, alpha=0.15)
        cfg = SVRGConfig(step_size=0.1, epoch_len=30, n_epochs=5, seed=9)
        shards = partition(p.data, 4, Rng(9, 42))
        dist_trace, _ = run_distributed_svrg(p, 4, cfg, shards=shards)
        sigma = matched_permutation(shards, 30, 5)
        solo_trace = run_svrg(p, cfg, sigma=sigma)
        for field in ("suboptimality", "max_suboptimality", "final_snapshot"):
            assert getattr(dist_trace, field).tobytes() == getattr(solo_trace, field).tobytes()
        assert (np.float64(dist_trace.initial_suboptimality).tobytes()
                == np.float64(solo_trace.initial_suboptimality).tobytes())


def _error_fields(err):
    return (type(err), str(err), err.epoch, err.step, np.float64(err.value).tobytes(),
            np.float64(err.bound).tobytes())


class TestDivergence:
    """A diverging distributed run raises exactly the error of ``run_svrg``
    on the matched permutation, on the default partition and on explicit
    shards."""

    CASES = {  # (eta, T, S) on m = 1000, and where the default partition's run crosses
        "mid_epoch": ((17.5, 80, 5), lambda err, T: 1 < err.step <= T),
        "epoch_boundary": ((37.0, 20, 12), lambda err, T: err.step == T + 1),
        "one_step_epochs": ((1e7, 1, 3), lambda err, T: err.step == 2),
        "overflow_to_inf": ((1e200, 80, 5), lambda err, T: err.value == np.inf),
    }

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("case", CASES)
    def test_same_error_as_single_machine(self, case, k):
        (eta, T, S), crosses = self.CASES[case]
        p = random_ridge(1000, 3, seed=50, alpha=0.05)
        cfg = SVRGConfig(step_size=eta, epoch_len=T, n_epochs=S, seed=5)
        default = partition(p.data, k, Rng(cfg.seed, cfg.stream ^ AUX_STREAM_BIT))
        explicit = partition(p.data, k, Rng(1, k))
        for shards, run_shards in ((default, None), (explicit, explicit)):
            with pytest.raises(DivergenceError) as dist:
                run_distributed_svrg(p, k, cfg, shards=run_shards)
            with pytest.raises(DivergenceError) as solo:
                run_svrg(p, cfg, sigma=matched_permutation(shards, T, S))
            assert _error_fields(dist.value) == _error_fields(solo.value)
            if run_shards is None:
                assert crosses(dist.value, T)


class TestLocalOperators:
    """Each machine's local mean gradient in Gram form, H_j w - b_j,
    against the mean of its local gradient rows, and their
    shard-weighted combine against the full gradient, to rounding: the
    identity by which the reduce round's anchor is ``full_gradient``."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_local_matches_pairwise_row_mean(self, k):
        rng = Rng(21, k)
        for trial in range(8):
            p = random_ridge(97 + 41 * trial, 2 + trial % 5, seed=30 + trial, alpha=0.15)
            for shard in partition(p.data, k, Rng(trial, k)):
                local = np.sort(shard)
                H, b = _gram_form(*p._rows(local), p.alpha)
                w = (1.0 + trial) * rng.normal(p.d)
                rows = fsum_row_mean(p.point_gradient_rows(w, local))
                tol = 1e-14 * (1.0 + np.linalg.norm(w))
                assert np.abs((H @ w - b) - rows).max() <= tol

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_weighted_combine_matches_full_gradient(self, k):
        rng = Rng(22, k)
        for trial in range(8):
            p = random_ridge(101 + 43 * trial, 2 + trial % 5, seed=40 + trial, alpha=0.2)
            shards = partition(p.data, k, Rng(trial, 100 + k))
            w = (1.0 + trial) * rng.normal(p.d)
            parts = []
            for shard in shards:
                H, b = _gram_form(*p._rows(np.sort(shard)), p.alpha)
                parts.append(len(shard) / p.m * (H @ w - b))
            combined = np.array([math.fsum(column) for column in zip(*parts)])
            tol = 1e-14 * (1.0 + np.linalg.norm(w))
            assert np.abs(combined - p.full_gradient(w)).max() <= tol


class TestDefaultPartition:
    """Without explicit shards only the consumed prefix of the partition's
    permutation is drawn; the run equals the one on explicit shards from
    ``partition`` on the auxiliary lane, byte for byte."""

    SHAPES = {  # (m, k, T, S)
        "inside_machine_0": (400, 4, 10, 5),
        "spills_across_machines": (400, 4, 10, 25),
        "uneven_shards_and_remainders": (103, 4, 7, 10),
        "one_machine": (57, 1, 5, 11),
        "one_point_per_machine": (40, 40, 1, 30),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_equals_explicit_partition(self, shape):
        m, k, T, S = self.SHAPES[shape]
        p = random_ridge(m, 3, seed=m + k, alpha=0.2)
        for stream in (0, 6):
            cfg = SVRGConfig(step_size=0.1, epoch_len=T, n_epochs=S, seed=k, stream=stream)
            trace, log = run_distributed_svrg(p, k, cfg)
            shards = partition(p.data, k, Rng(cfg.seed, stream ^ AUX_STREAM_BIT))
            expected, expected_log = run_distributed_svrg(p, k, cfg, shards=shards)
            for field in ("suboptimality", "max_suboptimality", "stochastic_grad_evals",
                          "full_grad_point_evals", "final_snapshot"):
                assert getattr(trace, field).tobytes() == getattr(expected, field).tobytes()
            assert (np.float64(trace.initial_suboptimality).tobytes()
                    == np.float64(expected.initial_suboptimality).tobytes())
            assert log == expected_log

    def test_draws_only_the_consumed_prefix(self, monkeypatch):
        drawn = []

        class Recording(distributed.SingleShuffleSampler):
            def take(self, n):
                drawn.append(n)
                return super().take(n)

        monkeypatch.setattr(distributed, "SingleShuffleSampler", Recording)
        p = random_ridge(400, 3, seed=3, alpha=0.2)
        # shards of 100: 10 batches of 10 in machine 0, then 2 in machine 1
        cfg = SVRGConfig(step_size=0.1, epoch_len=10, n_epochs=12, seed=4)
        run_distributed_svrg(p, 4, cfg)
        assert drawn == [120]

    def test_batches_exhausted_message(self):
        p = random_ridge(103, 2, seed=5, alpha=0.3)
        cfg = SVRGConfig(step_size=0.1, epoch_len=7, n_epochs=13, seed=5)
        with pytest.raises(BatchesExhausted) as info:
            run_distributed_svrg(p, 4, cfg)  # shards of 26, 26, 26, 25: 3 batches each
        assert str(info.value) == (
            "cluster holds 12 batches of size 7 but the run needs 13; "
            "the total batch count must be at least the epoch count"
        )

    @pytest.mark.parametrize("k, message", [
        (0, "need at least one machine"),
        (-2, "need at least one machine"),
        (41, "cannot split 40 points across 41 machines"),
    ])
    def test_bad_machine_count_messages(self, k, message):
        p = random_ridge(40, 2, seed=6, alpha=0.3)
        cfg = SVRGConfig(step_size=0.1, epoch_len=1, n_epochs=1, seed=6)
        with pytest.raises(InvalidParameter) as info:
            run_distributed_svrg(p, k, cfg)
        assert str(info.value) == message


class TestCommunication:
    def run_small(self, k=4, S=5, T=10, m=300, d=4):
        p = random_ridge(m, d, seed=9, alpha=0.2)
        cfg = SVRGConfig(step_size=0.1, epoch_len=T, n_epochs=S, seed=11)
        shards = partition(p.data, k, Rng(11, 3))
        return p, run_distributed_svrg(p, k, cfg, shards=shards)

    def test_round_and_float_counts(self):
        p, (trace, log) = self.run_small(k=4, S=5, T=10, d=4)
        assert log.rounds == 10  # two per epoch
        assert log.messages_by_kind == {REDUCE: 4 * 5, BROADCAST: 4 * 5}
        assert log.payload_floats == p.d * sum(log.messages_by_kind.values())

    def test_report_worked_example(self):
        p, (trace, log) = self.run_small(k=4, S=5, T=10, d=10)
        assert log.rounds == 10
        assert log.payload_floats == 400

    def test_report_empty_log(self):
        log = CommLog()
        assert log.rounds == 0 and log.payload_floats == 0
        assert log.messages_by_kind == {}
        assert log.rounds_per_decade([]) is None

    def test_doubling_dimension_doubles_floats(self):
        _, (t1, l1) = self.run_small(k=2, S=3, T=10, d=4)
        _, (t2, l2) = self.run_small(k=2, S=3, T=10, d=8)
        assert l2.payload_floats == 2 * l1.payload_floats
        assert l2.rounds == l1.rounds

    def test_rounds_per_decade(self):
        p, (trace, log) = self.run_small(k=2, S=4, T=40, m=400)
        traj = np.concatenate([[trace.initial_suboptimality], trace.suboptimality])
        rpd = log.rounds_per_decade(traj)
        assert rpd is not None
        decades = np.log10(traj[0] / traj[-1])
        assert rpd == pytest.approx(8 / decades)

    @pytest.mark.parametrize("traj", [[1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 1.0], [1.0, 0.0]])
    def test_rounds_per_decade_none(self, traj):
        assert CommLog(rounds=6).rounds_per_decade(traj) is None


class TestExplicitShards:
    """Explicit shards must hold each point exactly once."""

    def run(self, shards):
        p = random_ridge(400, 3, seed=15, alpha=0.2)
        cfg = SVRGConfig(step_size=0.1, epoch_len=50, n_epochs=2, seed=16)
        return run_distributed_svrg(p, len(shards), cfg, shards=shards)

    def test_disjoint_cover_runs(self):
        trace, log = self.run([np.arange(0, 150), np.arange(150, 400)])
        assert log.rounds == 4

    def test_list_shards_run_like_arrays(self):
        parts = [np.arange(399, -1, -2), np.arange(398, -1, -2)]
        trace, log = self.run([part.tolist() for part in parts])
        expected, _ = self.run(parts)
        assert trace.suboptimality.tobytes() == expected.suboptimality.tobytes()
        assert log.rounds == 4

    @pytest.mark.parametrize("parts", [
        [np.arange(0, 300), np.arange(100, 400)],  # overlap
        [np.arange(0, 150), np.arange(200, 400)],  # gap
        [np.r_[0:199, 200], np.arange(200, 400)],  # point 200 twice, point 199 never
        [np.arange(0, 200), np.arange(200, 401)],  # index out of range
        [np.arange(0, 200)],  # one shard short of the data
        [np.arange(0, 150.0), np.arange(150, 400)],  # float indices
        [np.arange(0, 399), np.int64(399)],  # a scalar, not a sequence
        [np.arange(0, 150).reshape(1, 150), np.arange(150, 400)],  # a 2-D shard
        [],  # no shards
    ])
    def test_invalid_cover_rejected(self, parts):
        with pytest.raises(InvalidParameter):
            self.run(parts)


BAD_SHARDS = {
    "float": ([[0.5, 1.7], [2.2, 3.9]], InvalidParameter),
    "negative": ([[-1, 5], [2, 3]], IndexOutOfRange),
    "out_of_range": ([[0, 7], [1, 2]], IndexOutOfRange),
    "bool": ([[True, False], [2, 3]], InvalidParameter),
    "2d": ([np.arange(4).reshape(2, 2)], InvalidParameter),
    "repeat": ([[0, 0], [1, 2]], InvalidParameter),
    "none": ([], InvalidParameter),
}


def run_distributed_svrg_on(shards, epoch_len, n_epochs):
    """The driver on explicit shards of a 4-point problem."""
    cfg = SVRGConfig(step_size=0.1, epoch_len=epoch_len, n_epochs=n_epochs)
    return run_distributed_svrg(random_ridge(4, 2, seed=1), len(shards), cfg, shards=shards)


@pytest.mark.parametrize("build", [run_distributed_svrg_on, matched_permutation],
                         ids=["run_distributed_svrg", "matched_permutation"])
@pytest.mark.parametrize("shards, error", BAD_SHARDS.values(), ids=BAD_SHARDS.keys())
def test_schedules_check_their_shards(build, shards, error):
    """The matched permutation and the driver check explicit shards alike:
    nothing is truncated, wrapped, repeated or reshaped."""
    with pytest.raises(error):
        build(shards, 1, 2)


class TestScheduling:
    def test_batches_exhausted(self):
        p = random_ridge(40, 2, seed=10, alpha=0.3)
        cfg = SVRGConfig(step_size=0.1, epoch_len=15, n_epochs=4, seed=12)
        shards = partition(p.data, 2, Rng(12, 0))
        # 2 machines x 20 points -> one 15-point batch each = 2 < 4 epochs
        with pytest.raises(BatchesExhausted):
            run_distributed_svrg(p, 2, cfg, shards=shards)

    def test_machine_advancement_order(self):
        p = random_ridge(60, 2, seed=11, alpha=0.3)
        shards = partition(p.data, 2, Rng(13, 0))
        schedule = batch_rows(shards, 10, 6)
        owners = []
        for batch in schedule:
            for machine, shard in enumerate(shards):
                if set(batch.tolist()) <= set(shard.tolist()):
                    owners.append(machine)
                    break
        assert owners == [0, 0, 0, 1, 1, 1]

    def test_leftovers_only_in_anchor(self):
        p = random_ridge(25, 2, seed=12, alpha=0.3)
        cfg = SVRGConfig(step_size=0.1, epoch_len=10, n_epochs=2, seed=14)
        shards = partition(p.data, 1, Rng(14, 0))
        schedule = batch_rows(shards, 10, 2)
        consumed = set(np.concatenate(schedule).tolist())
        assert len(consumed) == 20  # 5 leftover points take no inner steps
        trace, _ = run_distributed_svrg(p, 1, cfg, shards=shards)
        assert trace.n_epochs == 2

    @pytest.mark.parametrize("m, k, T", [(103, 4, 10), (100, 3, 7), (60, 2, 10), (37, 5, 3)])
    def test_schedule_is_the_leading_batches_through_exhaustion(self, m, k, T):
        """Every shard's full batches in machine order, cut at the epoch
        count; trailing remainders are never scheduled."""
        p = random_ridge(m, 2, seed=m, alpha=0.3)
        shards = partition(p.data, k, Rng(m, 1))
        every = [shard[b * T : (b + 1) * T] for shard in shards for b in range(len(shard) // T)]
        for S in range(len(every) + 1):
            schedule = batch_rows(shards, T, S)
            assert len(schedule) == S
            assert schedule.dtype == np.int64 and schedule.shape == (S, T)
            assert all(np.array_equal(a, b) for a, b in zip(schedule, every))
            consumed = np.concatenate(every[:S]) if S else np.empty(0, dtype=np.int64)
            rest = np.setdiff1d(np.arange(m), consumed)
            assert np.array_equal(matched_permutation(shards, T, S),
                                  np.concatenate([consumed, rest]))
        S = len(every) + 1
        with pytest.raises(BatchesExhausted) as info:
            matched_permutation(shards, T, S)
        assert str(info.value) == (
            f"cluster holds {len(every)} batches of size {T} but the run needs {S}; "
            f"the total batch count must be at least the epoch count"
        )

    def test_requires_single_shuffle_config(self):
        p = random_ridge(40, 2, seed=13)
        cfg = SVRGConfig(
            step_size=0.1, epoch_len=10, n_epochs=2, sampler="with_replacement"
        )
        with pytest.raises(InvalidParameter):
            run_distributed_svrg(p, 2, cfg)
