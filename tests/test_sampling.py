import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shufflegrad import (
    Dataset,
    FixedStep,
    Rng,
    SGDConfig,
    SVRGConfig,
    enumerate_permutations,
    is_permutation,
    partition,
    run_sgd,
    run_svrg,
    shuffle,
)
from shufflegrad.errors import IndexOutOfRange, InvalidParameter
from shufflegrad.sampling import SingleShuffleSampler, schedule
from conftest import random_ridge


def test_shuffle_m1():
    assert shuffle(1, Rng(0)).tolist() == [0]


def test_shuffle_rejects_empty():
    with pytest.raises(InvalidParameter):
        shuffle(0, Rng(0))


def test_shuffle_deterministic():
    assert np.array_equal(shuffle(50, Rng(4, 9)), shuffle(50, Rng(4, 9)))
    assert not np.array_equal(shuffle(50, Rng(4, 9)), shuffle(50, Rng(4, 10)))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 300), seed=st.integers(0, 2**32), stream=st.integers(0, 2**32))
def test_shuffle_is_bijection(m, seed, stream):
    assert is_permutation(shuffle(m, Rng(seed, stream)), m)


def test_position_frequencies():
    # Each of the 4 indices should land in each position about a quarter
    # of the time across 10^5 shuffles.
    n = 100_000
    rng = Rng(123, 0)
    counts = np.zeros((4, 4))
    for _ in range(n):
        p = shuffle(4, rng)
        counts[np.arange(4), p] += 1
    assert np.abs(counts / n - 0.25).max() < 0.01


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 60), k=st.integers(0, 60), seed=st.integers(0, 2**32))
def test_prefix_matches_full_shuffle(m, k, seed):
    k = min(k, m)
    full = shuffle(m, Rng(seed, 5))
    assert np.array_equal(SingleShuffleSampler(m, Rng(seed, 5)).take(k), full[:k])


# Pinned integer outputs: a change to the Fisher-Yates code must not
# reorder any permutation.  Machine-independent, like the generator's
# test vectors.
FROZEN_SHUFFLES = {
    1: [0],
    2: [0, 1],
    7: [4, 6, 2, 1, 0, 5, 3],
    37: [19, 3, 2, 21, 36, 31, 27, 1, 32, 17, 22, 30, 9, 10, 24, 14, 5, 15, 29,
         23, 16, 26, 20, 6, 34, 4, 35, 13, 8, 0, 28, 33, 7, 18, 12, 25, 11],
}


@pytest.mark.parametrize("m", sorted(FROZEN_SHUFFLES))
def test_shuffle_frozen_vectors(m):
    assert shuffle(m, Rng(3, m)).tolist() == FROZEN_SHUFFLES[m]


def test_shuffle_frozen_vector_m1000():
    order = shuffle(1000, Rng(3, 1000)).tolist()
    assert is_permutation(np.array(order), 1000)
    assert order[:20] == [228, 202, 700, 640, 317, 567, 676, 164, 93, 539,
                          442, 908, 570, 895, 216, 253, 635, 938, 135, 30]
    assert order[-10:] == [605, 879, 648, 53, 943, 148, 255, 662, 89, 919]
    assert sum(i * v for i, v in enumerate(order)) == 251275654


@pytest.mark.parametrize("order", [np.array([True, True]), np.array([True, False]),
                                   np.array([0.0, 1.0]), np.array([1.0, 0.0])])
def test_is_permutation_rejects_non_integer_dtypes(order):
    assert not is_permutation(order, 2)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint16, np.uint64])
def test_is_permutation_accepts_integer_dtypes(dtype):
    assert is_permutation(np.array([1, 0, 2], dtype=dtype), 3)
    assert not is_permutation(np.array([1, 1, 2], dtype=dtype), 3)


FROZEN_TAKES = {
    "with_replacement": [[10, 29, 8], [33, 14, 28, 45, 14, 37, 48],
                         [27, 6, 0, 25, 42, 0, 0, 7, 5, 4, 22], [7, 46, 13, 7]],
    "single_shuffle": [[10, 14, 34], [29, 12, 43, 25, 30, 47, 28],
                       [37, 1, 22, 26, 48, 7, 15, 40, 35, 33, 4], [18, 32, 24, 19]],
    "reshuffle_each_epoch": [[10, 14, 34], [29, 12, 43, 25, 14, 26, 2],
                             [15, 34, 45, 41, 42, 16, 14, 31, 15, 44, 22],
                             [7, 11, 45, 27]],
}


@pytest.mark.parametrize("kind", sorted(FROZEN_TAKES))
def test_sampler_frozen_takes(kind):
    # Rows of 7 (the reshuffle epoch) read the takes back to back.
    drawn = schedule(kind, 50, 4, 7, Rng(5, 1))
    assert drawn.shape == (4, 7) and drawn.dtype == np.int64
    assert drawn.ravel()[:25].tolist() == sum(FROZEN_TAKES[kind], [])


def test_partition_frozen_vector():
    data = Dataset(X=np.zeros((10, 1)), y=np.zeros(10))
    shards = partition(data, 3, Rng(6, 2))
    assert [s.tolist() for s in shards] == [[2, 3, 4, 1], [5, 8, 9], [0, 7, 6]]
    assert all(s.dtype == np.int64 for s in shards)


def test_single_shuffle_bijection_and_exhaustion():
    draws = schedule("single_shuffle", 3, 3, 1, Rng(2, 0))
    assert sorted(draws.ravel().tolist()) == [0, 1, 2]
    with pytest.raises(InvalidParameter, match="at most once"):
        schedule("single_shuffle", 3, 4, 1, Rng(2, 0))
    # A take longer than the permutation is refused before anything is drawn.
    rng = Rng(2, 0)
    with pytest.raises(InvalidParameter) as err:
        SingleShuffleSampler(3, rng).take(4)
    assert str(err.value) == ("single-shuffle sampling draws each of the m=3 points at most "
                              "once; the run needs 4 draws")
    assert rng.counter == 0


def test_with_replacement_m1_and_frequencies():
    assert schedule("with_replacement", 1, 10, 1, Rng(0)).tolist() == [[0]] * 10
    draws = schedule("with_replacement", 3, 1, 30_000, Rng(6, 0))[0]
    freq = np.bincount(draws, minlength=3) / 30_000
    assert np.abs(freq - 1 / 3).max() < 0.02


def test_reshuffle_epochs_are_fresh_permutation_prefixes():
    first, second = schedule("reshuffle_each_epoch", 6, 2, 4, Rng(11, 0))
    # within an epoch no index repeats
    assert len(set(first.tolist())) == 4
    assert len(set(second.tolist())) == 4
    # each epoch is the prefix of a fresh shuffle on the same stream
    rng = Rng(11, 0)
    assert np.array_equal(first, SingleShuffleSampler(6, rng).take(4))
    assert np.array_equal(second, SingleShuffleSampler(6, rng).take(4))


def test_schedule_rejects_unknown_kind():
    with pytest.raises(InvalidParameter, match="unknown sampler kind 'bogus'"):
        schedule("bogus", 5, 1, 1, Rng(0))


def test_enumeration_basics():
    assert [list(p) for p in enumerate_permutations(1)] == [[0]]
    perms = [list(p) for p in enumerate_permutations(3)]
    assert perms[0] == [0, 1, 2] and perms[-1] == [2, 1, 0]
    assert len(perms) == 6


def test_enumeration_complete_no_duplicates():
    for m in range(1, 6):
        seen = set(enumerate_permutations(m))
        assert len(seen) == math.factorial(m)


def test_enumeration_guard():
    with pytest.raises(InvalidParameter):
        enumerate_permutations(10)


# The oracle for SingleShuffleSampler.take: the forward Fisher-Yates loop
# one swap at a time, with the displaced positions in a dict.  It draws
# its targets with the same single `below` call per take.
def reference_take(m, rng, n):
    """The first n values of a permutation of range(m)."""
    n_draws = min(n, m - 1)
    offsets = rng.below(np.arange(m, m - n_draws, -1, dtype=np.uint64))
    out, displaced = [], {}
    for t in range(n_draws):
        j = t + int(offsets[t])
        out.append(displaced.get(j, j))
        if j != t:
            displaced[j] = displaced.get(t, t)
    if n_draws < n:  # the last position needs no draw
        out.append(displaced.get(m - 1, m - 1))
    return np.array(out, dtype=np.int64)


def assert_take_matches_reference(m, n, seed, stream=0):
    drawn, rng = Rng(seed, stream), Rng(seed, stream)
    got, expect = SingleShuffleSampler(m, drawn).take(n), reference_take(m, rng, n)
    assert got.dtype == expect.dtype == np.int64
    assert np.array_equal(got, expect)
    assert drawn.counter == rng.counter


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 400), seed=st.integers(0, 2**32), data=st.data())
def test_take_matches_reference_at_every_prefix_length(m, seed, data):
    assert_take_matches_reference(m, data.draw(st.integers(0, m)), seed)


def test_take_matches_reference_at_1e5():
    m = 100_000
    assert_take_matches_reference(m, m, seed=41, stream=3)
    # SVRG's single-shuffle schedule at S = 13, T = 1800 reads one prefix.
    drawn, rng = Rng(42, 3), Rng(42, 3)
    got = schedule("single_shuffle", m, 13, 1800, drawn)
    assert np.array_equal(got.ravel(), reference_take(m, rng, 13 * 1800))
    assert drawn.counter == rng.counter


def test_reshuffle_matches_reference_over_epochs():
    m, epoch_len = 500, 180
    drawn = Rng(13, 4)
    got = schedule("reshuffle_each_epoch", m, 4, epoch_len, drawn)
    rng = Rng(13, 4)
    epochs = [reference_take(m, rng, epoch_len) for _ in range(4)]
    assert np.array_equal(got, np.stack(epochs))
    assert drawn.counter == rng.counter


# The oracle for a reshuffle schedule: epochs of min(cols, m) draws, each
# the prefix of a fresh permutation, read back to back and cut to shape.
def reference_reshuffle(m, rows, cols, rng):
    epoch, flat = min(cols, m), []
    while len(flat) < rows * cols:
        flat.extend(reference_take(m, rng, epoch))
    return np.array(flat[: rows * cols], dtype=np.int64).reshape(rows, cols)


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 60), rows=st.integers(1, 6), cols=st.integers(1, 130),
       seed=st.integers(0, 2**32))
@example(m=50, rows=4, cols=7, seed=5)  # rows > 1, cols < m
@example(m=60, rows=5, cols=61, seed=6)  # SVRG with T > m: epochs of m
@example(m=60, rows=1, cols=200, seed=7)  # SGD with T > m
def test_reshuffle_schedule_matches_reference(m, rows, cols, seed):
    drawn, rng = Rng(seed, 2), Rng(seed, 2)
    got = schedule("reshuffle_each_epoch", m, rows, cols, drawn)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_reshuffle(m, rows, cols, rng))
    assert drawn.counter == rng.counter


@pytest.mark.parametrize("T", [1, 7, 59])
def test_sgd_reshuffle_below_m_reads_a_shuffle_prefix(T):
    # One epoch of T < m draws: the first T values of the stream's shuffle.
    p = random_ridge(60, 3, seed=2, alpha=0.2)
    for k in range(3):
        prefix = shuffle(p.m, Rng(4, k))[:T]
        assert np.array_equal(schedule("reshuffle_each_epoch", p.m, 1, T, Rng(4, k))[0], prefix)
        cfg = SGDConfig(n_steps=T, step_rule=FixedStep(0.1), radius=5.0,
                        sampler="reshuffle_each_epoch", seed=4, stream=k)
        got, want = run_sgd(p, cfg), run_sgd(p, cfg, sigma=prefix)
        assert got.suboptimality.tobytes() == want.suboptimality.tobytes()


def test_exhausted_sampler_keeps_no_state():
    rng = Rng(0, 1)
    tracemalloc.start()
    try:
        sampler = SingleShuffleSampler(100_000, rng)
        out = sampler.take(100_000)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert live - out.nbytes < 64 * 1024


def test_huge_m_rejected_before_allocating():
    rng = Rng(0)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameter):
            SingleShuffleSampler(2**31, rng)
        with pytest.raises(InvalidParameter):
            shuffle(2**31 + 1, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert rng.counter == 0
    SingleShuffleSampler(2**31 - 1, rng)  # the largest m is accepted


def test_reshuffle_epoch_cost_does_not_grow_with_m():
    # Every take reads the identity arrangement in place of an 8·m-byte
    # vector, so short epochs over a large dataset stay small.
    tracemalloc.start()
    try:
        schedule("reshuffle_each_epoch", 10**6, 100, 10, Rng(3, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_single_shuffle_schedule_cost_does_not_grow_with_m():
    # The schedule is one prefix of 130 values, drawn without an m-sized vector.
    tracemalloc.start()
    try:
        schedule("single_shuffle", 10**6, 13, 10, Rng(3, 4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("sigma, message", [
    ([0, 1, 0], "sigma provides 3 indices, need 4"),
    ([0, 1, 2, 0, 1], "sigma holds index 2 at position 2, outside [0, 2)"),
    ([0, 1, 0, 1, -1], "sigma holds index -1 at position 4, outside [0, 2)"),
    ([0.7, 1.9, 0.5, 1.0], "sigma must hold integer indices, got dtype float64"),
    ([True, False, True, False], "sigma must hold integer indices, got dtype bool"),
    (np.array([0, 1, 1, 0], dtype=np.float32),
     "sigma must hold integer indices, got dtype float32"),
    ([], "sigma provides 0 indices, need 4"),
    ([0.5], "sigma provides 1 indices, need 4"),
    ([[0, 1], [1, 0]], "sigma must be a 1-D index sequence, got shape (2, 2)"),
])
def test_explicit_sequences_are_checked_alike_by_both_drivers(unit_axes_problem, sigma, message):
    sgd = SGDConfig(n_steps=4, step_rule=FixedStep(0.1), radius=5.0)
    svrg = SVRGConfig(step_size=0.1, epoch_len=2, n_epochs=2)
    # run_sgd reads a 2-D sigma as one stream per row, each too short here;
    # run_svrg reads a 1-D sigma only.
    sgd_message = message if np.ndim(sigma) == 1 else "sigma rows provide 2 indices, need 4"
    for run, want in ((lambda: run_sgd(unit_axes_problem, sgd, sigma=sigma), sgd_message),
                      (lambda: run_svrg(unit_axes_problem, svrg, sigma=sigma), message)):
        with pytest.raises(InvalidParameter) as err:
            run()
        assert str(err.value) == want


@pytest.mark.parametrize("sigma, message", [
    (np.zeros((0, 4), dtype=np.int64),
     "sigma must be a 1-D or nonempty 2-D index sequence, got shape (0, 4)"),
    ([[0, 1, 0, 1], [1, 0, 2, 0]], "sigma row 1 holds index 2 at position 2, outside [0, 2)"),
    # the first bad entry in row order, also past the n_steps read
    ([[0, 1, 0, 1, 5], [1, -1, 0, 1, 0]],
     "sigma row 0 holds index 5 at position 4, outside [0, 2)"),
    ([[0.0, 1.0, 0.0, 1.0]], "sigma must hold integer indices, got dtype float64"),
    ([[[0, 1, 0, 1]]],
     "sigma must be a 1-D or nonempty 2-D index sequence, got shape (1, 1, 4)"),
])
def test_two_dimensional_sigma_is_checked_as_one_array(unit_axes_problem, sigma, message):
    sgd = SGDConfig(n_steps=4, step_rule=FixedStep(0.1), radius=5.0)
    with pytest.raises(InvalidParameter) as err:
        run_sgd(unit_axes_problem, sgd, sigma=sigma)
    assert str(err.value) == message
    assert isinstance(err.value, IndexOutOfRange) == ("outside" in message)


def test_permutation_tuples_run_like_arrays(unit_axes_problem):
    sgd = SGDConfig(n_steps=2, step_rule=FixedStep(0.1), radius=5.0)
    svrg = SVRGConfig(step_size=0.1, epoch_len=1, n_epochs=2)
    for sigma in enumerate_permutations(2):
        order = np.array(sigma)
        got = run_sgd(unit_axes_problem, sgd, sigma=sigma)
        assert got.suboptimality.tobytes() == run_sgd(
            unit_axes_problem, sgd, sigma=order).suboptimality.tobytes()
        got = run_svrg(unit_axes_problem, svrg, sigma=sigma)
        assert got.final_snapshot.tobytes() == run_svrg(
            unit_axes_problem, svrg, sigma=order).final_snapshot.tobytes()
