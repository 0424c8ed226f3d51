import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflegrad import (
    Dataset,
    Rng,
    enumerate_permutations,
    is_permutation,
    make_sampler,
    partition,
    shuffle,
)
from shufflegrad.errors import DataExhausted, InvalidParameter
from shufflegrad.sampling import SingleShuffleSampler


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
    s = make_sampler(kind, 50, Rng(5, 1), epoch_len=7)
    assert [s.take(n).tolist() for n in (3, 7, 11, 4)] == FROZEN_TAKES[kind]


def test_partition_frozen_vector():
    data = Dataset(X=np.zeros((10, 1)), y=np.zeros(10))
    shards = partition(data, 3, Rng(6, 2))
    assert [s.indices.tolist() for s in shards] == [[2, 3, 4, 1], [5, 8, 9], [0, 7, 6]]


def test_single_shuffle_bijection_and_exhaustion():
    s = make_sampler("single_shuffle", 3, Rng(2, 0))
    draws = [int(s.take(1)[0]) for _ in range(3)]
    assert sorted(draws) == [0, 1, 2]
    with pytest.raises(DataExhausted):
        s.take(1)


def test_single_shuffle_matches_eager_shuffle():
    lazy = SingleShuffleSampler(37, Rng(8, 1))
    taken = np.concatenate([lazy.take(5) for _ in range(7)] + [lazy.take(2)])
    assert np.array_equal(taken, shuffle(37, Rng(8, 1)))


def test_with_replacement_m1_and_frequencies():
    s = make_sampler("with_replacement", 1, Rng(0))
    assert all(int(s.take(1)[0]) == 0 for _ in range(10))
    s3 = make_sampler("with_replacement", 3, Rng(6, 0))
    draws = s3.take(30_000)
    freq = np.bincount(draws, minlength=3) / 30_000
    assert np.abs(freq - 1 / 3).max() < 0.02


def test_reshuffle_epochs_are_fresh_permutation_prefixes():
    s = make_sampler("reshuffle_each_epoch", 6, Rng(11, 0), epoch_len=4)
    first = s.take(4)
    second = s.take(4)
    # within an epoch no index repeats
    assert len(set(first.tolist())) == 4
    assert len(set(second.tolist())) == 4
    # a partial take spanning the boundary keeps the same stream
    s2 = make_sampler("reshuffle_each_epoch", 6, Rng(11, 0), epoch_len=4)
    assert np.array_equal(s2.take(8), np.concatenate([first, second]))


def test_reshuffle_needs_epoch_len():
    with pytest.raises(InvalidParameter):
        make_sampler("reshuffle_each_epoch", 5, Rng(0))
    with pytest.raises(InvalidParameter):
        make_sampler("bogus", 5, Rng(0))


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
def reference_take(m, rng, start, n, displaced):
    """Steps start, ..., start+n-1 of the permutation of range(m)."""
    n_draws = max(0, min(start + n, m - 1) - start)
    offsets = rng.below(np.arange(m - start, m - start - n_draws, -1, dtype=np.uint64))
    out = []
    for i in range(n_draws):
        t = start + i
        j = t + int(offsets[i])
        out.append(displaced.get(j, j))
        if j != t:
            displaced[j] = displaced.get(t, t)
    if n_draws < n:  # the last position needs no draw
        out.append(displaced.get(m - 1, m - 1))
    return np.array(out, dtype=np.int64)


def assert_takes_match_reference(m, sizes, seed, stream=0):
    sampler, rng = SingleShuffleSampler(m, Rng(seed, stream)), Rng(seed, stream)
    start, displaced = 0, {}
    for n in sizes:
        got = sampler.take(n)
        expect = reference_take(m, rng, start, n, displaced)
        assert got.dtype == expect.dtype == np.int64
        assert np.array_equal(got, expect)
        assert sampler.rng.counter == rng.counter
        start += n


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 400), seed=st.integers(0, 2**32), data=st.data())
def test_take_matches_reference_on_random_splits(m, seed, data):
    cuts = sorted(data.draw(st.lists(st.integers(0, m), max_size=12)))
    sizes = np.diff([0, *cuts, m]).tolist()
    assert_takes_match_reference(m, sizes, seed)


def test_take_matches_reference_at_1e5():
    m = 100_000
    assert_takes_match_reference(m, [m], seed=41, stream=3)
    assert_takes_match_reference(m, [1800] * 13, seed=42, stream=3)


def test_reshuffle_matches_reference_over_epochs():
    m, epoch_len = 500, 180
    sampler = make_sampler("reshuffle_each_epoch", m, Rng(13, 4), epoch_len=epoch_len)
    got = np.concatenate([sampler.take(n) for n in (100, 250, 7, 363)])
    rng = Rng(13, 4)
    epochs = [reference_take(m, rng, 0, epoch_len, {}) for _ in range(4)]
    assert np.array_equal(got, np.concatenate(epochs))
    assert sampler.rng.counter == rng.counter


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
    # Each epoch's first take reads the identity arrangement in place of an
    # 8·m-byte vector, so short epochs over a large dataset stay small.
    sampler = make_sampler("reshuffle_each_epoch", 10**6, Rng(3, 3), epoch_len=10)
    tracemalloc.start()
    try:
        for _ in range(100):
            sampler.take(10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
