import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflegrad import Rng, ShufflegradError, rng as rng_module
from shufflegrad.rng import MASK64

from conftest import straight_normal

# Frozen vectors for the documented algorithm; a change here is a break
# of the cross-platform reproducibility contract.
VECTORS = {
    (0, 0): [0xA706DD2F4D197E6F, 0xB382A305F4414F5E, 0x631A9154FBABF717, 0xA80ABA8C86640906],
    (42, 7): [0xC1AA9227BBDEF407, 0x8EFC6C8986E879F8, 0xFB82B3F884D832CC, 0xD1947F21C050F4DF],
}


@pytest.mark.parametrize("key", sorted(VECTORS))
def test_documented_vectors(key):
    seed, stream = key
    words = Rng(seed, stream).u64(4)
    assert [int(w) for w in words] == VECTORS[key]


def test_pure_python_reference():
    mask = (1 << 64) - 1
    golden = 0x9E3779B97F4A7C15

    def mix(z):
        z &= mask
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & mask
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & mask
        return (z ^ (z >> 31)) & mask

    seed, stream = 12345, 99
    key = mix(seed) ^ mix((stream + golden) & mask)
    expect = [mix((key + (i + 1) * golden) & mask) for i in range(8)]
    got = [int(w) for w in Rng(seed, stream).u64(8)]
    assert got == expect


def test_determinism_and_continuation():
    a = Rng(7, 3).u64(10)
    b = Rng(7, 3)
    first, second = b.u64(4), b.u64(6)
    assert np.array_equal(a, np.concatenate([first, second]))
    assert b.counter == 10


def test_streams_differ():
    a = Rng(7, 0).u64(6)
    b = Rng(7, 1).u64(6)
    assert not np.array_equal(a, b)


def test_uniform_range_and_moments():
    u = Rng(3, 1).uniform(200_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 2e-3
    assert abs(u.std() - np.sqrt(1 / 12)) < 2e-3


def test_normal_moments_and_consumption():
    r = Rng(5, 2)
    z = r.normal(100_001)
    assert r.counter == 100_002  # pairs of uniforms
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02
    assert abs((z**3).mean()) < 0.05


@pytest.mark.parametrize("block", [1, 3, 7])
def test_blocked_normal_matches_the_whole_array_pass(monkeypatch, block):
    monkeypatch.setattr(rng_module, "NORMAL_PAIRS", block)
    sizes = [0, 1, 2, 9, 2 * block - 1, 2 * block, 2 * block + 1, 6 * block + 1]
    got, want = Rng(8, 5), Rng(8, 5)
    got.u64(3), want.u64(3)  # start off counter 0
    for n in sizes:
        assert got.normal(n).tobytes() == straight_normal(want, n).tobytes()
        assert got.counter == want.counter
    assert got.u64(2).tolist() == want.u64(2).tolist()


def test_normal_at_the_default_block_matches_the_whole_array_pass():
    pairs = rng_module.NORMAL_PAIRS
    for n in (2 * pairs - 1, 2 * pairs + 1, 5 * pairs):
        got, want = Rng(1, n), Rng(1, n)
        assert got.normal(n).tobytes() == straight_normal(want, n).tobytes()
        assert got.counter == want.counter == 2 * ((n + 1) // 2)


def test_below_bounds_and_frequencies():
    r = Rng(9, 0)
    draws = r.below(np.full(60_000, 5, dtype=np.uint64))
    assert draws.min() >= 0 and draws.max() < 5
    freq = np.bincount(draws, minlength=5) / 60_000
    assert np.abs(freq - 0.2).max() < 0.01


def test_below_scalar_and_errors():
    assert isinstance(int(Rng(1).below(7)), int)
    assert Rng(1).below(1) == 0
    # A bound that is not a positive integer below 2**64, scalar or array
    # entry, and a count that is not a non-negative integer raise before
    # any word is drawn.
    bad_calls = [("below", b) for b in (0, -1, 2.5, 2**64, np.nan, "7",
                                        np.array([3, 0], dtype=np.uint64),
                                        np.array([3, -1]), np.array([2.0, 2.5]))]
    bad_calls += [(draw, n) for n in (-1, 2.5) for draw in ("u64", "uniform", "normal")]
    for method, arg in bad_calls:
        r = Rng(1)
        with pytest.raises(ValueError) as info:
            getattr(r, method)(arg)
        assert isinstance(info.value, ShufflegradError)
        assert r.counter == 0


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**64 - 1),
    bound=st.integers(1, 2**63),
)
def test_below_always_in_range(seed, stream, bound):
    v = int(Rng(seed, stream).below(bound))
    assert 0 <= v < bound


def documented_below(rng, bound):
    """One value below ``bound`` by the documented rule, drawn word by word."""
    while True:
        w = int(rng.u64(1)[0])
        if w >= (1 << 64) % bound:
            return w % bound


def test_rejecting_scalar_bound_gives_an_int64():
    # 2**64 mod bound is just below 2**63 here: about half of all words reject.
    bound = 2**63 + 2**40 + 5
    for stream in range(64):
        if int(Rng(8, stream).u64(1)[0]) < (1 << 64) % bound:
            break
    r, ref = Rng(8, stream), Rng(8, stream)
    v = r.below(bound)
    assert type(v) is np.int64
    assert int(v) & MASK64 == documented_below(ref, bound)
    assert r.counter == ref.counter > 1


@pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
def test_empty_bounds_keep_their_shape(shape):
    r = Rng(3)
    out = r.below(np.ones(shape, dtype=np.uint64))
    assert out.shape == shape and out.dtype == np.int64
    assert r.counter == 0


def test_two_dimensional_bounds_draw_in_row_major_order():
    bounds = np.array([[2**63 + 1, 3, 7], [2**64 - 1, 1, 2**63 + 12345]], dtype=np.uint64)
    r, ref = Rng(21, 5), Rng(21, 5)
    out = r.below(bounds)
    assert out.shape == bounds.shape and out.dtype == np.int64
    assert out.tobytes() == ref.below(bounds.reshape(-1)).tobytes()
    assert r.counter == ref.counter > bounds.size


def test_no_warnings_at_the_wrapping_extremes():
    # uint64 arithmetic must wrap silently for every seed, stream and counter.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = Rng(2**64 - 1, 2**64 - 1)
        r.u64(5)
        r.uniform(5)
        r.normal(5)
        r.below(np.array([1, 3, 2**63, 2**64 - 1], dtype=np.uint64))
        r.below(7)


def test_below_redraws_follow_the_documented_rule():
    # Bounds just above 2**63 reject about half of all words, so several
    # redraw rounds run; each round draws one word per pending value.
    bounds = [2**63 + 1, 3, 2**63 + 12345, 2**64 - 1, 2**63 + 7, 1]
    r = Rng(21, 4)
    got = r.below(np.array(bounds, dtype=np.uint64)).tolist()
    ref = Rng(21, 4)
    expect, pending = [None] * len(bounds), list(range(len(bounds)))
    while pending:
        words = [int(w) for w in ref.u64(len(pending))]
        rejected = []
        for i, w in zip(pending, words):
            if w < (1 << 64) % bounds[i]:
                rejected.append(i)
            else:
                expect[i] = w % bounds[i]
        pending = rejected
    assert r.counter == ref.counter > len(bounds)
    assert [v & MASK64 for v in got] == expect
