"""Permutations and the index-sampling disciplines.

Provides one Fisher-Yates permutation driven by the package's
counter-based generator, three samplers (with replacement, one shuffle
for the whole run, reshuffle at every epoch boundary), exhaustive
permutation enumeration for the exact oracles, the package's one check
of index sequences from outside (:func:`explicit_indices`), and the one
builder of a run's index schedule (:func:`schedule`), which the SGD and
SVRG drivers call.  The permutation is drawn in takes: each take draws
the swap targets of its steps in one call and resolves the swaps with
array operations (one argsort and a few pointer-jumping passes,
O(n log n) for a take of n).  A sampler's first take reads the identity
arrangement without building it; a second take builds one int64
position-to-value vector, kept until the last value is emitted.
Sizes are limited to m < 2**31.  Indices are 0-based everywhere; a
1-based position t in formulas corresponds to ``order[t - 1]``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DataExhausted, IndexOutOfRange, InvalidParameter
from .rng import Rng

WITH_REPLACEMENT = "with_replacement"
SINGLE_SHUFFLE = "single_shuffle"
RESHUFFLE_EACH_EPOCH = "reshuffle_each_epoch"

SAMPLER_KINDS = (WITH_REPLACEMENT, SINGLE_SHUFFLE, RESHUFFLE_EACH_EPOCH)

MAX_ENUMERATION = 9
MAX_SHUFFLE = 2**31


def shuffle(m: int, rng: Rng) -> np.ndarray:
    """Uniformly random permutation of range(m) by Fisher-Yates."""
    if m < 1:
        raise InvalidParameter("shuffle needs m >= 1")
    return SingleShuffleSampler(m, rng).take(m)


def is_permutation(order: np.ndarray, m: int) -> bool:
    """True when ``order`` is an integer array that is a bijection on {0, ..., m-1}."""
    order = np.asarray(order)
    if order.shape != (m,) or order.dtype.kind not in "iu":
        return False
    seen = np.zeros(m, dtype=bool)
    valid = (order >= 0) & (order < m)
    if not valid.all():
        return False
    seen[order] = True
    return bool(seen.all())


def explicit_indices(seq, m: int, need: int | None = None, name: str = "sigma") -> np.ndarray:
    """The first ``need`` entries (all by default) of the 1-D sequence
    ``seq`` of integer indices in [0, m), as int64; ``name`` words the errors.

    The package's one check of outside indices.  Bools and floats are
    rejected; an empty sequence of any dtype is an empty index list.  A
    range error is an :class:`IndexOutOfRange`, the others its base class
    :class:`InvalidParameter`.
    """
    idx = np.asarray(seq)
    if idx.ndim != 1:
        raise InvalidParameter(f"{name} must be a 1-D index sequence, got shape {idx.shape}")
    if need is not None and idx.size < need:
        raise InvalidParameter(f"{name} provides {idx.size} indices, need {need}")
    if idx.size and idx.dtype.kind not in "iu":
        raise InvalidParameter(f"{name} must hold integer indices, got dtype {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= m):
        raise IndexOutOfRange(f"{name} contains out-of-range indices")
    return idx[:need].astype(np.int64, copy=False)


def schedule(kind: str, m: int, rows: int, cols: int, rng: Rng, epoch_len: int,
             sigma=None) -> np.ndarray:
    """A run's (rows, cols) int64 index schedule.

    The first rows * cols entries of ``sigma`` when given, else ``rows``
    takes of ``cols`` from a ``kind`` sampler on ``rng`` (``epoch_len``
    sets the reshuffle sampler's epoch), in order.  A single shuffle draws
    each point at most once, so it needs rows * cols <= m.
    """
    if sigma is not None:
        return explicit_indices(sigma, m, rows * cols).reshape(rows, cols)
    if kind == SINGLE_SHUFFLE and rows * cols > m:
        raise InvalidParameter(
            f"single-shuffle sampling draws each of the m={m} points at most once; "
            f"the run needs {rows * cols} draws"
        )
    sampler = make_sampler(kind, m, rng, epoch_len)
    return np.stack([sampler.take(cols) for _ in range(rows)])


def enumerate_permutations(m: int):
    """All m! permutations of range(m) in lexicographic order.

    Guarded at m <= 9 (9! = 362,880) so a typo cannot hang a test run.
    """
    if m < 1:
        raise InvalidParameter("enumeration needs m >= 1")
    if m > MAX_ENUMERATION:
        raise InvalidParameter(
            f"refusing to enumerate {m}! permutations (limit m <= {MAX_ENUMERATION})"
        )
    return itertools.permutations(range(m))


class WithReplacementSampler:
    """Independent uniform draws from {0, ..., m-1}."""

    kind = WITH_REPLACEMENT

    def __init__(self, m: int, rng: Rng):
        if m < 1:
            raise InvalidParameter("sampler needs m >= 1")
        self.m = m
        self.rng = rng

    def take(self, n: int) -> np.ndarray:
        return self.rng.below(np.full(n, self.m, dtype=np.uint64))


class SingleShuffleSampler:
    """One permutation drawn up front; at most m draws for the whole run.

    This is the package's only Fisher-Yates shuffle: :func:`shuffle`,
    :class:`ReshuffleSampler` and the distributed partition take their
    permutations from it.  It is the forward variant: step t swaps
    position t with a uniform position j_t in [t, m-1] and emits the value
    that lands at t.  Step t consumes one bounded draw for t < m - 1 and
    none for t = m - 1, and each take makes one ``below`` call for all of
    its steps, so the emitted sequence does not depend on how the takes
    are split.

    A take evaluates its k steps with array operations instead of one
    swap at a time.  The value a step reads from a position is the value
    the latest earlier step targeting that position wrote there, or the
    position's value at the start of the take when none did.  One argsort
    of the keys (j_t, t) groups the steps by target, which gives for each
    step the previous step with the same target (its output) and the
    last step whose target is its own position (its outgoing value);
    pointer jumping resolves the chains of the latter in about
    log2(longest chain) passes.  A take costs O(k log k).

    The first take reads the identity arrangement without building it
    and keeps only the positions it changed, so a sampler used for one
    take (a reshuffle epoch, or :func:`shuffle`) costs O(k).  A second
    take builds one int64 position-to-value vector (8·m bytes) from those
    changes; it is freed once all m values are emitted.  Sort keys must
    fit in int64, so m is limited to m < 2**31.
    """

    kind = SINGLE_SHUFFLE

    def __init__(self, m: int, rng: Rng):
        if m < 1:
            raise InvalidParameter("sampler needs m >= 1")
        if m >= MAX_SHUFFLE:
            raise InvalidParameter(
                f"sampler needs m < 2**31 so its int64 sort keys cannot overflow (got m={m})"
            )
        self.m = m
        self.rng = rng
        self.cursor = 0
        self._state: np.ndarray | None = None
        self._first: tuple[np.ndarray, np.ndarray] | None = None

    def take(self, n: int) -> np.ndarray:
        m, start, stop = self.m, self.cursor, self.cursor + n
        if stop > m:
            raise DataExhausted(
                f"single-shuffle sampler exhausted: asked for draw "
                f"{stop} of m={m} (data is seen at most once; "
                f"the supported regime is T <= m)"
            )
        if start == 0:
            state = None  # the identity, read without building it
        else:
            if self._state is None:
                self._state = np.arange(m, dtype=np.int64)
                if self._first is not None:
                    self._state[self._first[0]] = self._first[1]
                    self._first = None
            state = self._state[start:]  # indexed by position - start
        k = max(0, min(stop, m - 1) - start)
        # Step t of the take swaps positions t and target[t] >= t.
        steps = np.arange(k)
        target = self.rng.below(np.arange(m - start, m - start - k, -1, dtype=np.uint64))
        target += steps
        order = (target * k + steps).argsort()  # by target, then by step
        grouped = target[order]
        # Runs of one target in sorted order: order[starts[g]] is the first
        # step aiming at position aim[g], order[ends[g]] the last.
        edge = np.empty(k + 1, dtype=bool)
        edge[0] = edge[k] = True
        np.not_equal(grouped[1:], grouped[:-1], out=edge[1:k])
        bounds = edge.nonzero()[0]
        starts, ends = bounds[:-1], bounds[1:] - 1
        heads, tails, aim = order[starts], order[ends], grouped[starts]
        # prev[t]: the latest earlier step with t's target, or t itself if none.
        prev = np.empty(k, dtype=np.intp)
        prev[order[1:]] = order[:-1]
        prev[heads] = heads
        # ptr[t]: the latest earlier step whose target is position t, or t
        # itself if none.  aim is ascending, so the positions of this take's
        # steps come first.
        ptr = np.arange(k)
        inside = aim.searchsorted(k)
        ptr[aim[:inside]] = tails[:inside]
        # A step aiming at its own position is the last to aim there; the
        # value it finds was left by the step before it at that target.
        selfs = target == steps
        ptr[selfs] = prev[selfs]
        while True:  # pointer jumping: ptr[t] becomes the first step of t's chain
            up = ptr[ptr]
            if (up == ptr).all():
                break
            ptr = up
        # moved[t]: the value at position t just before step t
        moved = ptr if state is None else state[ptr]
        out = np.empty(n, dtype=np.int64)
        out[:k] = moved[prev]
        # A first step reads the value the take started with.
        out[heads] = aim if state is None else state[aim]
        # Each targeted position keeps what its last swap left there (the
        # positions of this take's steps are never read again).
        left = moved[tails]
        if state is not None:
            state[aim] = left
            if k < n:  # the last position needs no draw
                out[k] = state[k]
        elif k < n:
            out[k] = left[-1] if k and aim[-1] == k else k
        elif k:  # the vector is built from these if another take comes
            self._first = (aim, left)
        self.cursor = stop
        if stop == m:
            self._state = None
        return out


class ReshuffleSampler:
    """A fresh uniform permutation at every epoch boundary.

    The epoch length is supplied by the caller (SVRG passes its inner
    loop length); the sampler never guesses it.
    """

    kind = RESHUFFLE_EACH_EPOCH

    def __init__(self, m: int, rng: Rng, epoch_len: int):
        if m < 1:
            raise InvalidParameter("sampler needs m >= 1")
        if epoch_len < 1 or epoch_len > m:
            raise InvalidParameter("epoch_len must satisfy 1 <= epoch_len <= m")
        self.m = m
        self.rng = rng
        self.epoch_len = epoch_len
        self._current = np.empty(0, dtype=np.int64)
        self._used = 0

    def take(self, n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.int64)
        filled = 0
        while filled < n:
            if self._used == self._current.size:
                self._current = SingleShuffleSampler(self.m, self.rng).take(self.epoch_len)
                self._used = 0
            grab = min(n - filled, self._current.size - self._used)
            out[filled : filled + grab] = self._current[self._used : self._used + grab]
            self._used += grab
            filled += grab
        return out


def make_sampler(kind: str, m: int, rng: Rng, epoch_len: int | None = None):
    """Sampler factory keyed by the three discipline names."""
    if kind == WITH_REPLACEMENT:
        return WithReplacementSampler(m, rng)
    if kind == SINGLE_SHUFFLE:
        return SingleShuffleSampler(m, rng)
    if kind == RESHUFFLE_EACH_EPOCH:
        if epoch_len is None:
            raise InvalidParameter("reshuffle sampler needs an explicit epoch_len")
        return ReshuffleSampler(m, rng, epoch_len)
    raise InvalidParameter(f"unknown sampler kind {kind!r}; expected one of {SAMPLER_KINDS}")
