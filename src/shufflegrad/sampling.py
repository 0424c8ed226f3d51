"""Permutations and the index-sampling disciplines.

Provides one lazy Fisher-Yates permutation driven by the package's
counter-based generator, three samplers (with replacement, one shuffle
for the whole run, reshuffle at every epoch boundary), and exhaustive
permutation enumeration for the exact oracles.  Indices are 0-based everywhere; a
1-based position t in formulas corresponds to ``order[t - 1]``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DataExhausted, InvalidParameter
from .rng import Rng

WITH_REPLACEMENT = "with_replacement"
SINGLE_SHUFFLE = "single_shuffle"
RESHUFFLE_EACH_EPOCH = "reshuffle_each_epoch"

SAMPLER_KINDS = (WITH_REPLACEMENT, SINGLE_SHUFFLE, RESHUFFLE_EACH_EPOCH)

MAX_ENUMERATION = 9


def shuffle(m: int, rng: Rng) -> np.ndarray:
    """Uniformly random permutation of range(m) by Fisher-Yates."""
    if m < 1:
        raise InvalidParameter("shuffle needs m >= 1")
    return SingleShuffleSampler(m, rng).take(m)


def is_permutation(order: np.ndarray, m: int) -> bool:
    """True when ``order`` is a bijection on {0, ..., m-1}."""
    order = np.asarray(order)
    if order.shape != (m,):
        return False
    seen = np.zeros(m, dtype=bool)
    valid = (order >= 0) & (order < m)
    if not valid.all():
        return False
    seen[order] = True
    return bool(seen.all())


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

    This is the package's only Fisher-Yates loop: :func:`shuffle` and
    :class:`ReshuffleSampler` take their permutations from it.  It runs
    the forward ("swap position t with a uniform position in [t, m-1]")
    variant lazily, touching only the displaced positions, so runs that
    consume a short prefix of a large dataset stay cheap.  Position t
    consumes one bounded draw for t < m - 1 and none for t = m - 1, so the
    emitted sequence does not depend on how the takes are split.
    """

    kind = SINGLE_SHUFFLE

    def __init__(self, m: int, rng: Rng):
        if m < 1:
            raise InvalidParameter("sampler needs m >= 1")
        self.m = m
        self.rng = rng
        self.cursor = 0
        self._displaced: dict[int, int] = {}

    def take(self, n: int) -> np.ndarray:
        start, stop = self.cursor, self.cursor + n
        if stop > self.m:
            raise DataExhausted(
                f"single-shuffle sampler exhausted: asked for draw "
                f"{stop} of m={self.m} (data is seen at most once; "
                f"the supported regime is T <= m)"
            )
        n_draws = max(0, min(stop, self.m - 1) - start)
        offsets = self.rng.below(
            np.arange(self.m - start, self.m - start - n_draws, -1, dtype=np.uint64)
        )
        targets = (offsets + np.arange(start, start + n_draws)).tolist()
        displaced = self._displaced
        get = displaced.get
        out = []
        emit = out.append
        for t, j in enumerate(targets, start):
            emit(get(j, j))
            if j != t:
                displaced[j] = get(t, t)
        if n_draws < n:  # the last position needs no draw
            emit(get(self.m - 1, self.m - 1))
        self.cursor = stop
        return np.array(out, dtype=np.int64)


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
