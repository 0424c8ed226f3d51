"""Permutations and the index-sampling disciplines.

Provides one Fisher-Yates permutation driven by the package's
counter-based generator, the one builder of a run's index schedule
(:func:`schedule`), which the SGD and SVRG drivers call and which draws
each of the three disciplines (with replacement, one shuffle for the
whole run, a fresh shuffle at every epoch boundary), exhaustive
permutation enumeration for the exact oracles, and the package's one
check of index sequences from outside (:func:`explicit_indices`).  Every
permutation is read as a prefix drawn in one take: the take draws the
swap targets of its steps in one call and resolves the swaps with array
operations (one argsort and a few pointer-jumping passes, O(n log n) for
a prefix of n), reading the identity arrangement without building it.
Sizes are limited to m < 2**31.  Indices are 0-based everywhere; a
1-based position t in formulas corresponds to ``order[t - 1]``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import IndexOutOfRange, InvalidParameter
from .rng import Rng, _integer

WITH_REPLACEMENT = "with_replacement"
SINGLE_SHUFFLE = "single_shuffle"
RESHUFFLE_EACH_EPOCH = "reshuffle_each_epoch"

SAMPLER_KINDS = (WITH_REPLACEMENT, SINGLE_SHUFFLE, RESHUFFLE_EACH_EPOCH)

MAX_ENUMERATION = 9
MAX_SHUFFLE = 2**31


def shuffle(m: int, rng: Rng) -> np.ndarray:
    """Uniformly random permutation of range(m) by Fisher-Yates."""
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


def explicit_indices(seq, m: int, need: int | None = None, name: str = "sigma",
                     batch: bool = False) -> np.ndarray:
    """The first ``need`` entries (all by default) of the 1-D sequence
    ``seq`` of integer indices in [0, m), as int64; ``name`` words the errors.

    The package's one check of outside indices.  Bools and floats are
    rejected; an empty sequence of any dtype is an empty index list.  A
    range error is an :class:`IndexOutOfRange`, the others its base class
    :class:`InvalidParameter`.  With ``batch``, a 2-D ``seq`` of at least
    one row is read too, the first ``need`` entries of every row; it is
    checked as one array, and a range error names the row.
    """
    idx = np.asarray(seq)
    rows = batch and idx.ndim == 2
    if not (idx.ndim == 1 or rows and len(idx)):
        dims = "1-D or nonempty 2-D" if batch else "1-D"
        raise InvalidParameter(f"{name} must be a {dims} index sequence, got shape {idx.shape}")
    if need is not None and idx.shape[-1] < need:
        each = "rows provide" if rows else "provides"
        raise InvalidParameter(f"{name} {each} {idx.shape[-1]} indices, need {need}")
    if idx.size and idx.dtype.kind not in "iu":
        raise InvalidParameter(f"{name} must hold integer indices, got dtype {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= m):
        *row, pos = np.argwhere((idx < 0) | (idx >= m))[0]
        where = f" row {row[0]}" if rows else ""
        raise IndexOutOfRange(f"{name}{where} holds index {idx[(*row, pos)]} at position {pos}, "
                              f"outside [0, {m})")
    return idx[..., :need].astype(np.int64, copy=False)


def schedule(kind: str, m: int, rows: int, cols: int, rng: Rng, sigma=None) -> np.ndarray:
    """A run's (rows, cols) int64 index schedule.

    The first rows * cols entries of ``sigma`` when given, else ``rows``
    rows of ``cols`` drawn on ``rng`` by the ``kind`` discipline, in order:
    independent uniform draws, one ``below`` call per row; the first
    rows * cols values of one permutation, so each point is drawn at most
    once and the run needs rows * cols <= m; or a fresh permutation for
    every epoch of min(cols, m) draws, the epochs read back to back.
    """
    if sigma is not None:
        return explicit_indices(sigma, m, rows * cols).reshape(rows, cols)
    if kind == WITH_REPLACEMENT:
        return np.stack([rng.below(np.full(cols, m, dtype=np.uint64)) for _ in range(rows)])
    if kind == SINGLE_SHUFFLE:
        return SingleShuffleSampler(m, rng).take(rows * cols).reshape(rows, cols)
    if kind == RESHUFFLE_EACH_EPOCH:
        epoch = min(cols, m)
        draws = np.concatenate([SingleShuffleSampler(m, rng).take(epoch)
                                for _ in range(-(-rows * cols // epoch))])
        return draws[: rows * cols].reshape(rows, cols)
    raise InvalidParameter(f"unknown sampler kind {kind!r}; expected one of {SAMPLER_KINDS}")


def enumerate_permutations(m: int):
    """All m! permutations of range(m) in lexicographic order.

    Guarded at m <= 9 (9! = 362,880) so a typo cannot hang a test run.
    """
    if _integer(m, "enumeration needs an integer m >= 1", 1) > MAX_ENUMERATION:
        raise InvalidParameter(
            f"refusing to enumerate {m}! permutations (limit m <= {MAX_ENUMERATION})"
        )
    return itertools.permutations(range(m))


class SingleShuffleSampler:
    """Prefixes of uniformly random permutations of range(m).

    This is the package's only Fisher-Yates shuffle: :func:`shuffle`,
    :func:`schedule` and the distributed partition each draw their
    permutation prefix from it in one take, and no caller takes twice.
    Each take is the prefix of a fresh permutation on the sampler's
    ``rng``; it draws only the steps it emits.  It is the forward
    variant: step t swaps position t with a uniform position j_t in
    [t, m-1] and emits the value that lands at t.  Step t consumes one
    bounded draw for t < m - 1 and none for t = m - 1, all in one
    ``below`` call, so a take of n is the first n values of the take of m.

    A take evaluates its n steps with array operations instead of one
    swap at a time, reading the identity arrangement without building
    it, so it costs O(n log n) whatever m is.  The value a step reads
    from a position is the value the latest earlier step targeting that
    position wrote there, or the position itself when none did.  One
    argsort of the keys (j_t, t) groups the steps by target, which gives
    for each step the previous step with the same target (its output)
    and the last step whose target is its own position (its outgoing
    value); pointer jumping resolves the chains of the latter in about
    log2(longest chain) passes.  Sort keys must fit in int64, so m is
    limited to m < 2**31.
    """

    def __init__(self, m: int, rng: Rng):
        _integer(m, "sampler needs an integer m >= 1", 1)
        if m >= MAX_SHUFFLE:
            raise InvalidParameter(
                f"sampler needs m < 2**31 so its int64 sort keys cannot overflow (got m={m})"
            )
        self.m = m
        self.rng = rng

    def take(self, n: int) -> np.ndarray:
        m = self.m
        if n > m:
            raise InvalidParameter(
                f"single-shuffle sampling draws each of the m={m} points at most once; "
                f"the run needs {n} draws"
            )
        k = max(0, min(n, m - 1))
        # Step t swaps positions t and target[t] >= t.
        steps = np.arange(k)
        target = self.rng.below(np.arange(m, m - k, -1, dtype=np.uint64))
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
        # itself if none.  aim is ascending, so the positions of the steps
        # come first.
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
        # ptr[t] is also the value at position t just before step t.
        out = np.empty(n, dtype=np.int64)
        out[:k] = ptr[prev]
        # A first step reads the position's own value.
        out[heads] = aim
        if k < n:  # the last position needs no draw; it keeps what its last swap left
            out[k] = ptr[tails[-1]] if k and aim[-1] == k else k
        return out
