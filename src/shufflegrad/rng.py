"""Counter-based deterministic random number generation.

Every random quantity in this package is derived from a stream of 64-bit
words produced by the SplitMix64 mixing function evaluated at a counter.
Because the generator is a pure function of ``(seed, stream, counter)``,
identical inputs give identical output sequences on every platform, and
distinct streams of one seed can be handed to parallel workers without
coordination.

Algorithm
---------
All arithmetic is modulo 2**64.  With GOLDEN = 0x9E3779B97F4A7C15 and the
SplitMix64 finalizer::

    mix(z): z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
            z ^= z >> 27; z *= 0x94D049BB133111EB
            return z ^ (z >> 31)

a generator with parameters ``(seed, stream)`` produces its i-th word
(i = 0, 1, 2, ...) as::

    key     = mix(seed) ^ mix(stream + GOLDEN)
    word(i) = mix(key + (i + 1) * GOLDEN)

which is exactly the SplitMix64 sequence started from state ``key``.
Floats in [0, 1) take the top 53 bits: ``(word >> 11) * 2.0**-53``.
A bounded integer below b is ``w mod b`` of a word w, redrawn while
w < 2**64 mod b, so it is exactly uniform.  Normal deviates use the Box-Muller
transform: for ``normal(n)`` starting at counter ``base``, with
``pairs = ceil(n / 2)``, pair i takes u1 from word ``base + i`` and u2
from word ``base + pairs + i`` and gives deviates 2i (cosine) and 2i+1
(sine).  Since every word is addressed by its counter, the pairs are
evaluated ``NORMAL_PAIRS`` at a time, reading each block's words straight
from their counters, so memory stays bounded for any n; the blocking
changes neither a bit of the output nor the counters consumed.

Test vectors (seed=0, stream=0)::

    word(0..3) = 0xA706DD2F4D197E6F, 0xB382A305F4414F5E,
                 0x631A9154FBABF717, 0xA80ABA8C86640906

Test vectors (seed=42, stream=7)::

    word(0..3) = 0xC1AA9227BBDEF407, 0x8EFC6C8986E879F8,
                 0xFB82B3F884D832CC, 0xD1947F21C050F4DF

Counter consumption is documented per method so that interleaved use
stays reproducible: ``u64(n)`` and ``uniform(n)`` consume ``n`` words,
``normal(n)`` consumes ``2 * ceil(n / 2)``, and ``below`` consumes one
word per requested value plus one per rejected draw (a draw is rejected
with probability (2**64 mod bound) / 2**64, below bound / 2**64).  A
count that is not a non-negative integer, or a bound that is not a
positive integer below 2**64, raises ``InvalidParameter`` and consumes
nothing.  A seed or stream may be any integer (taken modulo 2**64); any
other value, a bool, a float or a string among them, raises
``InvalidParameter``.

Note on drawing from two streams of one seed: both walk the same
2**64-cycle of SplitMix64 at offsets mixed from the stream id, so the
chance that two streams consuming n words each overlap is about n/2**64.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

_U64_IN_FLOAT = 2.0 ** -53
_TWO_PI = 2.0 * np.pi
NORMAL_PAIRS = 1 << 13  # Box-Muller pairs evaluated at once

# Arithmetic on uint64 *arrays* wraps modulo 2**64 without a warning
# (only numpy scalar arithmetic warns), so no errstate guard is needed.
_SHIFT_11 = np.uint64(11)
_SHIFT_27 = np.uint64(27)
_SHIFT_30 = np.uint64(30)
_SHIFT_31 = np.uint64(31)
_MUL_1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL_2 = np.uint64(0x94D049BB133111EB)
_GOLDEN_U64 = np.uint64(GOLDEN)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on a uint64 array; returns it."""
    z ^= z >> _SHIFT_30
    z *= _MUL_1
    z ^= z >> _SHIFT_27
    z *= _MUL_2
    z ^= z >> _SHIFT_31
    return z


def _integer(n, message: str, least: int | None = 0) -> int:
    """``n`` as an int if it is an ``int`` or ``np.integer`` of at least
    ``least`` (of any value when ``least`` is None), else
    ``InvalidParameter(message)``: the package's one check of counts,
    sizes and seeds, so a bool, a float or a string is refused, never
    truncated or read as 0 or 1."""
    if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool)
            and (least is None or n >= least)):
        raise InvalidParameter(message)
    return int(n)


def _count(n) -> int:
    """``n`` as a number of values: a non-negative integer, else InvalidParameter."""
    return _integer(n, "a count of values must be a non-negative integer")


def _unit(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of each word."""
    return (words >> _SHIFT_11).astype(np.float64) * _U64_IN_FLOAT


class Rng:
    """Seedable counter-based generator; see the module docstring.

    Separate (seed, stream) pairs give independent sequences; a stream is
    typically one Monte-Carlo trial or one worker.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = _integer(seed, "seed must be an integer", None) & MASK64
        self.stream = _integer(stream, "stream must be an integer", None) & MASK64
        seed_word, stream_word = _mix(np.array([self.seed, (self.stream + GOLDEN) & MASK64],
                                               dtype=np.uint64))
        self._key = seed_word ^ stream_word
        self._counter = 0

    def __repr__(self):
        return f"Rng(seed={self.seed}, stream={self.stream}, counter={self._counter})"

    @property
    def counter(self) -> int:
        return self._counter

    def _words(self, start: int, n: int) -> np.ndarray:
        """Words at counters start .. start+n-1; the counter does not move."""
        idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
        idx *= _GOLDEN_U64
        idx += self._key
        return _mix(idx)

    def u64(self, n: int) -> np.ndarray:
        """Next n raw 64-bit words as a uint64 array; consumes n counters."""
        n = _count(n)
        start = self._counter
        self._counter += n
        return self._words(start, n)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1); consumes n counters."""
        return _unit(self.u64(n))

    def normal(self, n: int) -> np.ndarray:
        """n standard normal deviates via Box-Muller; consumes 2*ceil(n/2)."""
        out = np.empty(_count(n))
        self._normal_into(out)
        return out

    def _normal_into(self, out: np.ndarray) -> None:
        """Fill the flat float64 array ``out`` as ``normal(out.size)`` would.

        Works through ``NORMAL_PAIRS`` pairs at a time, each in contiguous
        temporaries, with the same per-element operations as one
        whole-array pass.
        """
        n = out.size
        pairs = (n + 1) // 2
        base = self._counter
        self._counter += 2 * pairs
        for lo in range(0, pairs, NORMAL_PAIRS):
            hi = min(lo + NORMAL_PAIRS, pairs)
            u1 = _unit(self._words(base + lo, hi - lo))
            # 1 - u1 lies in (0, 1], keeping the log argument positive.
            radius = np.sqrt(-2.0 * np.log1p(-u1))
            angle = _TWO_PI * _unit(self._words(base + pairs + lo, hi - lo))
            np.multiply(radius, np.cos(angle), out=out[2 * lo : 2 * hi : 2])
            odd = out[2 * lo + 1 : 2 * hi : 2]  # one short when n is odd
            np.multiply(radius[: odd.size], np.sin(angle[: odd.size]), out=odd)

    def below(self, bounds) -> np.ndarray:
        """Uniform integers 0 <= v < bounds[i], exactly unbiased.

        ``bounds`` may be a scalar (giving an ``np.int64``) or an array of
        an integer dtype, whose shape the result keeps; any bound that is
        not a positive integer below 2**64 raises before a word is drawn.
        Value i is w mod bounds[i] of a word w, redrawn while w < 2**64 mod
        bounds[i]; each round draws one word per value still pending, in
        index order.
        """
        b = np.asarray(bounds)  # an integer dtype holds integers below 2**64
        if b.dtype.kind not in "iu" or not (b > 0).all():
            raise InvalidParameter("bounds must be positive integers below 2**64")
        b = b.astype(np.uint64, copy=False)
        flat = b.reshape(-1)
        words = self.u64(flat.size)
        # 2**64 mod b is below b, so only a word below b can be rejected.
        pending = np.flatnonzero(words < flat)
        while pending.size:
            bound = flat[pending]
            pending = pending[words[pending] < -bound % bound]  # 2**64 mod b, in uint64
            words[pending] = self.u64(pending.size)
        words %= flat
        return words.view(np.int64).reshape(b.shape)[()]
