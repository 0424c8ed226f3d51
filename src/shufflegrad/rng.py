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
Bounded integers use rejection below the largest multiple of the bound,
so they are exactly uniform.  Normal deviates use the Box-Muller
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
word per requested value plus one per rejected draw (rejection
probability is below bound / 2**64, i.e. never observed in practice).

Note on drawing from two streams of one seed: both walk the same
2**64-cycle of SplitMix64 at offsets mixed from the stream id, so the
chance that two streams consuming n words each overlap is about n/2**64.
"""

from __future__ import annotations

import numpy as np

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
_ZERO_U64 = np.uint64(0)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on a uint64 array; returns it."""
    z ^= z >> _SHIFT_30
    z *= _MUL_1
    z ^= z >> _SHIFT_27
    z *= _MUL_2
    z ^= z >> _SHIFT_31
    return z


def _unit(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of each word."""
    return (words >> _SHIFT_11).astype(np.float64) * _U64_IN_FLOAT


class Rng:
    """Seedable counter-based generator; see the module docstring.

    Separate (seed, stream) pairs give independent sequences; a stream is
    typically one Monte-Carlo trial or one worker.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & MASK64
        self.stream = int(stream) & MASK64
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
        if n < 0:
            raise ValueError("n must be non-negative")
        start = self._counter
        self._counter += n
        return self._words(start, n)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1); consumes n counters."""
        return _unit(self.u64(n))

    def normal(self, n: int) -> np.ndarray:
        """n standard normal deviates via Box-Muller; consumes 2*ceil(n/2)."""
        out = np.empty(n)
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

        ``bounds`` may be a scalar or an array of positive integers; the
        result matches its shape.  Draws whose word falls above the
        largest multiple of the bound are rejected and redrawn.
        """
        b = np.asarray(bounds, dtype=np.uint64)
        shape = b.shape
        b = b.reshape(-1)
        if b.size == 0:
            return np.empty(0, dtype=np.int64)
        if not b.all():
            raise ValueError("bounds must be positive")
        words = self.u64(b.size)
        # A word is rejected when it is below 2**64 mod b, which is below b.
        if (words >= b).all():
            words %= b
            out = words.view(np.int64)
        else:
            # 2**64 mod b, computed as (2**64 - b) mod b in uint64 arithmetic
            reject_below = (_ZERO_U64 - b) % b
            out = np.empty(b.size, dtype=np.int64)
            pending = np.arange(b.size)
            while pending.size:
                ok = words >= reject_below[pending]
                done = pending[ok]
                out[done] = (words[ok] % b[done]).astype(np.int64)
                pending = pending[~ok]
                if pending.size:
                    words = self.u64(pending.size)
                else:
                    break
        if not shape:
            return out[0]
        return out.reshape(shape)
