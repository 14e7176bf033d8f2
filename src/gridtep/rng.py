"""Counter-based random stream derivation.

Every stochastic component draws from a Generator derived from one master
seed plus a structured integer path (for example ``(scenario, slot)``).
Streams with different paths are statistically independent, and the draw
sequence of a given path never depends on how many other streams exist or
in which order they are consumed. This is what makes runs reproducible
bit-for-bit regardless of evaluation order.

``substream`` derives one stream through ``numpy.random.SeedSequence``.
``substreams`` derives a run of streams that differ only in their last
path element (the Monte Carlo slots of one month) in one vectorized pass:
it reproduces numpy's SeedSequence hashing in uint32 array arithmetic,
one column per stream, and seeds each PCG64 from its column. Its stream
``k`` must draw exactly what ``substream(entropy, *path, k)`` draws; the
tests hold it to that, bit for bit.
"""

from __future__ import annotations

from functools import cache
from itertools import pairwise

import numpy as np

# Fixed path prefixes so different subsystems can never collide.
DOMAIN_MCS = 1
DOMAIN_SPIN = 2
DOMAIN_GA = 3


def substream(entropy, *path: int) -> np.random.Generator:
    """Return an independent Generator for (entropy, path).

    ``entropy`` may be an int or a sequence of non-negative ints (e.g. a
    master seed plus a chromosome fingerprint); ``path`` elements must fit
    in uint32.
    """
    seq = np.random.SeedSequence(entropy=entropy, spawn_key=tuple(path))
    return np.random.default_rng(seq)


# Constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _words(value) -> list[int]:
    """A non-negative int, or a sequence of them, as little-endian uint32
    words, the way SeedSequence coerces its entropy and spawn key."""
    if isinstance(value, (int, np.integer)):
        n = int(value)
        if n < 0:
            raise ValueError("expected non-negative integer")
        out = [n & _MASK32]
        n >>= 32
        while n:
            out.append(n & _MASK32)
            n >>= 32
        return out
    if value is None:
        raise ValueError("entropy must be given; None would seed from the OS")
    return [w for v in value for w in _words(v)]


# The hash steps take a 32-bit word as a Python int or as a uint32 array;
# masking keeps ints at 32 bits, and array arithmetic wraps by itself.

def _hash_constants(init: int, mult: int):
    """SeedSequence's running hash constant: init, init * mult, ..."""
    h = init
    while True:
        yield h
        h = h * mult & _MASK32


def _hashmix(value, h, h_next):
    """One hashmix step, given the hash constant before and after it."""
    value = (value ^ h) * h_next & _MASK32
    return value ^ value >> _XSHIFT


def _mix(x, y):
    r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return r ^ r >> _XSHIFT


def _next_constants(pairs, n: int):
    """The next ``n`` (before, after) hash constant pairs, as two (n, 1)
    uint32 columns."""
    h, h_next = np.array([next(pairs) for _ in range(n)], dtype=np.uint32).T
    return h[:, None], h_next[:, None]


@cache
def _seed_type():
    # numpy.random is imported here, not with gridtep: loading a case
    # should not pay for it.
    from numpy.random.bit_generator import ISeedSequence

    class SeededState(ISeedSequence):
        """Hands PCG64 the four uint64 seed words it asks SeedSequence
        for, computed by ``substreams``."""

        __slots__ = ("state",)

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return SeededState


def substreams(entropy, path, count: int) -> list[np.random.Generator]:
    """``count`` Generators; the ``k``-th draws exactly what
    ``substream(entropy, *path, k)`` draws."""
    run = _words(entropy)
    run += [0] * (_POOL_SIZE - len(run))  # SeedSequence pads when spawned
    shared = run + _words(path)

    # SeedSequence.mix_entropy over shared + [k]. The shared words are
    # hashed once, as ints; the stream index k comes last, so only its step
    # runs per stream, with the pool as rows and one column per stream.
    pairs = pairwise(_hash_constants(_INIT_A, _MULT_A))

    def hashmix(value):
        return _hashmix(value, *next(pairs))

    pool = [hashmix(w) for w in shared[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in shared[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(w))
    index = np.arange(count, dtype=np.uint32)
    pool = _mix(np.array(pool, dtype=np.uint32)[:, None],
                _hashmix(index, *_next_constants(pairs, _POOL_SIZE)))

    # generate_state(4, uint64): eight uint32 words cycling over the pool,
    # paired little-endian into uint64.
    pairs = pairwise(_hash_constants(_INIT_B, _MULT_B))
    state = _hashmix(np.tile(pool, (2, 1)), *_next_constants(pairs, 8))
    seeds = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(
        np.uint64, copy=False)

    seeded, pcg64, generator = _seed_type(), np.random.PCG64, np.random.Generator
    return [generator(pcg64(seeded(s))) for s in seeds]


def chromosome_entropy(seed: int, bits) -> list[int]:
    """Entropy list mixing the run seed with a chromosome's bit pattern.

    The same chromosome always maps to the same entropy within a run, so
    re-evaluations (GA revisits, caching) are guaranteed identical.
    """
    fingerprint = 0
    for b in bits:
        fingerprint = (fingerprint << 1) | int(bool(b))
    # +1 so the empty chromosome is distinguishable from fingerprint 0 of "0"
    return [int(seed), fingerprint + 1]
