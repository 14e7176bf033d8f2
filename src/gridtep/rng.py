"""Counter-based random stream derivation.

Every stochastic component draws from a Generator derived from one master
seed plus a structured integer path (for example ``(scenario, slot)``).
Streams with different paths are statistically independent, and the draw
sequence of a given path never depends on how many other streams exist or
in which order they are consumed. This is what makes runs reproducible
bit-for-bit regardless of evaluation order.

``substream`` derives one stream through ``numpy.random.SeedSequence``.
``substreams`` derives a run of streams whose paths differ only in their
last element (the Monte Carlo slots of one month) at once: NumPy's
SeedSequence mixes the words they share, and gridtep runs only the hash
steps of the stream index and of the seed words, on uint32 arrays with
one column per stream. Stream ``k`` draws exactly what
``substream(entropy, *path, k)`` draws, bit for bit; the tests check it.
"""

from __future__ import annotations

from functools import cache

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
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
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


def _steps(init: int, mult: int, first: int, n: int):
    """The hash constants before and after ``n`` SeedSequence hash steps
    from step ``first`` on, as two (n, 1) uint32 columns."""
    h = np.array([init * pow(mult, t, 1 << 32) & _MASK32
                  for t in range(first, first + n + 1)], dtype=np.uint32)
    return h[:-1, None], h[1:, None]


_STATE_STEPS = _steps(_INIT_B, _MULT_B, 0, 8)  # generate_state(4, uint64)


def _hashmix(value, h, h_next):
    """One hashmix step, given the hash constant before and after it.
    Every operand is uint32, so the arithmetic wraps by itself."""
    value = (value ^ h) * h_next
    return value ^ value >> _XSHIFT


def _mix(x, y):
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ r >> _XSHIFT


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

    # SeedSequence.mix_entropy over shared + [k]: NumPy mixes the shared
    # words, _POOL_SIZE hash steps each; only the steps of the last word, k,
    # run here, with the pool as rows and one column per stream.
    pool = np.random.SeedSequence(shared).pool[:, None]
    index = np.arange(count, dtype=np.uint32)
    steps = _steps(_INIT_A, _MULT_A, _POOL_SIZE * len(shared), _POOL_SIZE)
    pool = _mix(pool, _hashmix(index, *steps))

    # generate_state(4, uint64): eight uint32 words cycling over the pool,
    # paired little-endian into uint64.
    state = _hashmix(np.tile(pool, (2, 1)), *_STATE_STEPS)
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
