"""Counter-based random stream derivation.

Every stochastic component draws from a stream derived from one master
seed plus a structured integer path (for example ``(scenario, slot)``).
Streams with different paths are statistically independent, and the draw
sequence of a given path never depends on how many other streams exist or
in which order they are consumed. This is what makes runs reproducible
bit-for-bit regardless of evaluation order.

``substream`` derives one stream through ``numpy.random.SeedSequence``
and returns its Generator. ``substreams`` derives many streams whose
paths share a prefix at once, as a ``Streams`` kernel: NumPy's
SeedSequence mixes the words they share, once, and gridtep runs the hash
steps of the remaining path words and of the seed words on uint32 arrays
with one column per stream, then seeds PCG64 (NumPy's default bit
generator) on uint64 words. PCG64 is a 128-bit linear congruential
generator, so ``Streams.random`` draws the next rows of ``n`` uniforms
of any subset of streams by jump-ahead, a fixed number of array
operations per pass: each row starts from its stream's state by a jump
of a multiple of ``n`` steps, so the cached jump constants grow with the
rows and ``n``, not with their product. Stream ``k`` draws exactly what
``substream(entropy, *path, *words)`` draws, bit for bit; the tests check
it.
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


def substreams(entropy, path, *columns) -> "Streams":
    """One stream per position of the equal-length ``columns`` of uint32
    path words: stream ``k`` draws exactly what
    ``substream(entropy, *path, *(c[k] for c in columns))`` draws."""
    run = _words(entropy)
    run += [0] * (_POOL_SIZE - len(run))  # SeedSequence pads when spawned
    shared = run + _words(path)

    # SeedSequence.mix_entropy over shared + the column words: NumPy mixes
    # the shared words, _POOL_SIZE hash steps each; the steps of each
    # column's word run here, with the pool as rows and one column per
    # stream.
    pool = np.random.SeedSequence(shared).pool[:, None]
    for t, column in enumerate(columns, len(shared)):
        words = np.asarray(column, dtype=np.uint32)
        steps = _steps(_INIT_A, _MULT_A, _POOL_SIZE * t, _POOL_SIZE)
        pool = _mix(pool, _hashmix(words, *steps))

    # generate_state(4, uint64): eight uint32 words cycling over the pool,
    # paired little-endian into uint64.
    state = _hashmix(np.tile(pool, (2, 1)), *_STATE_STEPS)
    seed = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(
        np.uint64, copy=False).T

    # PCG64's seeding (pcg64_set_seed), high word first: inc = seq << 1 | 1
    # and state = (inc + initial state) * multiplier + inc.
    inc_hi = seed[2] << _U1 | seed[3] >> _U63
    inc_lo = seed[3] << _U1 | _U1
    lo = inc_lo + seed[1]
    hi = inc_hi + seed[0] + (lo < inc_lo)
    inc = np.stack([inc_hi, inc_lo])
    state = _jump(_jumps(1), (hi[:, None], lo[:, None]), inc[:, :, None])
    return Streams(np.stack([words[:, 0] for words in state]), inc)


# PCG64 (numpy/random/src/pcg64): a 128-bit LCG, state' = M * state + inc,
# whose output is the XSL-RR of the new state. A 128-bit number is held
# as its high and low uint64 words. Every operand is uint64, so the
# arithmetic wraps mod 2**64 by itself; under NumPy 1.x, uint64 combined
# with a signed integer array would become float64.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# 0-d arrays: a NumPy scalar operand costs more per call.
_U1, _U11, _U32, _U58, _U63, _U64, _LOW32 = (
    np.array(k, dtype=np.uint64) for k in (1, 11, 32, 58, 63, 64, _MASK32))


@cache
def _jumps(n: int, step: int = 1, first: int = 1) -> tuple[np.ndarray, ...]:
    """Jump-ahead constants of ``n`` jumps of ``first * step``, ``(first +
    1) * step``, ... steps: a jump of j steps maps a state s to A_j * s +
    G_j * inc mod 2**128, with A_j = M**j and G_j the sum of M**i for i <
    j. Returned as uint64 rows: A's high and low word and the low word's
    two 32-bit halves, then the same for G."""
    a_step, g_step = 1, 0
    for _ in range(step):
        a_step, g_step = a_step * _PCG_MULT & _MASK128, (
            g_step * _PCG_MULT + 1) & _MASK128
    a, g, rows = 1, 0, []
    for j in range(first + n):
        if j >= first:
            rows.append([a >> 64, a & _MASK64, a & _MASK32,
                         a >> 32 & _MASK32, g >> 64, g & _MASK64,
                         g & _MASK32, g >> 32 & _MASK32])
        a, g = a_step * a & _MASK128, (a_step * g + g_step) & _MASK128
    return tuple(np.array(rows, dtype=np.uint64).reshape(n, 8).T)


def _leaps(rows: int, n: int) -> tuple[np.ndarray, ...]:
    """Jump-ahead constants of 0, n, 2n, ... steps, at least ``rows`` of
    them: the start of each of a stream's next rows of ``n`` uniforms.
    Their count is rounded up to a power of two, so the cached tables of
    all row counts hold at most twice the largest."""
    return _jumps(1 << (rows - 1).bit_length(), n, 0)


def _mulhi(c0, c1, s_lo):
    """High word of the 128-bit product of the uint64 with 32-bit halves
    ``c0``, ``c1`` and the uint64 ``s_lo``."""
    s0, s1 = s_lo & _LOW32, s_lo >> _U32
    p01, p10 = c0 * s1, c1 * s0
    mid = (c0 * s0 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    return c1 * s1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)


def _jump(jumps, state, inc):
    """The states 1 to n steps after ``state``, given ``_jumps(n)``: a
    (high, low) pair of (streams, n) arrays from (streams, 1) columns."""
    a_hi, a_lo, a0, a1, g_hi, g_lo, g0, g1 = jumps
    (s_hi, s_lo), (i_hi, i_lo) = state, inc
    t = a_lo * s_lo
    lo = t + g_lo * i_lo
    hi = _mulhi(a0, a1, s_lo)
    hi += _mulhi(g0, g1, i_lo)
    hi += a_lo * s_hi
    hi += a_hi * s_lo
    hi += g_lo * i_hi
    hi += g_hi * i_lo
    hi += lo < t  # the carry out of the low words
    return hi, lo


def _uniforms(hi, lo):
    """PCG64's XSL-RR output of each state, as Generator.random makes a
    double of it: its top 53 bits times 2**-53."""
    word = hi ^ lo
    turn = hi >> _U58
    word = word >> turn | word << ((_U64 - turn) & _U63)
    return (word >> _U11) * (1.0 / 9007199254740992.0)


class Streams:
    """PCG64 streams held as uint64 words, drawn as arrays.

    ``state`` and ``inc`` are (2, streams) arrays: the high and the low
    word of each stream's 128-bit state and increment.
    """

    def __init__(self, state: np.ndarray, inc: np.ndarray):
        self.state = state
        self.inc = inc

    @classmethod
    def of(cls, rng: np.random.Generator) -> "Streams":
        """One stream: a PCG64 Generator's current state."""
        words = rng.bit_generator.state["state"]
        return cls(*(np.array([[words[k] >> 64], [words[k] & _MASK64]],
                              dtype=np.uint64) for k in ("state", "inc")))

    def store(self, rng: np.random.Generator) -> None:
        """Set a PCG64 Generator to stream 0's state, so it goes on
        drawing where this stream stopped."""
        state = rng.bit_generator.state
        hi, lo = (int(w) for w in self.state[:, 0])
        state["state"]["state"] = hi << 64 | lo
        rng.bit_generator.state = state

    def random(self, index: np.ndarray, n: int, part: int,
               rows=1) -> np.ndarray:
        """The next ``rows[k] * n`` uniforms of each stream ``index`` lists
        (no stream twice), as ``rows[k]`` rows of ``n``, stream after
        stream: what ``Generator.random((rows[k], n))`` draws from it.
        ``rows`` is a count of at least 1 per stream, or one for all.
        Jumps run over parts of at most ``part`` rows, so their
        temporaries stay small however many rows are drawn."""
        rows = np.broadcast_to(rows, index.shape)
        ends = np.cumsum(rows)
        stream, leaps = index, None
        # One row per stream jumps from the stream states themselves; doing
        # that from per-row leaps too priced adequacy_mcs 7-13 % slower.
        if len(index) and ends[-1] > len(index):
            stream = np.repeat(index, rows)
            row = np.arange(len(stream)) - np.repeat(ends - rows, rows)
            leaps = _leaps(int(row.max()) + 1, n)
        steps = _jumps(n)
        state, inc = self.state[:, stream], self.inc[:, stream]
        out = np.empty((len(stream), n))
        for lo in range(0, len(stream), part):
            at = slice(lo, lo + part)
            start = state[:, at]
            if leaps is not None:  # each row from its stream's state
                start = _jump([c[row[at]] for c in leaps], start, inc[:, at])
            states = _jump(steps, (start[0][:, None], start[1][:, None]),
                           inc[:, at, None])
            state[:, at] = [words[:, -1] for words in states]
            out[at] = _uniforms(*states)
        self.state[:, index] = state[:, ends - 1]
        return out

    def seek(self, index: np.ndarray, start: np.ndarray, rows: np.ndarray,
             n: int) -> None:
        """Set each stream ``index`` lists to ``rows[k]`` rows of ``n``
        uniforms after ``start[:, k]``, one of its earlier states."""
        leaps = _leaps(int(rows.max()) + 1, n)
        self.state[:, index] = _jump([c[rows] for c in leaps], start,
                                     self.inc[:, index])


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
