"""Counter-based random stream derivation.

Every stochastic component draws from a stream derived from one master
seed plus a structured integer path (for example ``(scenario, slot)``).
Streams with different paths are statistically independent, and the draw
sequence of a given path never depends on how many other streams exist or
in which order they are consumed. This is what makes runs reproducible
bit-for-bit regardless of evaluation order.

``substream`` derives one stream through ``numpy.random.SeedSequence``
and returns its Generator. ``substreams`` derives many streams whose
paths share a prefix at once, as a ``Streams`` kernel, which only the
Monte Carlo scenario's ``contingency.RoundSampler`` draws from: NumPy's
SeedSequence mixes the words they share, once, and gridtep runs the hash
steps of the remaining path words and of the seed words on uint32 arrays
with one column per stream, then seeds PCG64 (NumPy's default bit
generator) on uint64 words. Stream ``k`` draws exactly what
``substream(entropy, *path, *words)`` draws, bit for bit; the tests check
it.

PCG64 is a 128-bit linear congruential generator (O'Neill 2014), so a
stream can skip ahead by any number of steps in a fixed number of
operations (Brown 1994). ``Streams.codes`` draws the next rows of ``n``
uniforms of any subset of streams as outage codes, never as floats: the
bit of element j is set when the row's j-th uniform is below the
element's rate, decided on the integer output word against the exact
bound ``ceil(rate * 2**53)`` (``limits``), and the bits are shifted into
uint64 words, element 0 first (``unpack`` reads them back). Each row
starts from its stream's state, by a jump of a multiple of ``n`` steps
when a stream draws several rows. A pass of few rows then jumps to all
``n`` states of every row at once, a fixed number of operations over
(rows, n) arrays; a pass of ``STEP_ROWS`` rows or more steps every row's
state one element at a time over 1-D row vectors, which stay in cache
however many rows there are.
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
# M's high and low word, and the low word's two 32-bit halves.
_M_HI, _M_LO, _M0, _M1 = (
    np.array(k, dtype=np.uint64) for k in (
        _PCG_MULT >> 64, _PCG_MULT & _MASK64, _PCG_MULT & _MASK32,
        _PCG_MULT >> 32 & _MASK32))
# Rows from which a pass steps every row's state one element at a time
# over 1-D row vectors instead of jumping to all n states of each row at
# once over (rows, n) arrays. Stepping costs about 34 NumPy calls per
# element whatever the row count; the jump costs a few dozen per pass,
# each over rows * n words. On a 2-vCPU VM, at 25 elements, the jump took
# 0.05 ms at 8 rows against 0.37 for stepping, 0.26 against 0.44 at 256
# rows, both about 0.5 ms at 384, and 5.3 ms at 3,000 rows against 1.3;
# at 11 and at 70 elements they crossed between 256 and 512 rows too.
# The threshold sits at the low end: plan_mcs_wel, whose passes fall on
# both sides, ran as fast in process from 256 as from 384, and the jump's
# (rows, n) temporaries stay smaller (tracemalloc peak of one study
# 1.28 MB against 1.37 MB).
STEP_ROWS = 256


def limits(rates) -> np.ndarray:
    """Each outage rate as an integer bound on the top 53 bits ``k`` of a
    PCG64 output word: ``Generator.random`` makes the double ``k * 2**-53``
    of the word, which is below the rate exactly when ``k`` is below
    ``ceil(rate * 2**53)``. Scaling by a power of two is exact, so rates
    0 and 1 give 0 (never out) and 2**53 (always out)."""
    scaled = np.clip(np.asarray(rates, dtype=float), 0.0, 1.0) * 2.0**53
    return np.ceil(scaled).astype(np.uint64)


@cache
def _layout(n: int) -> tuple[np.ndarray, ...]:
    """Where each of ``n`` elements lies in a code of uint64 words: its
    word, its bit's shift in that word, and each word's first element.
    Word w holds elements 64w to 64w + 63, the last word the rest; a
    word's first element is its most significant bit and its last the
    least, so codes compare as their bit strings do."""
    j = np.arange(n)
    word = j // 64
    shift = np.minimum(64, n - 64 * word) - 1 - j % 64
    return word, shift.astype(np.uint64), np.arange(0, n, 64)


def unpack(codes: np.ndarray, n: int) -> np.ndarray:
    """The bool (rows, n) rows of ``n`` bits that (rows, words) codes of
    ``Streams.codes`` hold."""
    word, shift, _ = _layout(n)
    return (codes[:, word] >> shift & _U1).astype(bool)


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


def _jump_codes(state, inc, limits):
    """Codes of rows from their start states by one jump to all ``n``
    states of each row, as (rows, n) arrays; and each row's last state."""
    (hi, lo), (i_hi, i_lo) = state, inc
    hi, lo = _jump(_jumps(len(limits)), (hi[:, None], lo[:, None]),
                   (i_hi[:, None], i_lo[:, None]))
    word = hi ^ lo
    turn = hi >> _U58
    word = word >> turn | word << ((_U64 - turn) & _U63)
    _, shift, starts = _layout(len(limits))
    bits = (word >> _U11 < limits) << shift
    codes = np.bitwise_or.reduceat(bits, starts, axis=1)
    return codes, (hi[:, -1], lo[:, -1])


def _step_codes(state, inc, limits):
    """Codes of rows from their start states by stepping every row's
    state one element at a time, each step and output over 1-D row
    vectors written in place, so a pass's arrays stay in cache; and each
    row's last state."""
    hi, lo = (np.array(words) for words in state)
    i_hi, i_lo = inc
    s0, s1, t, u, v, word, turn = (np.empty_like(lo) for _ in range(7))
    bit = np.empty(len(lo), dtype=bool)
    codes = np.zeros(((len(limits) + 63) // 64, len(lo)), dtype=np.uint64)
    for j, limit in enumerate(limits[:, None]):
        code = codes[j // 64]
        # hi:lo = M * hi:lo + inc; s1 ends as the high word of M_lo * lo.
        np.bitwise_and(lo, _LOW32, out=s0)
        np.right_shift(lo, _U32, out=s1)
        np.multiply(s0, _M0, out=t)
        np.multiply(s0, _M1, out=u)
        np.right_shift(t, _U32, out=t)
        u += t
        np.multiply(s1, _M0, out=v)
        np.bitwise_and(u, _LOW32, out=t)
        v += t
        s1 *= _M1
        u >>= _U32
        s1 += u
        v >>= _U32
        s1 += v
        hi *= _M_LO
        hi += s1
        np.multiply(lo, _M_HI, out=t)
        hi += t
        lo *= _M_LO
        lo += i_lo
        hi += i_hi
        np.less(lo, i_lo, out=bit)  # the carry out of the low words
        hi += bit
        # XSL-RR output: hi ^ lo rotated right by hi's top 6 bits; its
        # top 53 bits against the element's limit.
        np.bitwise_xor(hi, lo, out=word)
        np.right_shift(hi, _U58, out=turn)
        np.right_shift(word, turn, out=t)
        np.subtract(_U64, turn, out=turn)
        turn &= _U63
        word <<= turn
        word |= t
        word >>= _U11
        np.less(word, limit, out=bit)
        code <<= _U1
        code |= bit
    return codes.T, (hi, lo)


class Streams:
    """PCG64 streams held as uint64 words, drawn as arrays.

    ``state`` and ``inc`` are (2, streams) arrays: the high and the low
    word of each stream's 128-bit state and increment.
    """

    def __init__(self, state: np.ndarray, inc: np.ndarray):
        self.state = state
        self.inc = inc

    def codes(self, index: np.ndarray, limits: np.ndarray,
              rows=1) -> np.ndarray:
        """The outage codes of the next ``rows[k]`` rows of ``n =
        len(limits)`` uniforms of each stream ``index`` lists (no stream
        twice), stream after stream, as (rows, words) uint64: bit j of a
        row is set when its j-th uniform, what ``Generator.random((rows[k],
        n))`` draws there, is below the rate of ``limits[j]`` (see
        ``limits``), laid out as ``unpack`` reads it. ``rows`` is a count
        of at least 1 per stream, or one for all. Each stream is left
        after its last row."""
        n = len(limits)
        rows = np.broadcast_to(rows, index.shape)
        ends = np.cumsum(rows)
        state, inc = self.state[:, index], self.inc[:, index]
        # One row per stream starts from the stream states themselves;
        # several start by a jump of a multiple of n from their stream's.
        if len(index) and ends[-1] > len(index):
            stream = np.repeat(index, rows)
            row = np.arange(len(stream)) - np.repeat(ends - rows, rows)
            inc = self.inc[:, stream]
            state = _jump([c[row] for c in _leaps(int(row.max()) + 1, n)],
                          self.state[:, stream], inc)
        kernel = _jump_codes if len(inc[0]) < STEP_ROWS else _step_codes
        codes, last = kernel(state, inc, limits)
        self.state[:, index] = [words[ends - 1] for words in last]
        return codes

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
