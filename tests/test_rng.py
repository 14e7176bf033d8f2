"""Tests for random stream derivation."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridtep
from gridtep.rng import STEP_ROWS, limits, substream, substreams, unpack

from test_contingency import ROUND_CASES, net_of
from test_network import BUNDLED

# 0, ordinary seeds, and words of 2**32 and above (two or three uint32s).
ENTROPY_WORD = st.one_of(st.just(0), st.integers(0, 2**32 - 1),
                         st.integers(2**32, 2**80))
ENTROPY = st.one_of(ENTROPY_WORD, st.lists(ENTROPY_WORD, max_size=6))
PATH = st.lists(st.integers(0, 2**32 - 1), max_size=3)


# Rates of exactly 0 and 1, multiples of 2**-53 (where a uniform can equal
# the rate), and any others in between.
RATE = st.one_of(st.just(0.0), st.just(1.0),
                 st.integers(0, 2**53).map(lambda k: k / 2**53),
                 st.floats(0.0, 1.0))


def packed(bits) -> list[list[int]]:
    """Each row of a bool (rows, n) array as its bit string, element 0
    first, cut into 64-bit words read as binary numbers: what
    ``Streams.codes`` gives for it."""
    rows = ["".join("1" if b else "0" for b in row) for row in bits.tolist()]
    return [[int(row[a:a + 64], 2) for a in range(0, len(row), 64)]
            for row in rows]


def state_of(streams, k) -> int:
    hi, lo = (int(word) for word in streams.state[:, k])
    return hi << 64 | lo


@pytest.mark.numpy_floor
@settings(max_examples=60, deadline=None)
@given(entropy=ENTROPY, path=PATH, count=st.integers(0, 300), data=st.data())
def test_bulk_streams_match_single_streams_bit_for_bit(entropy, path, count,
                                                       data):
    """Stream k of substreams draws what substream(entropy, *path, k)
    draws, over several calls in a row on random subsets of the streams,
    1 to 4 rows of 1 to 70 elements each: the outage codes are the
    Generator's uniforms below the rates, packed element 0 first, and
    the stream is left in the Generator's state. Some of the path's words
    are passed as columns, as the Monte Carlo months are."""
    cut = data.draw(st.integers(0, len(path)))
    columns = [np.full(count, word) for word in path[cut:]]
    streams = substreams(entropy, path[:cut], *columns, np.arange(count))
    assert streams.state.shape == streams.inc.shape == (2, count)
    if count == 0:
        return
    singles = {}
    first = [0, count - 1]
    for _ in range(data.draw(st.integers(1, 4))):
        picks = list(dict.fromkeys(first + data.draw(st.lists(
            st.integers(0, count - 1), min_size=1, max_size=6))))
        first = []
        n = data.draw(st.integers(1, 70))
        rates = np.array(data.draw(st.lists(RATE, min_size=n, max_size=n)))
        rows = np.array(data.draw(st.lists(st.integers(1, 4),
                                           min_size=len(picks),
                                           max_size=len(picks))))
        got = streams.codes(np.array(picks), limits(rates), rows)
        assert got.dtype == np.uint64
        assert got.shape == (rows.sum(), (n + 63) // 64)
        for block, k in zip(np.split(got, np.cumsum(rows)[:-1]), picks):
            rng = singles.setdefault(k, substream(entropy, *path, k))
            want = rng.random((len(block), n)) < rates
            assert block.tolist() == packed(want), k
            assert unpack(block, n).tolist() == want.tolist()
            assert state_of(streams, k) == rng.bit_generator.state[
                "state"]["state"], k


@pytest.mark.numpy_floor
@pytest.mark.parametrize("size", [STEP_ROWS - 1, STEP_ROWS])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_stream_codes_jump_and_step_alike(size, seed, data):
    """A pass of just fewer than STEP_ROWS rows, which jumps to every
    element's state at once, and one of STEP_ROWS, which steps the rows
    one element at a time, both give each stream what numpy's Generator
    draws from it, and leave it in the Generator's state: on one row per
    stream or several, with the wide round-sampler case's 70 rates (two
    code words) or up to 64 random ones, among them exactly 0 and 1."""
    if data.draw(st.booleans()):
        case = ROUND_CASES["wide"]
        rates = np.array(net_of(case).line_outage_rates
                         + case.generator_outage_rates)
    else:
        rates = np.array(data.draw(st.permutations(
            [0.0, 1.0] + data.draw(st.lists(RATE, max_size=62)))))
    n = len(rates)
    cuts = data.draw(st.one_of(
        st.just(range(1, size)),  # one row per stream
        st.lists(st.integers(1, size - 1), unique=True, max_size=30)))
    rows = np.diff([0, *sorted(cuts), size])
    index = np.array(data.draw(st.permutations(range(len(rows)))))
    streams = substreams(seed, (1,), np.arange(len(rows)))
    got = streams.codes(index, limits(rates), rows)
    assert got.shape == (size, (n + 63) // 64)
    for block, k, m in zip(np.split(got, np.cumsum(rows)[:-1]), index, rows):
        rng = substream(seed, 1, k)
        assert block.tolist() == packed(rng.random((m, n)) < rates), k
        assert state_of(streams, k) == rng.bit_generator.state[
            "state"]["state"], k


@pytest.mark.numpy_floor
@pytest.mark.parametrize("entropy", [-1, [3, -2], None])
def test_bulk_streams_reject_negative_or_missing_entropy(entropy):
    with pytest.raises(ValueError):
        substreams(entropy, (1,), np.arange(4))


def test_loading_a_case_leaves_numpy_random_unimported():
    """numpy.random loads with the first stream, not with the package."""
    src = Path(gridtep.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import gridtep\n"
        "from gridtep import load_case\n"
        f"load_case({str(BUNDLED)!r})\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr

