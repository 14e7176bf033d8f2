"""Tests for random stream derivation."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridtep
from gridtep.rng import substream, substreams

from test_network import BUNDLED

# 0, ordinary seeds, and words of 2**32 and above (two or three uint32s).
ENTROPY_WORD = st.one_of(st.just(0), st.integers(0, 2**32 - 1),
                         st.integers(2**32, 2**80))
ENTROPY = st.one_of(ENTROPY_WORD, st.lists(ENTROPY_WORD, max_size=6))
PATH = st.lists(st.integers(0, 2**32 - 1), max_size=3)


@pytest.mark.numpy_floor
@settings(max_examples=60, deadline=None)
@given(entropy=ENTROPY, path=PATH, count=st.integers(0, 300), data=st.data())
def test_bulk_streams_match_single_streams_bit_for_bit(entropy, path, count,
                                                       data):
    """Stream k of substreams draws what substream(entropy, *path, k)
    draws, over several calls in a row on random subsets of the streams,
    1 to 4 rows of 1 to 70 uniforms each, whatever the kernel's part
    size. Some of the path's words are passed as columns, as the Monte
    Carlo months are."""
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
        rows = np.array(data.draw(st.lists(st.integers(1, 4),
                                           min_size=len(picks),
                                           max_size=len(picks))))
        got = streams.random(np.array(picks), n,
                             data.draw(st.integers(1, 8)), rows)
        assert got.shape == (rows.sum(), n)
        for block, k in zip(np.split(got, np.cumsum(rows)[:-1]), picks):
            rng = singles.setdefault(k, substream(entropy, *path, k))
            assert block.tobytes() == rng.random(block.shape).tobytes(), k


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

