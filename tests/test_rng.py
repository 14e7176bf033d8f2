"""Tests for random stream derivation."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

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


@settings(max_examples=60, deadline=None)
@given(entropy=ENTROPY, path=PATH, count=st.integers(0, 300), data=st.data())
def test_bulk_streams_match_single_streams_bit_for_bit(entropy, path, count,
                                                       data):
    streams = substreams(entropy, path, count)
    assert len(streams) == count
    if count == 0:
        return
    picks = {0, count - 1, *data.draw(st.lists(st.integers(0, count - 1),
                                               max_size=3))}
    for k in picks:
        got = streams[k].random(64)
        want = substream(entropy, *path, k).random(64)
        assert got.tobytes() == want.tobytes(), k


@pytest.mark.parametrize("entropy", [-1, [3, -2], None])
def test_bulk_streams_reject_negative_or_missing_entropy(entropy):
    with pytest.raises(ValueError):
        substreams(entropy, (1,), 4)


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

