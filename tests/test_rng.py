"""Reproducible counter-based streams."""

import json
from pathlib import Path

import numpy as np
import pytest

from signed_balance.rng import GOLDEN64, MASK64, splitmix64, stream, stream_key, streams

GOLDEN_FILE = Path(__file__).parent / "golden" / "rng_seed0.json"


def test_splitmix64_known_values():
    # first output of the reference splitmix64 generator seeded at 0, 1, 2
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 0x910A2DEC89025CC1
    assert splitmix64(2) == 0x975835DE1C9756CE


def test_splitmix64_stays_in_64_bits():
    for x in (0, 1, 2**63, MASK64, 12345678901234567890 & MASK64):
        out = splitmix64(x)
        assert 0 <= out <= MASK64


def test_stream_key_mixes_index():
    keys = {stream_key(7, i) for i in range(1000)}
    assert len(keys) == 1000  # no collisions on a contiguous index range
    assert stream_key(7, 0) == splitmix64(7)
    assert stream_key(0, 1) == splitmix64(GOLDEN64)


def test_stream_key_distinct_across_seeds():
    assert stream_key(0, 0) != stream_key(1, 0)
    assert stream_key(3, 5) != stream_key(5, 3)


def test_golden_vector_seed0():
    """First 16 uniforms of stream(0) are frozen; any drift breaks replays."""
    golden = json.loads(GOLDEN_FILE.read_text())
    assert stream_key(0, 0) == golden["stream_key"]
    draws = stream(0).random(16)
    np.testing.assert_array_equal(draws, np.array(golden["draws"]))


def test_stream_is_fresh_each_call():
    a = stream(42).random(8)
    b = stream(42).random(8)
    np.testing.assert_array_equal(a, b)


def test_streams_do_not_overlap():
    a = stream(9, 0).random(4096)
    b = stream(9, 1).random(4096)
    assert not np.isin(a, b).any()


@pytest.mark.parametrize("index", [0, 1, 2**32, 2**63 - 1])
def test_stream_accepts_wide_indices(index):
    g = stream(0, index)
    assert g.random() >= 0.0


@pytest.mark.parametrize("seed", [0, 7, MASK64])
def test_rekeyed_streams_draw_what_fresh_streams_draw(seed):
    # a replicate's node draw, for every replicate of a B = 2000 bootstrap
    for r, rng in enumerate(streams(seed, 2000)):
        np.testing.assert_array_equal(rng.integers(0, 160, size=160),
                                      stream(seed, r).integers(0, 160, size=160))
    # 32-bit draws leave a half word buffered, which the next key must drop
    for r, rng in enumerate(streams(seed, 20)):
        fresh = stream(seed, r)
        for draw in (lambda g: g.integers(0, 9, size=3, dtype=np.uint32), lambda g: g.random(5),
                     lambda g: g.normal(size=3)):
            np.testing.assert_array_equal(draw(rng), draw(fresh))
