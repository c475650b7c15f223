"""Counter-based random number streams.

Contract (documented in the README and pinned by tests/golden/rng_seed0.json):

* generator: numpy Philox (counter-based, 4x64), wrapped in
  ``numpy.random.Generator``;
* stream derivation: stream ``r`` of master seed ``s`` keys Philox with
  ``splitmix64(s XOR (r * 0x9E3779B97F4A7C15 mod 2**64))``.

Distinct (seed, r) pairs therefore get statistically independent streams,
and any replicate can be regenerated in isolation, which is what makes
parallel Monte Carlo runs independent of scheduling.

`streams(seed, count)` yields the streams 0 .. count - 1 of one seed in
turn through one Generator, re-keying its Philox instead of building one
per stream; each draws the same numbers as `stream(seed, r)`.
"""

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN64 = 0x9E3779B97F4A7C15


def splitmix64(x):
    """One splitmix64 output step for a 64-bit input."""
    x = (x + GOLDEN64) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def stream_key(seed, index=0):
    """64-bit Philox key for stream `index` of `seed`."""
    return splitmix64((int(seed) ^ ((int(index) * GOLDEN64) & MASK64)) & MASK64)


def stream(seed, index=0):
    """Independent Generator for (seed, index)."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, index)))


def streams(seed, count):
    """stream(seed, r) for r = 0 .. count - 1, in turn, as one Generator
    whose Philox is re-keyed in place: each stream is good until the next
    is drawn.  Setting the public state resets the counter and the buffer,
    so each draws what a fresh `stream(seed, r)` draws."""
    gen = stream(seed)
    state = gen.bit_generator.state  # a zero counter and an empty buffer
    for r in range(count):
        state["state"]["key"][0] = stream_key(seed, r)
        gen.bit_generator.state = state
        yield gen
