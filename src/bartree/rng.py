"""Counter-based random streams.

Every simulation derives its randomness from a user seed through the
Philox counter-based generator, keyed by ``(seed, stream constant)``.
The two fixed stream constants split one seed into independent streams
for the observation mask and for the driven noise, so the mask drawn
for a given seed never changes when noise parameters do, and replicates
with distinct seeds can run concurrently.

Because Philox is counter-based, the stream of a key is fixed by the
key alone: a :class:`Stream` moves one generator from seed to seed by
setting its key, counter and buffer, which is several times cheaper
than building a new generator per replicate and draws the same numbers.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

# Fixed splitting constants (hex digits of pi); distinct keys give
# independent Philox streams.
MASK_STREAM = 0x243F6A8885A308D3
NOISE_STREAM = 0x452821E638D01377
# a seed is the first 64-bit word of a Philox key
SEED_LIMIT = 1 << 64


def check_seed(seed) -> int:
    """``seed`` as an int, if it is an integer in ``[0, 2^64)``."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < SEED_LIMIT:
        raise ValidationError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return int(seed)


class Stream:
    """One Philox generator for a stream constant, re-keyed per seed.

    ``at(seed)`` returns the generator keyed by ``(seed, stream)`` with
    counter 0 and an empty buffer, so it draws exactly what a fresh
    ``Generator(Philox(key=[seed, stream]))`` draws.  ``at(seed, offset)``
    resumes that stream past its first ``offset`` uniforms in
    O(1): Philox makes four 64-bit words per counter step and a uniform
    reads one word, so the counter advances by ``offset // 4`` and
    ``offset % 4`` uniforms are discarded.  The generator is shared: a
    re-key restarts it, and earlier seeds' positions are lost.
    """

    def __init__(self, stream: int):
        self._key = np.array([0, stream], dtype=np.uint64)
        self._fresh = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._bits = np.random.Philox(key=self._key)
        self._generator = np.random.Generator(self._bits)

    def at(self, seed, offset: int = 0) -> np.random.Generator:
        self._key[0] = check_seed(seed)
        self._bits.state = self._fresh
        if offset:
            self._bits.advance(int(offset) // 4)
            self._generator.random(offset % 4)
        return self._generator
