"""The one convention for seeded random streams.

Every seeded draw in the package comes from a Philox stream keyed by
the seed and split into counter blocks: block b starts at counter
b << 64, so what one block draws never depends on how much another
block drew.  A sampled run walks order j from block j, the masking
dataset draws attempt a from block a, and the masking experiment draws
cell (g, J) from block (g << 20) | J.
"""

from __future__ import annotations

import numpy as np

_WORD = (1 << 64) - 1


def philox_block(
    key: int, block: int, rng: np.random.Generator | None = None
) -> np.random.Generator:
    """The generator at counter block ``block`` of the stream keyed by ``key``.

    Without ``rng`` it is a new ``Philox(key=key, counter=block << 64)``.
    With ``rng``, a Generator over Philox, that generator is set to the
    state such a new one starts in and returned: writing the state costs
    a fraction of building a bit generator, so a loop over blocks keeps
    one.  Any buffered half-word of the previous block is dropped.  A key
    or block a new Philox would refuse raises ValueError either way.
    """
    counter = block << 64
    if rng is None:
        return np.random.Generator(np.random.Philox(key=key, counter=counter))
    # The ranges a new Philox accepts: a 128-bit key and a 256-bit counter.
    if not (0 <= key < 1 << 128 and 0 <= counter < 1 << 256):
        raise ValueError(f"Philox key {key} or counter block {block} out of range")
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": [counter >> shift & _WORD for shift in (0, 64, 128, 192)],
            "key": [key & _WORD, key >> 64],
        },
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng
