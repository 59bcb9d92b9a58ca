"""The counter-block convention of seeded streams.

A generator repositioned by ``philox_block`` must be indistinguishable
from a new ``Philox(key=k, counter=b << 64)``: the same state dict, and
the same draws from every method the package uses.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoinfluence.streams import philox_block

keys = st.integers(0, 2**128 - 1)
blocks = st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64, 2**192 - 1))


def fresh(key: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key, counter=block << 64))


def same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    sa, sb = a.bit_generator.state, b.bit_generator.state
    return (
        sa["bit_generator"] == sb["bit_generator"]
        and all(np.array_equal(sa["state"][k], sb["state"][k]) for k in ("counter", "key"))
        and np.array_equal(sa["buffer"], sb["buffer"])
        and all(sa[k] == sb[k] for k in ("buffer_pos", "has_uint32", "uinteger"))
    )


DRAWS = {
    "permutation": lambda rng: rng.permutation(37),
    "integers": lambda rng: rng.integers(8, 15, size=5),
    "uniform": lambda rng: rng.uniform(0.02, 0.21, size=5),
    "random": lambda rng: rng.random(7),
    "choice": lambda rng: rng.choice(13, size=4, replace=False),
}


@given(keys, blocks, keys, blocks)
@settings(max_examples=200)
def test_repositioned_state_equals_a_new_generator(key, block, old_key, old_block):
    rng = philox_block(old_key, old_block)
    rng.random(3)
    # A 32-bit draw leaves half a word buffered: has_uint32 is set.
    rng.integers(0, 10, dtype=np.int32)
    assert rng.bit_generator.state["has_uint32"] == 1
    assert philox_block(key, block, rng) is rng
    assert same_state(rng, fresh(key, block))
    assert same_state(philox_block(key, block), fresh(key, block))


@pytest.mark.parametrize("method", sorted(DRAWS))
@given(key=keys, block=blocks)
@settings(max_examples=40)
def test_repositioned_generator_draws_the_same_values(method, key, block):
    rng = philox_block(key + 1 & 2**128 - 1, block)
    rng.integers(0, 10, dtype=np.int32)  # leaves has_uint32 set
    philox_block(key, block, rng)
    want = fresh(key, block)
    for _ in range(3):
        assert np.array_equal(DRAWS[method](rng), DRAWS[method](want))
    # A 32-bit draw right after repositioning reads a fresh word too.
    philox_block(key, block, rng)
    want = fresh(key, block)
    assert np.array_equal(rng.integers(0, 2**31, size=5, dtype=np.int32),
                          want.integers(0, 2**31, size=5, dtype=np.int32))
    assert np.array_equal(DRAWS[method](rng), DRAWS[method](want))


@pytest.mark.parametrize("key, block", [(-1, 0), (2**128, 0), (0, -1), (0, 2**192)])
def test_out_of_range_is_refused_either_way(key, block):
    with pytest.raises(ValueError):
        philox_block(key, block)
    with pytest.raises(ValueError):
        philox_block(key, block, philox_block(0, 0))
