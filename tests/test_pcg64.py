"""The PCG64 uniform stream against numpy's generator, its oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import one_shot_draws
from portsim.pcg64 import BLOCK, Pcg64

_SPLITS = [1, 998, BLOCK, BLOCK + 1]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 256 - 1),
       sizes=st.lists(st.sampled_from([*_SPLITS, 2, 3, 1000, 4000]), min_size=1, max_size=4))
@example(seed=0, sizes=_SPLITS)
@example(seed=2 ** 32 - 1, sizes=_SPLITS)
@example(seed=2 ** 32, sizes=_SPLITS)
@example(seed=2 ** 64 + 5, sizes=_SPLITS)
@example(seed=2 ** 128 + 3, sizes=_SPLITS)
def test_chunked_draws_equal_numpys_one_shot_draws(seed, sizes):
    gen = Pcg64(seed)
    draws = np.concatenate([gen.random(size) for size in sizes])
    np.testing.assert_array_equal(draws, one_shot_draws(seed, sum(sizes)))


def test_a_long_draw_keeps_the_jump_table_at_one_block():
    gen = Pcg64(5)
    draws = gen.random(10 ** 6)
    assert all(len(lanes) == BLOCK for lanes in gen._jump)
    np.testing.assert_array_equal(draws, one_shot_draws(5, 10 ** 6))


def test_an_empty_draw_leaves_the_stream_where_it_was():
    gen = Pcg64(9)
    assert gen.random(0).shape == (0,)
    np.testing.assert_array_equal(gen.random(5), one_shot_draws(9, 5))


def test_a_negative_seed_raises_value_error_as_numpys_does():
    with pytest.raises(ValueError):
        np.random.PCG64(-1)
    with pytest.raises(ValueError, match="non-negative"):
        Pcg64(-1)


@pytest.mark.parametrize("seed", [1.0, 1.5, "7", b"7"])
def test_a_non_integer_seed_raises_type_error_as_numpys_does(seed):
    with pytest.raises(TypeError):
        np.random.PCG64(seed)
    with pytest.raises(TypeError):
        Pcg64(seed)


def test_numpy_integer_seeds_read_the_same_stream():
    np.testing.assert_array_equal(Pcg64(np.uint64(2 ** 64 - 1)).random(3),
                                  one_shot_draws(2 ** 64 - 1, 3))
