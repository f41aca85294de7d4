"""Node-index arithmetic: exactness and capacity guards."""

import pytest

from bartree import CapacityError, ValidationError
from bartree.tree import MAX_DEPTH, generation_range


def test_generation_range_examples():
    assert generation_range(0) == (1, 1)
    assert generation_range(4) == (16, 31)
    assert generation_range(10) == (1024, 2047)


def test_generation_range_capacity():
    generation_range(MAX_DEPTH)  # boundary is allowed
    with pytest.raises(CapacityError):
        generation_range(MAX_DEPTH + 1)
    with pytest.raises(ValidationError):
        generation_range(-1)


def test_generation_bounds_partition():
    # a node's generation is the exponent of its leading bit
    lo, hi = generation_range(7)
    assert lo.bit_length() - 1 == 7 and hi.bit_length() - 1 == 7
    assert (lo - 1).bit_length() - 1 == 6 and (hi + 1).bit_length() - 1 == 8
