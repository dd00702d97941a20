"""Tests for the seeded random draws: the unit-vector sampler against its direct formula."""

import numpy as np
import pytest
from helpers import reference_unit_vectors

from gfusion.sampling import random_unit_vectors


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dim", [0, 1, 63, 64, 65, 129, 524])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 2000])
def test_unit_vectors_are_bit_identical_to_the_direct_formula(field, dim, count):
    for seed in (1, 2, 3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_unit_vectors(rng, dim, count, field)
        want = reference_unit_vectors(ref_rng, dim, count, field)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
        # the generator is left where the direct formula leaves it
        assert rng.standard_normal(3).tobytes() == ref_rng.standard_normal(3).tobytes()

