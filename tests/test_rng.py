"""Determinism and distribution sanity for the splitmix64 generator."""

import numpy as np
import pytest

from lm_infinite.rng import SplitMix64, derive_stream


def test_same_seed_same_sequence():
    a = SplitMix64(123)
    b = SplitMix64(123)
    assert np.array_equal(a.next_u64(100), b.next_u64(100))


def test_counter_advances():
    g = SplitMix64(123)
    first = g.next_u64(10)
    second = g.next_u64(10)
    assert not np.array_equal(first, second)


def test_chunking_invariance():
    # Drawing 20 values at once equals drawing 4 then 16.
    whole = SplitMix64(9).next_u64(20)
    g = SplitMix64(9)
    split = np.concatenate([g.next_u64(4), g.next_u64(16)])
    assert np.array_equal(whole, split)


def test_derive_stream_separates_names():
    s1 = derive_stream(42, "init")
    s2 = derive_stream(42, "data-order")
    s3 = derive_stream(43, "init")
    assert len({int(s1), int(s2), int(s3)}) == 3
    # And is itself deterministic.
    assert derive_stream(42, "init") == s1


@pytest.mark.parametrize("seed", [-1, -(2**63), 2**64, 2**70])
def test_derive_stream_rejects_seed_outside_u64(seed):
    with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\*\*64\), got {seed}$"):
        derive_stream(seed, "init")


def test_derive_stream_takes_the_whole_u64_range():
    assert derive_stream(0, "init") != derive_stream(2**64 - 1, "init")


def test_uniform_range_and_mean():
    u = SplitMix64(5).uniform(200_000)
    assert np.all(u > 0.0) and np.all(u <= 1.0)
    assert abs(u.mean() - 0.5) < 2e-3


def test_normal_moments():
    x = SplitMix64(5).normal((200_000,), std=0.02)
    assert abs(x.mean()) < 3e-4
    assert abs(x.std() - 0.02) < 3e-4


def test_integers_bounds_and_coverage():
    v = SplitMix64(11).integers(0, 16, 10_000)
    assert v.min() >= 0 and v.max() < 16
    assert set(np.unique(v).tolist()) == set(range(16))


def test_normal_shape():
    x = SplitMix64(1).normal((3, 4, 5), std=1.0)
    assert x.shape == (3, 4, 5)
    assert x.dtype == np.float64
