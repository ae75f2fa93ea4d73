"""Rotary and Alibi encodings against rotate-both-sides oracles."""

import copy
import math

import numpy as np
import pytest

from lm_infinite.encoding import (
    AlibiParams,
    RopeParams,
    alibi_logit,
    apply_rotation_f64,
    default_alibi_slopes,
    rope_cos_sin,
    rope_logit,
)
from lm_infinite.masking import MaskParams, effective_distance


def factor(positions, params):
    """The complex rotation table cos + i sin of the given positions."""
    cos, sin = rope_cos_sin(positions, params)
    return cos + 1j * sin


def rotate(x, position, params):
    """Rotate x to an absolute position, as the model does."""
    return apply_rotation_f64(np.asarray(x, dtype=np.float64), factor(position, params))


def full_logit_oracle(q, k, i, j, params):
    """Rotate BOTH sides to absolute positions, then dot: the unmodified
    encoding a short-sequence model would use."""
    qi = rotate(q, i, params)
    kj = rotate(k, j, params)
    return float(np.dot(qi, kj)) / math.sqrt(params.head_dim)


def test_omegas_decreasing_unit_start():
    params = RopeParams(head_dim=16)
    w = params.omegas()
    assert w[0] == 1.0
    assert np.all(np.diff(w) < 0)
    assert w.shape == (8,)


def test_omegas_computed_once_and_read_only():
    params = RopeParams(head_dim=16, base=500.0)
    w = params.omegas()
    a = np.arange(8, dtype=np.float64)
    assert np.array_equal(w, 500.0 ** (-2.0 * a / 16))
    assert params.omegas() is w
    # Every caller and every copy gets this array, so none may write to it.
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 2.0
    twin = copy.copy(params)
    assert twin == params and twin.omegas() is w
    assert np.array_equal(RopeParams(head_dim=16, base=500.0).omegas(), w)


def test_position_zero_is_identity():
    params = RopeParams(head_dim=8)
    x = np.arange(8, dtype=np.float64) - 3.5
    out = rotate(x, 0, params)
    assert np.array_equal(out, x)


def test_first_pair_unit_vector():
    # With head_dim=2 the only speed is omega_0=1, so (1,0) -> (cos p, sin p).
    params = RopeParams(head_dim=2)
    for p in (1, 2, 7, 100):
        out = rotate(np.array([1.0, 0.0]), p, params)
        assert out[0] == pytest.approx(math.cos(p), abs=1e-12)
        assert out[1] == pytest.approx(math.sin(p), abs=1e-12)


def test_norm_preserved_up_to_1e6():
    params = RopeParams(head_dim=64)
    rng = np.random.default_rng(101)
    for p in (0, 1, 17, 1000, 999_983, 1_000_000):
        x = rng.normal(size=64)
        out = rotate(x, p, params)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(x), abs=1e-12)


def test_relative_position_property():
    # Logit depends only on (q, k, i - j): 100 random pairs, tol 1e-12.
    params = RopeParams(head_dim=8)
    rng = np.random.default_rng(202)
    for _ in range(100):
        q = rng.normal(size=8)
        k = rng.normal(size=8)
        j = int(rng.integers(0, 5000))
        i = j + int(rng.integers(0, 3000))
        lhs = full_logit_oracle(q, k, i, j, params)
        rhs = rope_logit(q, k, i - j, params)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_equal_differences_give_equal_logits():
    params = RopeParams(head_dim=8)
    rng = np.random.default_rng(203)
    q = rng.normal(size=8)
    k = rng.normal(size=8)
    base = full_logit_oracle(q, k, 40, 10, params)
    for shift in (1, 5, 123, 4096):
        assert full_logit_oracle(q, k, 40 + shift, 10 + shift, params) == pytest.approx(
            base, abs=1e-12
        )


def test_rope_logit_dist_zero_is_scaled_dot():
    params = RopeParams(head_dim=8)
    rng = np.random.default_rng(204)
    q = rng.normal(size=8)
    k = rng.normal(size=8)
    assert rope_logit(q, k, 0, params) == pytest.approx(
        float(q @ k) / math.sqrt(8), abs=1e-12
    )


def test_rope_logit_matches_full_rotation_below_clamp():
    # Inside the comfort zone the limited variant IS the unmodified encoding.
    params = RopeParams(head_dim=8)
    mask_params = MaskParams(n_global=4, n_local=32, l_pretrain=64)
    rng = np.random.default_rng(205)
    for _ in range(50):
        q = 0.4 * rng.normal(size=8)
        k = 0.4 * rng.normal(size=8)
        j = int(rng.integers(0, 100))
        i = j + int(rng.integers(0, 64))
        d = effective_distance(i, j, mask_params)
        assert d == i - j
        assert rope_logit(q, k, d, params) == pytest.approx(
            full_logit_oracle(q, k, i, j, params), abs=1e-12
        )


def test_rope_clamp_saturation():
    # Raw distances 5000 and 9000 both clamp to l_pretrain=4096: same logit.
    params = RopeParams(head_dim=8)
    mask_params = MaskParams(n_global=1, n_local=128, l_pretrain=4096)
    rng = np.random.default_rng(206)
    q = rng.normal(size=8)
    k = rng.normal(size=8)
    d1 = effective_distance(5000, 0, mask_params)
    d2 = effective_distance(9000, 0, mask_params)
    assert d1 == d2 == 4096
    assert rope_logit(q, k, d1, params) == rope_logit(q, k, d2, params)


def test_rotation_inverse_via_negated_sin():
    params = RopeParams(head_dim=16)
    rng = np.random.default_rng(207)
    x = rng.normal(size=(3, 16))
    f = factor(123, params)
    back = apply_rotation_f64(apply_rotation_f64(x, f), np.conj(f))
    assert np.allclose(back, x, atol=1e-12)


def cos_sin_rotation(x, cos, sin):
    """The rotation as it was written against a (cos, sin) table."""
    pairs = np.ascontiguousarray(x, dtype=np.float64).view(np.complex128)
    return (pairs * (cos + 1j * sin)).view(np.float64)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_rotation_factor_equals_cos_sin_formula_bitwise(sign):
    # A factor built once rotates exactly as cos + 1j * sin built per call,
    # its conjugate exactly as -sin did; and the conjugate undoes it.
    params = RopeParams(head_dim=16)
    rng = np.random.default_rng(419)
    x = rng.normal(size=(3, 40, 16))
    positions = np.append(np.arange(39), 4096)  # 0 has sin exactly 0
    cos, sin = rope_cos_sin(positions, params)
    f = factor(positions, params)
    f = f if sign > 0 else np.conj(f)
    got = apply_rotation_f64(x, f)
    assert got.tobytes() == cos_sin_rotation(x, cos, sign * sin).tobytes()
    np.testing.assert_allclose(apply_rotation_f64(got, np.conj(f)), x, atol=1e-12, rtol=0)


def pair_formula(x, cos, sin):
    """The rotation written out pair by pair, as strided halves."""
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


@pytest.mark.parametrize("layout", ["contiguous", "pinned_slice", "swapaxes"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_complex_rotation_equals_pair_formula(layout, sign):
    params = RopeParams(head_dim=16)
    rng = np.random.default_rng(331)
    base = rng.normal(size=(2, 3, 12, 16))  # (batch, heads, seq, head_dim)
    if layout == "contiguous":
        x = base
    elif layout == "pinned_slice":
        x = base[..., :5, :]  # the far-key slice [..., :G, :]
    else:
        x = np.swapaxes(base.reshape(2, 12, 3, 16), -3, -2)  # (..., H, seq, hd) view
    cos, sin = rope_cos_sin(np.arange(x.shape[-2]), params)  # broadcast over (2, 3)
    before = x.copy()
    got = apply_rotation_f64(x, cos + 1j * (sign * sin))
    assert got.shape == x.shape and got.dtype == np.float64
    np.testing.assert_allclose(got, pair_formula(x, cos, sign * sin), rtol=0, atol=1e-15)
    assert np.array_equal(x, before)


def test_rope_validation():
    with pytest.raises(ValueError):
        RopeParams(head_dim=7)
    with pytest.raises(ValueError):
        RopeParams(head_dim=0)
    with pytest.raises(ValueError):
        RopeParams(head_dim=8, base=-1.0)
    params = RopeParams(head_dim=8)
    with pytest.raises(ValueError):
        rope_logit(np.zeros(8), np.zeros(6), 1, params)


def test_default_slopes_geometric():
    slopes = default_alibi_slopes(8)
    assert slopes == tuple(2.0 ** (-h) for h in range(1, 9))
    slopes4 = default_alibi_slopes(4)
    assert slopes4 == (0.25, 0.0625, 0.015625, 0.00390625)
    AlibiParams(slopes=slopes4)  # valid by construction


def test_alibi_logit_dist_zero():
    rng = np.random.default_rng(301)
    q = rng.normal(size=16)
    k = rng.normal(size=16)
    assert alibi_logit(q, k, 0, 0.5) == pytest.approx(float(q @ k) / 4.0, abs=1e-12)


def test_alibi_logit_forced_value():
    q = np.zeros(4)
    k = np.zeros(4)
    assert alibi_logit(q, k, 2048, 1.0) == pytest.approx(-2048.0)


def test_alibi_bias_monotone_and_saturating():
    mask_params = MaskParams(n_global=2, n_local=64, l_pretrain=4096)
    rng = np.random.default_rng(302)
    q = rng.normal(size=8)
    k = rng.normal(size=8)
    prev = None
    for raw in (0, 1, 2, 64, 1000, 4096, 8192, 100_000):
        d = effective_distance(raw, 0, mask_params) if raw else 0
        val = alibi_logit(q, k, d, 0.25)
        if prev is not None:
            assert val <= prev + 1e-12
        prev = val
    # Saturation: all raw distances past the clamp share one bias.
    vals = {
        alibi_logit(q, k, effective_distance(raw, 0, mask_params), 0.25)
        for raw in (4096, 8192, 100_000)
    }
    assert len(vals) == 1


def test_alibi_validation():
    with pytest.raises(ValueError):
        alibi_logit(np.zeros(4), np.zeros(4), 1, -0.5)
    with pytest.raises(ValueError):
        alibi_logit(np.zeros(4), np.zeros(3), 1, 0.5)
    with pytest.raises(ValueError):
        AlibiParams(slopes=(0.5, 0.0))
    with pytest.raises(ValueError):
        AlibiParams(slopes=())
    with pytest.raises(ValueError):
        default_alibi_slopes(0)
