"""Attention paths checked against a dense additive-mask oracle and finite
differences. The oracle composes the scalar logit ops with the dense mask,
so the O(n) range-based implementation is held against the formula itself."""

import numpy as np
import pytest

from lm_infinite.attention import AttentionConfig, attend, attend_backward
from lm_infinite.encoding import AlibiParams, RopeParams, alibi_logit, rope_logit
from lm_infinite.errors import NanDetectedError
from lm_infinite.kv_cache import KvCache
from lm_infinite.masking import MaskParams, build_mask, effective_distance

HEADS, HEAD_DIM = 2, 4


def make_config(mode, encoding_kind, n_global=2, n_local=5, l_pretrain=8):
    params = MaskParams(n_global=n_global, n_local=n_local, l_pretrain=l_pretrain)
    if encoding_kind == "rope":
        enc = RopeParams(head_dim=HEAD_DIM)
    else:
        enc = AlibiParams(slopes=(0.5, 0.125))
    return AttentionConfig(
        n_heads=HEADS, head_dim=HEAD_DIM, mask_params=params, encoding=enc, mode=mode
    )


def oracle_attend(q, k, v, config):
    """Dense additive masking: full logit matrix from the scalar ops, -1e30
    outside the allowed set, softmax over the whole row."""
    seq_len = q.shape[0]
    params = config.mask_params
    if config.mode == "lambda":
        allowed = build_mask(seq_len, params).dense()
    else:
        allowed = np.tril(np.ones((seq_len, seq_len), dtype=bool))
    logits = np.full((HEADS, seq_len, seq_len), -1e30)
    for i in range(seq_len):
        for j in range(i + 1):
            if not allowed[i, j]:
                continue
            if config.mode == "lambda":
                d = effective_distance(i, j, params)
            else:
                d = i - j
            for h in range(HEADS):
                if config.is_rope:
                    logits[h, i, j] = rope_logit(q[i, h], k[j, h], d, config.encoding)
                else:
                    logits[h, i, j] = alibi_logit(
                        q[i, h], k[j, h], d, config.encoding.slopes[h]
                    )
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    w = e / e.sum(axis=-1, keepdims=True)
    out = np.einsum("hij,jhd->ihd", w, v)
    return out.reshape(seq_len, -1), w


def decode_step(cache, q, k, v):
    """One step of a one-layer KvCache: begin, attend at next_position, advance."""
    cache.begin()
    out = cache.attend(0, q, k, v)
    cache.advance()
    return out


def random_qkv(rng, seq_len):
    shape = (seq_len, HEADS, HEAD_DIM)
    return rng.normal(size=shape), rng.normal(size=shape), rng.normal(size=shape)


@pytest.mark.parametrize("mode", ["lambda", "vanilla_causal"])
@pytest.mark.parametrize("kind", ["rope", "alibi"])
@pytest.mark.parametrize("seq_len", [1, 3, 16])
def test_matches_dense_oracle(mode, kind, seq_len):
    # seq_len=16 makes both mask branches and the distance clamp bind.
    rng = np.random.default_rng(hash((mode, kind, seq_len)) % 2**32)
    config = make_config(mode, kind)
    q, k, v = random_qkv(rng, seq_len)
    got, _ = attend(q, k, v, config)
    want, _ = oracle_attend(q, k, v, config)
    assert got.shape == q.shape
    assert np.allclose(got.reshape(want.shape), want, atol=1e-12, rtol=0)


def test_singleton_sequence():
    config = make_config("lambda", "rope")
    rng = np.random.default_rng(1)
    q, k, v = random_qkv(rng, 1)
    out, stash = attend(q, k, v, config)
    assert np.allclose(out[0], v[0], atol=1e-12)
    _, weights, _ = stash.row(0)
    assert weights.shape == (HEADS, 1)
    assert np.allclose(weights, 1.0)


@pytest.mark.parametrize("kind", ["rope", "alibi"])
def test_short_sequence_lambda_equals_vanilla(kind):
    # seq_len <= min(n_local, l_pretrain): the mask is causal and every
    # distance is below the clamp, so the two modes must agree.
    rng = np.random.default_rng(2)
    for seq_len in (1, 3, 5):
        q, k, v = random_qkv(rng, seq_len)
        a, _ = attend(q, k, v, make_config("lambda", kind))
        b, _ = attend(q, k, v, make_config("vanilla_causal", kind))
        assert np.allclose(a, b, atol=1e-12, rtol=0)


def test_uniform_weights_on_worked_example():
    # Zero queries give all-equal logits under RoPE, so each row's weight
    # spreads uniformly over its allowed set: the 5-row mask example.
    config = make_config("lambda", "rope", n_global=1, n_local=2, l_pretrain=512)
    rng = np.random.default_rng(3)
    q = np.zeros((5, HEADS, HEAD_DIM))
    k = rng.normal(size=(5, HEADS, HEAD_DIM))
    v = rng.normal(size=(5, HEADS, HEAD_DIM))
    _, stash = attend(q, k, v, config)
    sizes = [1, 2, 3, 3, 3]
    for i, size in enumerate(sizes):
        _, weights, _ = stash.row(i)
        assert weights.shape == (HEADS, size)
        assert np.allclose(weights, 1.0 / size, atol=1e-12)
    assert stash.row(3)[0].tolist() == [0, 2, 3]


@pytest.mark.parametrize("mode", ["lambda", "vanilla_causal"])
def test_weights_row_stochastic_and_on_mask(mode):
    config = make_config(mode, "rope")
    rng = np.random.default_rng(4)
    q, k, v = random_qkv(rng, 14)
    _, stash = attend(q, k, v, config)
    mask = build_mask(14, config.mask_params)
    for i in range(14):
        keys, weights, _ = stash.row(i)
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-12, rtol=0)
        assert np.all(weights >= 0)
        if mode == "lambda":
            assert keys.tolist() == mask.row_indices(i).tolist()
        else:
            assert keys.tolist() == list(range(i + 1))


def test_head_permutation_equivariance():
    rng = np.random.default_rng(5)
    q, k, v = random_qkv(rng, 12)
    perm = [1, 0]
    # RoPE treats heads identically; Alibi needs its slopes permuted too.
    for kind in ("rope", "alibi"):
        config = make_config("lambda", kind)
        if kind == "alibi":
            permuted_enc = AlibiParams(
                slopes=tuple(config.encoding.slopes[p] for p in perm)
            )
            config2 = AttentionConfig(
                HEADS, HEAD_DIM, config.mask_params, permuted_enc, "lambda"
            )
        else:
            config2 = config
        base, _ = attend(q, k, v, config)
        swapped, _ = attend(q[:, perm], k[:, perm], v[:, perm], config2)
        assert np.allclose(swapped, base[:, perm], atol=1e-12)


@pytest.mark.parametrize("mode", ["lambda", "vanilla_causal"])
def test_stable_at_huge_logits(mode):
    # Logits up to ~1e4 must not overflow thanks to max subtraction.
    config = make_config(mode, "rope")
    rng = np.random.default_rng(6)
    q, k, v = random_qkv(rng, 10)
    q *= 100.0
    k *= 100.0
    with np.errstate(over="raise", invalid="raise"):
        out, stash = attend(q, k, v, config)
    assert np.all(np.isfinite(out))
    for i in range(10):
        assert np.allclose(stash.row(i)[1].sum(axis=1), 1.0, atol=1e-12, rtol=0)


def test_nan_input_names_row():
    config = make_config("lambda", "rope")
    rng = np.random.default_rng(7)
    q, k, v = random_qkv(rng, 6)
    q[4, 1, 2] = np.nan
    with pytest.raises(NanDetectedError, match="row 4"):
        attend(q, k, v, config)


def test_shape_validation():
    config = make_config("lambda", "rope")
    rng = np.random.default_rng(8)
    q, k, v = random_qkv(rng, 6)
    with pytest.raises(ValueError):
        attend(q, k[:5], v, config)
    with pytest.raises(ValueError):
        attend(q[:, :, :3], k[:, :, :3], v[:, :, :3], config)
    with pytest.raises(ValueError):
        AttentionConfig(HEADS, HEAD_DIM, config.mask_params, config.encoding, "fast")
    with pytest.raises(ValueError):
        AttentionConfig(HEADS, 5, config.mask_params, config.encoding, "lambda")
    with pytest.raises(ValueError):
        AttentionConfig(3, HEAD_DIM, config.mask_params, AlibiParams((0.5, 0.25)), "lambda")


def fd_gradient(f, x, h=1e-5):
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + h
        up = f()
        flat[idx] = orig - h
        down = f()
        flat[idx] = orig
        grad.reshape(-1)[idx] = (up - down) / (2 * h)
    return grad


@pytest.mark.parametrize("mode", ["lambda", "vanilla_causal"])
@pytest.mark.parametrize("kind", ["rope", "alibi"])
def test_backward_matches_finite_differences(mode, kind):
    rng = np.random.default_rng(9)
    config = make_config(mode, kind, n_global=1, n_local=3, l_pretrain=4)
    seq_len = 7  # > n_local and > l_pretrain so every branch is exercised
    q, k, v = random_qkv(rng, seq_len)
    ct = rng.normal(size=(seq_len, HEADS, HEAD_DIM))

    out, stash = attend(q, k, v, config)
    dq, dk, dv = attend_backward(stash, ct)

    def loss():
        vals, _ = attend(q, k, v, config)
        return float(np.sum(vals * ct))

    for analytic, x in ((dq, q), (dk, k), (dv, v)):
        numeric = fd_gradient(loss, x)
        assert np.allclose(analytic, numeric, atol=1e-6, rtol=1e-5)


def test_batched_matches_per_sequence():
    rng = np.random.default_rng(10)
    batch = 3
    shape = (batch, 9, HEADS, HEAD_DIM)
    q, k, v = rng.normal(size=shape), rng.normal(size=shape), rng.normal(size=shape)
    d_out = rng.normal(size=shape)
    for mode in ("lambda", "vanilla_causal"):
        config = make_config(mode, "rope", n_global=1, n_local=4, l_pretrain=6)
        out, stash = attend(q, k, v, config)
        dq, dk, dv = attend_backward(stash, d_out)
        for b in range(batch):
            ob, sb = attend(q[b], k[b], v[b], config)
            assert np.allclose(out[b], ob, atol=1e-12)
            dqb, dkb, dvb = attend_backward(sb, d_out[b])
            assert np.allclose(dq[b], dqb, atol=1e-12)
            assert np.allclose(dk[b], dkb, atol=1e-12)
            assert np.allclose(dv[b], dvb, atol=1e-12)


@pytest.mark.parametrize("kind", ["rope", "alibi"])
def test_streaming_step_equals_full_row(kind):
    # KvCache.attend (which stores the token, then attends) over 4*n_local
    # steps reproduces each attend() row, including the first-eviction
    # boundary at n_global + n_local.
    config = make_config("lambda", kind, n_global=2, n_local=5, l_pretrain=8)
    seq_len = 4 * config.mask_params.n_local
    rng = np.random.default_rng(11)
    q, k, v = random_qkv(rng, seq_len)
    full, stash = attend(q, k, v, config)

    cache = KvCache(config, 1)
    for i in range(seq_len):
        step = decode_step(cache, q[i], k[i], v[i])
        assert np.allclose(step, full[i].reshape(-1), atol=1e-10), i
        assert np.sort(cache.positions).tolist() == stash.row(i)[0].tolist()


def test_attend_single_first_step_self_only():
    config = make_config("lambda", "rope")
    cache = KvCache(config, 1)
    rng = np.random.default_rng(12)
    q, k, v = (rng.normal(size=(HEADS, HEAD_DIM)) for _ in range(3))
    step = decode_step(cache, q, k, v)
    assert np.allclose(step, v.reshape(-1), atol=1e-12)
    assert cache.positions.tolist() == [0]


@pytest.mark.parametrize("kind", ["rope", "alibi"])
def test_vanilla_streaming_step_equals_full_row(kind):
    # A growing cache over a vanilla config reproduces every dense causal
    # row at raw distances, across several doublings of the cache arrays.
    config = make_config("vanilla_causal", kind)
    seq_len = 40
    rng = np.random.default_rng(15)
    q, k, v = random_qkv(rng, seq_len)
    full, _ = attend(q, k, v, config)
    cache = KvCache(config, 1)
    for i in range(seq_len):
        step = decode_step(cache, q[i], k[i], v[i])
        assert np.allclose(step, full[i].reshape(-1), atol=1e-10), i
        assert np.sort(cache.positions).tolist() == list(range(i + 1))
    assert len(cache) == seq_len


def test_entropy_and_last_logit_capture():
    config = make_config("lambda", "rope", n_global=1, n_local=2, l_pretrain=4)
    rng = np.random.default_rng(14)
    seq_len = 9
    q, k, v = random_qkv(rng, seq_len)
    _, stash = attend(np.zeros_like(q), k, v, config)
    # Zero queries: uniform rows, entropy = ln(row size); row 8 has 3 keys.
    entropy = stash.entropy()
    assert entropy.shape == (HEADS, seq_len)
    assert np.allclose(entropy[:, 8], np.log(3.0), atol=1e-12)
    keys, _, dist = stash.row(-1)
    assert keys.tolist() == [0, 7, 8]
    assert dist.tolist() == [4, 1, 0]  # 8-0 clamps to l_pretrain=4
    assert stash.last_logits.shape == (HEADS, 3)
    _, vanilla = attend(q, k, v, make_config("vanilla_causal", "rope"))
    assert vanilla.row(-1)[2].tolist() == list(range(seq_len - 1, -1, -1))


# ---------------------------------------------------------------------------
# Blocked kernel: several query blocks per sequence
# ---------------------------------------------------------------------------

BLOCK_CASES = [
    # (n_global, n_local, l_pretrain): the clamp binds on pinned keys in all
    # but the last; n_global = 0 and pinned prefixes wider than a block too.
    (2, 5, 8),
    (0, 3, 4),
    (6, 3, 4),
    (1, 7, 7),
    (3, 2, 64),
]


@pytest.fixture
def small_blocks(monkeypatch):
    import lm_infinite.attention as attention

    monkeypatch.setattr(attention, "BLOCK", 4)


@pytest.mark.parametrize("mode", ["lambda", "vanilla_causal"])
@pytest.mark.parametrize("kind", ["rope", "alibi"])
@pytest.mark.parametrize("branches", BLOCK_CASES)
def test_blocks_match_dense_oracle(small_blocks, mode, kind, branches):
    import lm_infinite.attention as attention

    rng = np.random.default_rng(hash((mode, kind, branches)) % 2**32)
    config = make_config(mode, kind, *branches)
    seq_len = 19  # four full blocks of 4 plus a partial one
    q, k, v = random_qkv(rng, seq_len)
    got, stash = attend(q, k, v, config)
    want, w = oracle_attend(q, k, v, config)
    assert np.allclose(got.reshape(want.shape), want, atol=1e-12, rtol=0)
    assert max(b.e - b.s for b in stash.blocks) <= attention.BLOCK
    entropy = stash.entropy()
    for i in range(seq_len):
        cols = np.flatnonzero(w[0, i] > 0)
        keys, weights, dist = stash.row(i)
        assert keys.tolist() == cols.tolist()
        assert np.allclose(weights, w[:, i, cols], atol=1e-12, rtol=0)
        ent = -(w[:, i, cols] * np.log(w[:, i, cols])).sum(axis=-1)
        assert np.allclose(entropy[:, i], ent, atol=1e-12, rtol=0)
        d = i - keys
        if mode == "lambda":
            d = np.minimum(d, config.mask_params.l_pretrain)
        assert dist.tolist() == d.tolist()
    assert stash.last_logits.shape == (HEADS, len(stash.row(-1)[0]))


@pytest.mark.parametrize("kind", ["rope", "alibi"])
@pytest.mark.parametrize("branches", BLOCK_CASES)
def test_blocks_equal_one_block(monkeypatch, kind, branches):
    # The block size is a schedule, not a semantic: every choice agrees, in
    # both modes.
    import lm_infinite.attention as attention

    rng = np.random.default_rng(16)
    q, k, v = random_qkv(rng, 23)
    d_out = rng.normal(size=q.shape)
    for mode in ("lambda", "vanilla_causal"):
        config = make_config(mode, kind, *branches)
        results = []
        for block in (1, 3, 8, 64):
            monkeypatch.setattr(attention, "BLOCK", block)
            out, stash = attend(q, k, v, config)
            results.append((out, *attend_backward(stash, d_out)))
        for other in results[1:]:
            for a, b in zip(results[0], other):
                assert np.allclose(a, b, atol=1e-12, rtol=0)


@pytest.mark.parametrize("mode", ["lambda", "vanilla_causal"])
@pytest.mark.parametrize("kind", ["rope", "alibi"])
def test_blocks_backward_matches_finite_differences(monkeypatch, mode, kind):
    import lm_infinite.attention as attention

    monkeypatch.setattr(attention, "BLOCK", 3)
    rng = np.random.default_rng(17)
    # Rows 5.. see pinned keys past the clamp; blocks split both branches.
    config = make_config(mode, kind, n_global=2, n_local=3, l_pretrain=4)
    seq_len = 11
    q, k, v = random_qkv(rng, seq_len)
    ct = rng.normal(size=(seq_len, HEADS, HEAD_DIM))

    out, stash = attend(q, k, v, config)
    dq, dk, dv = attend_backward(stash, ct)

    def loss():
        vals, _ = attend(q, k, v, config)
        return float(np.sum(vals * ct))

    for analytic, x in ((dq, q), (dk, k), (dv, v)):
        numeric = fd_gradient(loss, x)
        assert np.allclose(analytic, numeric, atol=1e-6, rtol=1e-5)


def test_blocks_batched_matches_per_sequence(small_blocks):
    rng = np.random.default_rng(18)
    shape = (3, 14, HEADS, HEAD_DIM)
    q, k, v = rng.normal(size=shape), rng.normal(size=shape), rng.normal(size=shape)
    d_out = rng.normal(size=shape)
    for kind in ("rope", "alibi"):
        for mode in ("lambda", "vanilla_causal"):
            config = make_config(mode, kind, n_global=2, n_local=3, l_pretrain=5)
            out, stash = attend(q, k, v, config)
            grads = attend_backward(stash, d_out)
            for b in range(shape[0]):
                ob, sb = attend(q[b], k[b], v[b], config)
                assert np.allclose(out[b], ob, atol=1e-12)
                for g, gb in zip(grads, attend_backward(sb, d_out[b])):
                    assert np.allclose(g[b], gb, atol=1e-12)


def test_batched_stash_readers_match_per_sequence(small_blocks):
    # Entropies, single rows and last-row logits of a batched call are the
    # per-sequence ones, stacked on the batch axis.
    rng = np.random.default_rng(20)
    shape = (3, 14, HEADS, HEAD_DIM)
    q, k, v = rng.normal(size=shape), rng.normal(size=shape), rng.normal(size=shape)
    for kind in ("rope", "alibi"):
        for mode in ("lambda", "vanilla_causal"):
            config = make_config(mode, kind, n_global=2, n_local=3, l_pretrain=5)
            _, stash = attend(q, k, v, config)
            for b in range(shape[0]):
                _, sb = attend(q[b], k[b], v[b], config)
                assert np.allclose(stash.entropy()[b], sb.entropy(), atol=1e-12)
                assert np.allclose(stash.last_logits[b], sb.last_logits, atol=1e-12)
                for i in (0, 5, -1):
                    keys, weights, dist = stash.row(i)
                    keys_b, weights_b, dist_b = sb.row(i)
                    assert keys.tolist() == keys_b.tolist()
                    assert dist.tolist() == dist_b.tolist()
                    assert np.allclose(weights[b], weights_b, atol=1e-12)


@pytest.mark.parametrize("kind", ["rope", "alibi"])
def test_streaming_matches_blocks_with_far_pinned_keys(small_blocks, kind):
    # Decode rows past the clamp score far pinned keys at the clamp, exactly
    # as the blocked kernel does. With n_global 8 > l_pretrain 4, rows 5 to
    # 7 are past the clamp while the pinned prefix is still filling.
    for n_global in (3, 8):
        config = make_config("lambda", kind, n_global=n_global, n_local=3, l_pretrain=4)
        rng = np.random.default_rng(19)
        q, k, v = random_qkv(rng, 17)
        full, stash = attend(q, k, v, config)
        cache = KvCache(config, 1)
        for i in range(17):
            step = decode_step(cache, q[i], k[i], v[i])
            assert np.allclose(step, full[i].reshape(-1), atol=1e-12), (n_global, i)
            assert np.sort(cache.positions).tolist() == stash.row(i)[0].tolist()


@pytest.mark.parametrize("mode", ["lambda", "vanilla_causal"])
@pytest.mark.parametrize("kind", ["rope", "alibi"])
@pytest.mark.parametrize("branches", BLOCK_CASES)
def test_cache_chunks_match_blocks(small_blocks, mode, kind, branches):
    # KvCache chunks of up to BLOCK = 4 rows, in runs that put chunk starts
    # at every ring alignment, reproduce attend()'s rows; after each chunk
    # the cache keeps exactly the keys of the chunk's last row.
    config = make_config(mode, kind, *branches)
    rng = np.random.default_rng(21)
    seq_len = 19
    q, k, v = random_qkv(rng, seq_len)
    full, stash = attend(q, k, v, config)
    for sizes in ((4,), (3,), (1, 4, 2)):
        cache = KvCache(config, 1)
        s = 0
        for i in range(seq_len):
            if s == seq_len:
                break
            e = min(s + sizes[i % len(sizes)], seq_len)
            cache.begin(e - s)
            got = cache.attend(0, q[s:e], k[s:e], v[s:e])
            cache.advance()
            assert np.allclose(got, full[s:e].reshape(-1), atol=1e-12, rtol=0), (sizes, s)
            assert np.sort(cache.positions).tolist() == stash.row(e - 1)[0].tolist()
            s = e
        assert cache.next_position == seq_len


@pytest.mark.parametrize("n", [0, 5])
def test_cache_chunk_holds_one_to_block_rows(small_blocks, n):
    cache = KvCache(make_config("lambda", "rope"), 1)
    with pytest.raises(ValueError, match="a chunk holds 1 to 4 positions"):
        cache.begin(n)
