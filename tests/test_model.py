"""Trainable toy transformer: init, forward, gradients, decoding, checkpoints."""

import math
import struct

import numpy as np
import pytest

from lm_infinite.corpus import SyntheticLanguage
from lm_infinite.errors import (
    CacheStateError,
    CorpusFormatError,
    NanDetectedError,
    TrainingDivergedError,
)
from lm_infinite.model import (
    DecodeSession,
    ToyModel,
    ToyModelConfig,
    forward,
    forward_traced,
    generate,
    init,
    load_model,
    loss_and_grads,
    save_model,
    train,
)


def tiny_config(**over):
    base = dict(
        vocab_size=31,
        d_model=16,
        n_layers=2,
        n_heads=2,
        train_len=16,
        n_global=2,
        n_local=16,
        l_pretrain=16,
        seed=11,
    )
    base.update(over)
    return ToyModelConfig(**base)


@pytest.fixture(scope="module")
def tiny_corpus():
    return SyntheticLanguage(vocab_size=31, n_motifs=4, motif_len=4, seed=5).sample(6, 120)


# ---------------------------------------------------------------------------
# Init
# ---------------------------------------------------------------------------


def test_init_is_deterministic_bitwise():
    a = init(tiny_config())
    b = init(tiny_config())
    assert sorted(a.params) == sorted(b.params)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name]), name


def test_init_seed_changes_weights():
    a = init(tiny_config(seed=11))
    b = init(tiny_config(seed=12))
    assert not np.array_equal(a.params["embedding"], b.params["embedding"])
    # ...but structural zeros/ones are seed-independent
    assert np.array_equal(b.params["layer0/ln1/gamma"], np.ones(16))
    assert np.array_equal(b.params["layer0/mlp/b1"], np.zeros(64))


def test_init_std_roughly_right():
    model = init(tiny_config(d_model=64, vocab_size=256))
    emb = model.params["embedding"]
    assert abs(emb.std() - 0.02) < 0.002


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------


def test_forward_shape_and_finite():
    model = init(tiny_config())
    logits = forward(model, np.arange(7) % 31)
    assert logits.shape == (7, 31)
    assert np.isfinite(logits).all()


def test_forward_rejects_bad_inputs():
    model = init(tiny_config())
    with pytest.raises(ValueError):
        forward(model, np.asarray([], dtype=np.int64))
    with pytest.raises(ValueError):
        forward(model, np.asarray([0, 31]))  # vocab_size == 31
    with pytest.raises(ValueError):
        forward(model, np.asarray([[1, 2], [3, 4]]))


def test_lambda_matches_vanilla_within_local_window():
    # With seq_len <= n_local and <= l_pretrain the lambda mask row is the
    # full causal row and no distance is clamped, so the two modes compute
    # the same attention.
    model = init(tiny_config(n_local=24, l_pretrain=24, train_len=24))
    ids = np.arange(20) % 31
    out_l = forward(model, ids, mode="lambda")
    out_v = forward(model, ids, mode="vanilla_causal")
    np.testing.assert_allclose(out_l, out_v, atol=1e-10)


def test_modes_differ_beyond_local_window():
    model = init(tiny_config())
    ids = np.arange(40) % 31  # > n_local + n_global
    out_l = forward(model, ids, mode="lambda")
    out_v = forward(model, ids, mode="vanilla_causal")
    assert np.abs(out_l - out_v).max() > 1e-8


def test_forward_traced_requires_single_sequence():
    model = init(tiny_config())
    with pytest.raises(ValueError):
        forward_traced(model, np.zeros((2, 5), dtype=np.int64))


def test_nan_error_names_layer_and_position():
    model = init(tiny_config())
    model.params["layer1/mlp/w2"][0, 0] = np.nan
    with pytest.raises(NanDetectedError) as exc:
        forward(model, np.arange(5))
    assert "layer 1" in str(exc.value)
    assert "position" in str(exc.value)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def fd_check(model, ids, mode, names, h=1e-5):
    loss, grads = loss_and_grads(model, ids, mode=mode)
    stream = np.random.default_rng(0)
    worst = 0.0
    for name in names:
        arr = model.params[name]
        flat = arr.reshape(-1)
        for idx in stream.choice(flat.size, size=min(4, flat.size), replace=False):
            keep = flat[idx]
            flat[idx] = keep + h
            up, _ = loss_and_grads(model, ids, mode=mode)
            flat[idx] = keep - h
            dn, _ = loss_and_grads(model, ids, mode=mode)
            flat[idx] = keep
            fd = (up - dn) / (2 * h)
            an = grads[name].reshape(-1)[idx]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
            worst = max(worst, rel)
    return worst


@pytest.mark.parametrize("mode", ["lambda", "vanilla_causal"])
def test_gradients_match_finite_differences(mode):
    cfg = tiny_config(n_local=8, l_pretrain=8, n_global=1)  # clamp + both ranges active
    model = init(cfg)
    ids = (np.arange(14) * 7) % 31
    names = [
        "embedding",
        "layer0/attn/wq",
        "layer0/attn/wk",
        "layer0/attn/wv",
        "layer1/mlp/w1",
        "layer1/ln2/gamma",
        "ln_f/beta",
        "head",
    ]
    worst = fd_check(model, ids, mode, names)
    assert worst < 1e-4, f"worst relative gradient error {worst}"


@pytest.mark.parametrize("mode", ["lambda", "vanilla_causal"])
def test_loss_forward_covers_only_input_rows(monkeypatch, mode):
    import lm_infinite.model as model_module

    rows = []
    real = model_module.attend

    def recording(q, k, v, config):
        rows.append(q.shape[-3])
        return real(q, k, v, config)

    monkeypatch.setattr(model_module, "attend", recording)
    model = init(tiny_config())
    loss_and_grads(model, (np.arange(2 * 129).reshape(2, 129) * 7) % 31, mode=mode)
    assert rows == [128] * model.config.n_layers


@pytest.mark.parametrize("encoding", ["rope", "alibi"])
@pytest.mark.parametrize("mode", ["lambda", "vanilla_causal"])
def test_micro_batches_equal_one_chunk(monkeypatch, mode, encoding):
    import lm_infinite.model as model_module

    model = init(tiny_config(encoding=encoding, n_local=8, l_pretrain=8))
    rng = np.random.default_rng(77)
    for name in model.params:  # break init's symmetries (zero biases, unit gains)
        model.params[name] = model.params[name] + 0.05 * rng.normal(
            size=model.params[name].shape
        )
    ids = rng.integers(0, 31, (5, 21))  # past the clamp; 20 input rows each
    one_loss, one_grads = loss_and_grads(model, ids, mode=mode)
    attend_rows = []
    real = model_module.attend

    def recording(q, k, v, config):
        attend_rows.append(q.shape[0])
        return real(q, k, v, config)

    monkeypatch.setattr(model_module, "attend", recording)
    monkeypatch.setattr(model_module, "MICRO_BATCH_ROWS", 40)  # 2 sequences a chunk
    loss, grads = loss_and_grads(model, ids, mode=mode)
    assert attend_rows == [2] * 2 + [2] * 2 + [1] * 2  # chunks 2, 2, 1 x 2 layers
    assert abs(loss - one_loss) <= 1e-12
    assert grads.keys() == one_grads.keys()
    for name, g in one_grads.items():
        np.testing.assert_allclose(grads[name], g, rtol=0, atol=1e-12, err_msg=name)


def test_gradients_batch_is_mean_of_sequences():
    model = init(tiny_config())
    a = (np.arange(9) * 3) % 31
    b = (np.arange(9) * 5 + 1) % 31
    loss_ab, grads_ab = loss_and_grads(model, np.stack([a, b]))
    loss_a, grads_a = loss_and_grads(model, a)
    loss_b, grads_b = loss_and_grads(model, b)
    assert math.isclose(loss_ab, (loss_a + loss_b) / 2, rel_tol=1e-12)
    for name in grads_ab:
        np.testing.assert_allclose(
            grads_ab[name], (grads_a[name] + grads_b[name]) / 2, atol=1e-12
        )


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def test_train_zero_steps_leaves_params_untouched(tiny_corpus):
    model = init(tiny_config())
    before = {k: v.copy() for k, v in model.params.items()}
    result = train(model, tiny_corpus, steps=0)
    assert result.loss_trace == []
    for name, arr in before.items():
        assert np.array_equal(arr, result.model.params[name])


def test_train_reports_per_step_telemetry(tiny_corpus):
    model = init(tiny_config())
    start = {k: v.copy() for k, v in model.params.items()}
    result = train(model, tiny_corpus, steps=3, batch_shape=(4, 16))
    for trace in (result.step_seconds, result.grad_norm, result.update_norm):
        assert len(trace) == 3
        assert all(math.isfinite(x) and x > 0 for x in trace)
    # One step: the update norm is the distance the parameters moved.
    one = train(init(tiny_config()), tiny_corpus, steps=1, batch_shape=(4, 16))
    moved = sum(np.sum((one.model.params[k] - start[k]) ** 2) for k in start)
    assert math.isclose(one.update_norm[0], math.sqrt(moved), rel_tol=1e-9)
    assert one.grad_norm[0] == result.grad_norm[0]


def test_train_reduces_loss(tiny_corpus):
    model = init(tiny_config())
    result = train(model, tiny_corpus, steps=40, lr=3e-3, batch_shape=(8, 16))
    assert all(math.isfinite(x) for x in result.loss_trace)
    assert result.loss_trace[-1] < result.loss_trace[0] - 0.3


def test_train_is_deterministic(tiny_corpus):
    r1 = train(init(tiny_config()), tiny_corpus, steps=5, batch_shape=(4, 16))
    r2 = train(init(tiny_config()), tiny_corpus, steps=5, batch_shape=(4, 16))
    assert r1.loss_trace == r2.loss_trace
    for name in r1.model.params:
        assert np.array_equal(r1.model.params[name], r2.model.params[name])


def test_train_divergence_raises_with_step_index(tiny_corpus):
    model = init(tiny_config())
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as exc:
        train(model, tiny_corpus, steps=20, lr=1e80, batch_shape=(4, 16))
    assert "step" in str(exc.value)


def test_train_requires_long_enough_sequences():
    model = init(tiny_config())
    with pytest.raises(CorpusFormatError, match="no sequence of length >= 17"):
        train(model, [np.arange(5, dtype=np.uint32)], steps=1, batch_shape=(2, 16))


def test_train_rejects_out_of_vocabulary_ids_before_any_step(tiny_corpus):
    model = init(tiny_config())
    before = model.copy()
    corpus = [*tiny_corpus, np.full(40, 300, dtype=np.uint32)]
    message = f"corpus sequence {len(tiny_corpus)}: token id 300 outside vocabulary of size 31"
    with pytest.raises(CorpusFormatError, match=message):
        train(model, corpus, steps=3, batch_shape=(2, 16))
    for name, arr in before.params.items():
        assert np.array_equal(model.params[name], arr), name


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def test_generate_single_token_is_argmax_of_forward():
    model = init(tiny_config())
    prompt = (np.arange(9) * 2) % 31
    tok = generate(model, prompt, 1)
    logits = forward(model, prompt)
    assert tok[0] == int(np.argmax(logits[-1]))


@pytest.mark.parametrize("mode", ["lambda", "vanilla_causal"])
def test_cached_generate_matches_uncached(tiny_corpus, mode):
    model = train(init(tiny_config()), tiny_corpus, steps=15, batch_shape=(4, 16)).model
    prompt = tiny_corpus[0][:12]
    slow = generate(model, prompt, 40, mode=mode)
    fast = generate(model, prompt, 40, mode=mode, cache=DecodeSession(model, mode))
    assert np.array_equal(slow, fast)


def test_session_logits_match_full_forward():
    model = init(tiny_config())
    ids = (np.arange(50) * 3 + 2) % 31  # spans beyond n_local: eviction active
    for mode in ("lambda", "vanilla_causal"):
        sess = DecodeSession(model, mode)
        stepped = None
        for t in ids:
            stepped = sess.step(int(t))
        full = forward(model, ids, mode=mode)[-1]
        np.testing.assert_allclose(stepped, full, atol=1e-9)


@pytest.mark.parametrize("encoding", ["rope", "alibi"])
@pytest.mark.parametrize("n_global", [0, 2])
def test_session_matches_forward_across_blocks(monkeypatch, encoding, n_global):
    # Blocks of 8 rows: 45 tokens span five kernel blocks, the lambda window
    # evicts and pinned keys pass the clamp, and the vanilla cache doubles
    # from 16 to 32 to 64 slots.
    import lm_infinite.attention as attention

    monkeypatch.setattr(attention, "BLOCK", 8)
    cfg = tiny_config(encoding=encoding, n_global=n_global, n_local=6, l_pretrain=7)
    model = init(cfg)
    ids = (np.arange(45) * 7 + 1) % 31
    for mode in ("lambda", "vanilla_causal"):
        full = forward(model, ids, mode=mode)
        sess = DecodeSession(model, mode)
        stepped = np.stack([sess.step(int(t)) for t in ids])
        np.testing.assert_allclose(stepped, full, atol=1e-12, rtol=0)
        bound = n_global + 6 if mode == "lambda" else len(ids)
        assert sess.peak_cache_entries() == bound


def test_lambda_session_cache_is_bounded():
    cfg = tiny_config()
    model = init(cfg)
    sess = DecodeSession(model, "lambda")
    for t in range(100):
        sess.step(t % 31)
    assert sess.peak_cache_entries() <= cfg.n_global + cfg.n_local


def test_generate_rejects_used_session():
    model = init(tiny_config())
    sess = DecodeSession(model, "lambda")
    sess.step(3)
    with pytest.raises(CacheStateError):
        generate(model, [1, 2], 4, cache=sess)


def test_generate_rejects_mode_mismatch():
    model = init(tiny_config())
    sess = DecodeSession(model, "vanilla_causal")
    with pytest.raises(CacheStateError):
        generate(model, [1, 2], 4, mode="lambda", cache=sess)


@pytest.mark.parametrize("position", [0, 5])
def test_decode_session_nan_names_layer_and_position(position):
    model = init(tiny_config())
    sess = DecodeSession(model, "lambda")
    for t in range(position):
        sess.step(t + 1)
    model.params["layer0/attn/wo"][:] = np.nan
    with pytest.raises(NanDetectedError) as exc:
        sess.step(1)
    assert "layer 0" in str(exc.value) and f"position {position}" in str(exc.value)


@pytest.mark.parametrize("position", [0, 5])
def test_decode_nan_in_attention_input_names_forward_row(position):
    # A NaN embedding row reaches the attention inputs at ``position``: the
    # decode message names the same row as the full forward's.
    model = init(tiny_config())
    model.params["embedding"][7] = np.nan
    ids = [1, 2, 3, 4, 5][:position] + [7]
    with pytest.raises(NanDetectedError) as full:
        forward(model, ids)
    sess = DecodeSession(model, "lambda")
    for t in ids[:-1]:
        sess.step(t)
    with pytest.raises(NanDetectedError) as step:
        sess.step(7)
    assert f"layer 0: NaN in attention input q at row {position}" == str(full.value)
    assert str(step.value) == str(full.value)


@pytest.mark.parametrize("mode, position", [
    ("lambda", 1), ("lambda", 20), ("vanilla_causal", 1), ("vanilla_causal", 16),
])
def test_step_failing_past_layer0_keeps_session_usable(mode, position):
    # NaN after layer 0's attention: layer 0 has stored the token, layer 1
    # has not. The position does not move, so the next step rewrites that
    # slot in every layer. At 20 the lambda write evicted position 4, outside
    # the window from then on; at 16 the vanilla cache had to double.
    model = init(tiny_config())
    sess, fresh = DecodeSession(model, mode), DecodeSession(model, mode)
    for t in range(position):
        sess.step(t % 31)
        fresh.step(t % 31)
    wo = model.params["layer0/attn/wo"].copy()
    model.params["layer0/attn/wo"][:] = np.nan
    with pytest.raises(NanDetectedError):
        sess.step(2)
    model.params["layer0/attn/wo"][:] = wo
    assert sess.position == position
    for t in (5, 3, 7):
        np.testing.assert_array_equal(sess.step(t), fresh.step(t))


def test_step_failing_in_layer0_input_check_keeps_session_usable():
    # A NaN embedding row fails layer 0's input check before any store: the
    # session goes on as if the token had never been fed.
    model = init(tiny_config())
    model.params["embedding"][7] = np.nan
    sess = DecodeSession(model, "lambda")
    sess.step(1)
    with pytest.raises(NanDetectedError):
        sess.step(7)
    assert sess.position == 1
    fresh = DecodeSession(model, "lambda")
    fresh.step(1)
    for t in (2, 3):
        np.testing.assert_array_equal(sess.step(t), fresh.step(t))


@pytest.mark.parametrize("n_layers", [1, 4])
def test_decode_step_computes_rope_cos_sin_once(monkeypatch, n_layers):
    # Layer 0 works out the step's cos/sin for every layer, before and past
    # the clamp (far pinned keys were rotated when they were stored).
    import lm_infinite.kv_cache as kv_cache

    cos_sin = kv_cache.rope_cos_sin
    positions = []

    def counting(position, params):
        positions.append(position)
        return cos_sin(position, params)

    sess = DecodeSession(init(tiny_config(n_layers=n_layers)), "lambda")
    monkeypatch.setattr(kv_cache, "rope_cos_sin", counting)
    for t in range(24):
        sess.step(t % 31)
    assert positions == list(range(24))


def test_decode_step_rotation_work_is_independent_of_pinned_prefix(monkeypatch):
    # Past the clamp, a RoPE step rotates only its query and its own key in
    # each layer: far pinned keys are stored once, so no per-step rotation
    # grows with n_global.
    import lm_infinite.kv_cache as kv_cache

    rotate = kv_cache.apply_rotation_f64
    rows = []

    def counting(x, cos, sin):
        rows.append(np.size(x) // np.shape(x)[-1])
        return rotate(x, cos, sin)

    counts = {}
    for n_global in (0, 4, 16):
        cfg = tiny_config(n_global=n_global)
        sess = DecodeSession(init(cfg), "lambda")
        while sess.position <= cfg.l_pretrain + n_global + 1:
            sess.step(sess.position % 31)
        rows.clear()
        monkeypatch.setattr(kv_cache, "apply_rotation_f64", counting)
        sess.step(3)
        monkeypatch.setattr(kv_cache, "apply_rotation_f64", rotate)
        counts[n_global] = sum(rows)
    assert counts == {g: 2 * 2 * 2 for g in (0, 4, 16)}  # (q, k) x heads x layers


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path, tiny_corpus):
    model = train(init(tiny_config()), tiny_corpus, steps=10, batch_shape=(4, 16)).model
    path = tmp_path / "model.lmtm"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == model.config
    for name, arr in model.params.items():
        assert np.array_equal(
            loaded.params[name], arr.astype(np.float32).astype(np.float64)
        ), name
    ids = tiny_corpus[1][:30]
    np.testing.assert_allclose(
        forward(loaded, ids), forward(model, ids), atol=1e-4
    )


def test_checkpoint_save_is_canonical(tmp_path):
    model = init(tiny_config())
    p1, p2 = tmp_path / "a.lmtm", tmp_path / "b.lmtm"
    save_model(model, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.lmtm"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(ValueError):
        load_model(path)


def test_load_rejects_every_truncation(tmp_path):
    model = init(tiny_config(vocab_size=8, d_model=8, n_layers=1, n_heads=2))
    good = tmp_path / "good.lmtm"
    save_model(model, good)
    blob = good.read_bytes()
    path = tmp_path / "cut.lmtm"
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError) as exc:
            load_model(path)
        message = str(exc.value)
        assert str(path) in message, (cut, message)
        if cut >= 4:
            assert f"byte {cut}" in message, (cut, message)


def test_load_rejects_unknown_config_key_and_tensor(tmp_path):
    model = init(tiny_config(vocab_size=8, d_model=8, n_layers=1, n_heads=2))
    path = tmp_path / "m.lmtm"
    save_model(model, path)
    blob = path.read_bytes()

    bad_key = tmp_path / "key.lmtm"
    bad_key.write_bytes(blob.replace(b"seed=", b"sead="))
    with pytest.raises(ValueError, match="unknown config key 'sead'"):
        load_model(bad_key)

    bad_mode = tmp_path / "mode.lmtm"
    bad_mode.write_bytes(blob.replace(b"mode=lambda", b"mode=lambdX"))
    with pytest.raises(ValueError, match="mode must be one of"):
        load_model(bad_mode)

    extra = tmp_path / "extra.lmtm"
    name = b"layer9/attn/wq"
    extra.write_bytes(
        blob + struct.pack("<I", len(name)) + name + struct.pack("<II", 1, 2) + bytes(8)
    )
    with pytest.raises(ValueError, match=f"unexpected tensor 'layer9/attn/wq' at byte {len(blob)}"):
        load_model(extra)


def test_config_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode must be one of"):
        tiny_config(mode="lambdX")


@pytest.mark.parametrize("over, message", [
    (dict(n_heads=0), "n_heads must be >= 1"),
    (dict(n_heads=-4), "n_heads must be >= 1"),
    (dict(n_layers=0), "n_layers must be >= 1"),
    (dict(d_model=0), "head_dim must be even and >= 2"),
    (dict(d_model=6, n_heads=2), "head_dim must be even and >= 2"),
    (dict(rope_base=-1.0), "base must be positive and finite"),
    (dict(rope_base=float("nan")), "base must be positive and finite"),
])
def test_config_rejects_broken_values_at_construction(over, message):
    with pytest.raises(ValueError, match=message):
        tiny_config(**over)


def test_load_rejects_broken_config_block_names_path(tmp_path):
    path = tmp_path / "m.lmtm"
    save_model(init(tiny_config()), path)
    path.write_bytes(path.read_bytes().replace(b"n_heads=2", b"n_heads=0"))
    with pytest.raises(ValueError, match="n_heads must be >= 1") as exc:
        load_model(path)
    assert str(exc.value).startswith(f"{path}: bad config:")


def test_copy_is_independent():
    model = init(tiny_config())
    clone = model.copy()
    clone.params["head"][0, 0] += 1.0
    assert model.params["head"][0, 0] != clone.params["head"][0, 0]
