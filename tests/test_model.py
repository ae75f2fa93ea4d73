"""Trainable toy transformer: init, forward, gradients, decoding, checkpoints."""

import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from conftest import rewrite_config, tiny_config

from lm_infinite.corpus import SyntheticLanguage
from lm_infinite.errors import (
    CacheStateError,
    CorpusFormatError,
    NanDetectedError,
    TrainingDivergedError,
)
from lm_infinite.evaluation import nll_curve
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
    # Two sequences of 128 input rows, split into micro-batches.
    per_chunk = max(1, model_module.MICRO_BATCH_ROWS // 128)
    n_chunks = -(-2 // per_chunk)
    assert set(rows) == {128}
    assert len(rows) == model.config.n_layers * n_chunks


def test_training_step_activation_peak_is_bounded():
    # Micro-batches of one default-length sequence keep the stash of a
    # 16x129 default-config step near 25 MB; 512-row chunks peaked at 79 MB.
    import tracemalloc

    model = init(ToyModelConfig())
    ids = np.random.default_rng(5).integers(0, 256, (16, 129))
    tracemalloc.start()
    try:
        loss_and_grads(model, ids, mode="vanilla_causal")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, f"peak {peak / 1e6:.1f} MB"


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


def test_batched_nan_names_the_callers_sequence():
    # 16 x 17 ids run as micro-batches of 8 sequences; the NaN sits in the
    # second one, at sequence 11 of the caller's array, input row 3.
    model = init(tiny_config())
    model.params["embedding"][30] = np.nan
    ids = np.arange(16 * 17).reshape(16, 17) % 30
    ids[11, 3] = 30
    with pytest.raises(NanDetectedError) as exc:
        loss_and_grads(model, ids)
    assert str(exc.value) == "layer 0: NaN in attention input q at batch 11, row 3"
    with pytest.raises(NanDetectedError) as exc:
        loss_and_grads(model, ids[11])
    assert str(exc.value) == "layer 0: NaN in attention input q at row 3"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the poison overflows
def test_batched_nan_after_the_mlp_names_the_callers_sequence():
    # Token 30 points along dimension 0 only, so after layer 0's second
    # norm its row is about 3.9 there and every other row stays below 3.5:
    # a first MLP weight of 1.797e308 / 3.5 overflows that row alone, after
    # an attention that stayed finite. Sequence 11 holds it at row 3.
    model = init(tiny_config())
    model.params["embedding"][30] = 0.0
    model.params["embedding"][30, 0] = 1e3
    model.params["layer0/mlp/w1"][0] = 1.797e308 / 3.5
    ids = np.arange(16 * 17).reshape(16, 17) % 30
    ids[11, 3] = 30
    with pytest.raises(NanDetectedError) as exc:
        loss_and_grads(model, ids)
    assert str(exc.value) == "NaN after MLP in layer 0, batch 11, position 3"
    with pytest.raises(NanDetectedError) as exc:
        loss_and_grads(model, ids[11])
    assert str(exc.value) == "NaN after MLP in layer 0, position 3"


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


@pytest.mark.parametrize("lr", [float("nan"), 0.0, -1.0, float("inf")])
def test_train_rejects_bad_lr_before_any_step(tiny_corpus, lr):
    model = init(tiny_config())
    before = model.copy()
    with pytest.raises(ValueError, match=f"lr must be positive and finite, got {lr}"):
        train(model, tiny_corpus, steps=3, lr=lr, batch_shape=(2, 16))
    for name, arr in before.params.items():
        assert np.array_equal(model.params[name], arr), name


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_train_rejects_seed_outside_u64(tiny_corpus, seed):
    model = init(tiny_config())
    with pytest.raises(ValueError, match=f"seed must be in .*, got {seed}$"):
        train(model, tiny_corpus, steps=1, batch_shape=(2, None), seed=seed)


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
def test_cached_generate_matches_uncached(tiny_corpus, greedy_oracle, mode):
    # 12 + 40 tokens run past n_local = 16: the lambda window evicts.
    prompt = tiny_corpus[0][:12]
    for encoding in ("rope", "alibi"):
        model = init(tiny_config(encoding=encoding))
        model = train(model, tiny_corpus, steps=15, batch_shape=(4, 16)).model
        slow = greedy_oracle(model, prompt, 40, mode=mode)
        assert np.array_equal(generate(model, prompt, 40, mode=mode), slow), encoding
        session = DecodeSession(model, mode)
        fast = generate(model, prompt, 40, mode=mode, cache=session)
        assert np.array_equal(fast, slow), encoding


def test_generate_without_session_never_runs_full_forward(monkeypatch, greedy_oracle):
    import lm_infinite.model as model_module

    model = init(tiny_config())
    prompt = (np.arange(9) * 2) % 31
    want = greedy_oracle(model, prompt, 20)

    def refuse(*args, **kwargs):
        raise AssertionError("generate() ran a full forward pass")

    monkeypatch.setattr(model_module, "forward", refuse)
    assert np.array_equal(generate(model, prompt, 20), want)


@pytest.mark.parametrize("prompt", [np.array(3), np.ones((2, 4), dtype=np.int64)])
def test_generate_rejects_prompt_that_is_not_one_sequence(prompt):
    with pytest.raises(ValueError, match="prompt must be one-dimensional"):
        generate(init(tiny_config()), prompt, 2)


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
@pytest.mark.parametrize("n_global", [0, 2, 10])
def test_session_matches_forward_across_blocks(monkeypatch, encoding, n_global):
    # Blocks of 8 rows: 45 tokens span five kernel blocks, the lambda window
    # evicts and pinned keys pass the clamp, and the vanilla cache doubles
    # from 16 to 32 to 64 slots. Prefill runs chunks of 8 too: each cut
    # splits the tokens between a first prefill and a second prefill or
    # single steps, so chunks start at every ring alignment and scratch rows
    # move into the ring; cuts 1 and 5 stop inside a pinned prefix of 10.
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
        assert len(sess.cache) == bound
        for cut in (1, 5, 8, 13, 45):
            by_prefill, then_steps = DecodeSession(model, mode), DecodeSession(model, mode)
            head = by_prefill.prefill(ids[:cut])
            np.testing.assert_array_equal(head, then_steps.prefill(ids[:cut]))
            rest = [by_prefill.prefill(ids[cut:])] if cut < len(ids) else []
            got = {
                "prefill": np.concatenate([head] + rest),
                "steps": np.concatenate(
                    [head] + [then_steps.step(int(t))[None] for t in ids[cut:]]
                ),
            }
            for name, logits in got.items():
                for want in (full, stepped):
                    np.testing.assert_allclose(logits, want, atol=1e-12, rtol=0,
                                               err_msg=f"{mode} {cut} {name}")
                assert np.array_equal(logits.argmax(-1), full.argmax(-1))
            assert len(by_prefill.cache) == bound
            assert by_prefill.position == len(ids)


@pytest.mark.parametrize("encoding", ["rope", "alibi"])
@pytest.mark.parametrize("mode", ["lambda", "vanilla_causal"])
def test_prefill_at_default_block_matches_forward(encoding, mode):
    # 300 tokens are two full chunks of BLOCK = 128 and a partial one.
    model = init(tiny_config(encoding=encoding))
    ids = (np.arange(300) * 11 + 4) % 31
    full = forward(model, ids, mode=mode)
    sess = DecodeSession(model, mode)
    got = np.concatenate([sess.prefill(ids[:200]), sess.prefill(ids[200:])])
    np.testing.assert_allclose(got, full, atol=1e-12, rtol=0)
    assert np.array_equal(got.argmax(-1), full.argmax(-1))
    np.testing.assert_allclose(
        sess.step(5), forward(model, np.append(ids, 5), mode=mode)[-1], atol=1e-12, rtol=0
    )


@pytest.mark.parametrize("poison, message", [
    ("embedding", "layer 0: NaN in attention input q at row 11"),
    ("layer1/attn/wq", "layer 1: NaN in attention input q at row 0"),
    ("layer0/attn/wo", "NaN after attention in layer 0, position 0"),
])
def test_prefill_nan_message_matches_forward(monkeypatch, poison, message):
    # Chunks of 8: a NaN embedding row at position 11 fails the second
    # chunk, with the row the full forward names; the first stays consumed.
    import lm_infinite.attention as attention

    monkeypatch.setattr(attention, "BLOCK", 8)
    model = init(tiny_config())
    ids = 8 + np.arange(20) % 6
    ids[11] = 7
    if poison == "embedding":
        model.params["embedding"][7] = np.nan
    else:
        model.params[poison][:] = np.nan
    with pytest.raises(NanDetectedError) as full:
        forward(model, ids)
    sess = DecodeSession(model)
    with pytest.raises(NanDetectedError) as chunk:
        sess.prefill(ids)
    assert str(full.value) == message
    assert str(chunk.value) == message
    assert sess.position == (8 if poison == "embedding" else 0)


@pytest.mark.parametrize("mode, position", [
    ("lambda", 1), ("lambda", 20), ("vanilla_causal", 1), ("vanilla_causal", 16),
])
def test_prefill_failing_past_layer0_keeps_session_usable(mode, position):
    # NaN after layer 0's attention: layer 0 has stored the 30-token chunk,
    # layer 1 none of it. The position does not move, and the next step and
    # prefill rewrite those slots in every layer. From 20 the lambda chunk's
    # first write evicted position 4 and its other rows sat in scratch
    # slots; from 16 the vanilla cache had to grow.
    model = init(tiny_config())
    sess, fresh = DecodeSession(model, mode), DecodeSession(model, mode)
    warm = np.arange(position) % 31
    sess.prefill(warm)
    fresh.prefill(warm)
    wo = model.params["layer0/attn/wo"].copy()
    model.params["layer0/attn/wo"][:] = np.nan
    with pytest.raises(NanDetectedError):
        sess.prefill((np.arange(30) * 2) % 31)
    model.params["layer0/attn/wo"][:] = wo
    assert sess.position == position
    np.testing.assert_array_equal(sess.step(5), fresh.step(5))
    tail = (np.arange(25) * 5 + 3) % 31
    np.testing.assert_array_equal(sess.prefill(tail), fresh.prefill(tail))
    np.testing.assert_array_equal(sess.step(3), fresh.step(3))


@pytest.mark.parametrize("encoding", ["rope", "alibi"])
@pytest.mark.parametrize("mode", ["lambda", "vanilla_causal"])
def test_prefill_rows_equal_full_prefill_rows(monkeypatch, encoding, mode):
    # Chunks of 8 over 45 tokens: the selections cross chunk boundaries,
    # leave whole chunks without a row, and reach rows past the clamp
    # (l_pretrain 7) whose pinned keys are far. The cache takes every row
    # either way, so the next step matches bit for bit.
    import lm_infinite.attention as attention

    monkeypatch.setattr(attention, "BLOCK", 8)
    model = init(tiny_config(encoding=encoding, n_global=2, n_local=6, l_pretrain=7))
    ids = (np.arange(45) * 7 + 1) % 31
    full_sess = DecodeSession(model, mode)
    full = full_sess.prefill(ids)
    after = full_sess.step(4)
    for rows in ([0], [44], [7, 8], [3, 20, 21, 22, 40], list(range(45)),
                 np.arange(9, 45, 5, dtype=np.int32)):
        sess = DecodeSession(model, mode)
        got = sess.prefill(ids, rows=rows)
        assert got.shape == (len(rows), 31)
        np.testing.assert_allclose(got, full[np.asarray(rows)], atol=1e-12, rtol=0,
                                   err_msg=str(rows))
        assert sess.position == 45
        np.testing.assert_array_equal(sess.step(4), after)


def _perturbed(cfg, seed=3):
    """An init'ed model plus 0.05 N(0, 1) on every parameter, so that its
    logits depend on every token they can see."""
    model = init(cfg)
    rng = np.random.default_rng(seed)
    for name in sorted(model.params):
        model.params[name] += 0.05 * rng.standard_normal(model.params[name].shape)
    return model


@pytest.mark.parametrize("encoding", ["rope", "alibi"])
def test_reach_is_n_layers_times_window_minus_one(monkeypatch, encoding):
    # Three layers of a 16-key window: row r sees the pinned prefix and the
    # tokens r - 45 .. r, and nothing before them. Chunks of 8 make the
    # rows= prefill skip chunks; the prefill without rows skips none.
    import lm_infinite.attention as attention

    monkeypatch.setattr(attention, "BLOCK", 8)
    cfg = tiny_config(encoding=encoding, n_layers=3, n_local=16, l_pretrain=20)
    model = _perturbed(cfg)
    reach = cfg.n_layers * (cfg.n_local - 1)
    ids = (np.arange(100) * 7 + 1) % 31
    r = 80

    def row_r(tokens):
        return DecodeSession(model).prefill(tokens)[r], DecodeSession(model).prefill(
            tokens, rows=[r])[0]

    base = row_r(ids)
    for back, changes in ((reach, True), (reach + 1, False)):
        flipped = ids.copy()
        flipped[r - back] = (flipped[r - back] + 5) % 31
        assert r - back >= cfg.n_global
        for got, want in zip(row_r(flipped), base):
            assert np.array_equal(got, want) is not changes, back


def _fed_chunks(n, rows, size, ring, reach):
    """Indices of the chunks of ``size`` over n tokens that a fresh lambda
    session's prefill(rows=) feeds: those that start before the ring is full
    and those that hold a token that a row, or the next position, reaches."""
    reached = set()
    for r in list(rows) + [n]:
        reached.update(range(max(0, r - reach), min(r + 1, n)))
    return [c for c in range(-(-n // size))
            if c * size < ring or reached & set(range(c * size, (c + 1) * size))]


def _record_begins(monkeypatch):
    """Patch KvCache.begin to record the position each chunk starts at."""
    from lm_infinite.kv_cache import KvCache

    begun, begin = [], KvCache.begin

    def recording(self, n=1):
        begun.append(self.next_position)
        begin(self, n)

    monkeypatch.setattr(KvCache, "begin", recording)
    return begun


@pytest.mark.parametrize("encoding", ["rope", "alibi"])
def test_prefill_rows_feeds_only_chunks_in_reach(monkeypatch, encoding):
    # Chunks of 8, G2 + W6, two layers: the ring is full after the first
    # chunk and a row reaches 10 tokens back. Row 73 reaches 63, the last
    # row of chunk 7; row 74 reaches 64, the first row of chunk 8; the next
    # position (200) reaches 190. Vanilla feeds every chunk. The rows equal
    # those of a session that never skips bit for bit, and those of a
    # prefill without rows to 1e-12 (a last layer run on fewer rows can
    # round differently); the next step equals the latter's bit for bit.
    import lm_infinite.attention as attention
    from lm_infinite.kv_cache import KvCache

    monkeypatch.setattr(attention, "BLOCK", 8)
    cfg = tiny_config(encoding=encoding, n_global=2, n_local=6, l_pretrain=7)
    model = _perturbed(cfg)
    begun = _record_begins(monkeypatch)
    reach, n = cfg.n_layers * (cfg.n_local - 1), 200
    assert reach == 10
    ids = (np.arange(n) * 7 + 1) % 31
    for mode in ("lambda", "vanilla_causal"):
        full_sess = DecodeSession(model, mode)
        full = full_sess.prefill(ids)
        after = full_sess.step(4)
        for rows in ([73], [74], [0, 73], [40, 41, 120], [199], [5, 150, 151, 152]):
            begun.clear()
            sess = DecodeSession(model, mode)
            got = sess.prefill(ids, rows=rows)
            fed = [p // 8 for p in begun]
            with monkeypatch.context() as never:
                never.setattr(KvCache, "can_skip", property(lambda self: False))
                unskipped = DecodeSession(model, mode).prefill(ids, rows=rows)
            np.testing.assert_array_equal(got, unskipped, err_msg=str(rows))
            np.testing.assert_allclose(got, full[rows], atol=1e-12, rtol=0)
            if mode == "lambda":
                assert fed == _fed_chunks(n, rows, 8, 8, reach), rows
            else:
                assert fed == list(range(25)), rows
            assert sess.position == n
            np.testing.assert_array_equal(sess.step(4), after)
    # Row 73's chunk is 9, and its reach starts in chunk 7, so chunk 7 is fed
    # and chunk 6 is not; row 74's reach starts in chunk 8, so 7 is skipped.
    assert {6, 7} & set(_fed_chunks(n, [73], 8, 8, reach)) == {7}
    assert {6, 7} & set(_fed_chunks(n, [74], 8, 8, reach)) == set()


def test_nll_curve_feeds_only_chunks_in_reach(monkeypatch):
    # Sparse milestones over 600 tokens: the window rows 7..38, 167..198
    # and 567..598 and the next position 599 reach back 10 tokens each. The
    # points equal those of a session that can never skip, bit for bit.
    import lm_infinite.attention as attention
    from lm_infinite.kv_cache import KvCache

    monkeypatch.setattr(attention, "BLOCK", 8)
    model = _perturbed(tiny_config(n_global=2, n_local=6, l_pretrain=7))
    seq = (np.arange(600) * 11 + 3) % 31
    begun = _record_begins(monkeypatch)
    points = nll_curve(model, [seq], (40, 200, 600))
    rows = np.unique(np.concatenate([np.arange(7, 39), np.arange(167, 199),
                                     np.arange(567, 599)]))
    fed = _fed_chunks(599, rows, 8, 8, 10)
    assert [p // 8 for p in begun] == fed
    assert len(fed) == 17  # of 75: chunks 0-4, 19-24 and 69-74
    monkeypatch.setattr(KvCache, "can_skip", property(lambda self: False))
    begun.clear()
    assert nll_curve(model, [seq], (40, 200, 600)) == points
    assert len(begun) == 75


@pytest.mark.parametrize("encoding", ["rope", "alibi"])
def test_prefill_rows_feeds_the_chunk_after_one_that_raised(monkeypatch, encoding):
    # A NaN embedding fails the chunk at 16 after it stored its first row
    # in the ring. The next prefill's first chunk is out of reach of its
    # row 30 (position 46) and of the next position, but it is fed, to
    # overwrite that slot; the chunk at 24 is skipped. Then the session
    # equals a fresh one bit for bit.
    import lm_infinite.attention as attention

    monkeypatch.setattr(attention, "BLOCK", 8)
    model = _perturbed(tiny_config(encoding=encoding, n_global=2, n_local=6, l_pretrain=7))
    warm = (np.arange(16) * 5 + 2) % 30
    tail = (np.arange(40) * 7 + 1) % 30
    sess, fresh = DecodeSession(model), DecodeSession(model)
    sess.prefill(warm)
    fresh.prefill(warm)
    clean = model.params["embedding"].copy()
    model.params["embedding"][30] = np.nan
    with pytest.raises(NanDetectedError):
        sess.prefill(np.append(30, tail))
    model.params["embedding"][:] = clean
    assert sess.position == 16
    begun = _record_begins(monkeypatch)
    got = sess.prefill(tail, rows=[30])
    assert begun == [16, 32, 40, 48]
    np.testing.assert_allclose(got[0], fresh.prefill(tail)[30], atol=1e-12, rtol=0)
    assert sess.position == 56
    for t in (4, 9):
        np.testing.assert_array_equal(sess.step(t), fresh.step(t))


@pytest.mark.parametrize("encoding", ["rope", "alibi"])
def test_prefill_rows_that_raised_after_a_skip_leaves_an_exact_session(
    monkeypatch, encoding
):
    # Chunks of 8, G2 + W6, two layers (reach 10): row 110 reaches 100, so
    # chunks 8-88 are skipped and chunk 96 fails on a NaN embedding at 100.
    # The next position, 96, reaches 86: the cache goes back to chunk 8 and
    # feeds chunks 80 and 88, so the next steps equal a fresh session's.
    import lm_infinite.attention as attention

    monkeypatch.setattr(attention, "BLOCK", 8)
    model = _perturbed(tiny_config(encoding=encoding, n_global=2, n_local=6, l_pretrain=7))
    ids = (np.arange(120) * 7 + 1) % 30
    ids[100] = 30
    clean = model.params["embedding"].copy()
    model.params["embedding"][30] = np.nan
    sess = DecodeSession(model)
    begun = _record_begins(monkeypatch)
    with pytest.raises(NanDetectedError, match="row 100$"):
        sess.prefill(ids, rows=[110])
    fed = list(begun)
    assert sess.position == 96
    model.params["embedding"][:] = clean
    fresh = DecodeSession(model)
    fresh.prefill(ids[:96])
    for t in ids[96:104]:
        np.testing.assert_array_equal(sess.step(t), fresh.step(t))
    assert fed == [0, 96, 80, 88]


def test_a_nan_in_the_reach_fed_after_a_raise_is_raised_from_its_chunk(monkeypatch):
    # As above, with a second NaN at 90: chunk 96 fails, and feeding its
    # reach fails at chunk 88, which names position 90 and is where the
    # session stays, as a prefill that feeds every chunk would leave it.
    import lm_infinite.attention as attention

    monkeypatch.setattr(attention, "BLOCK", 8)
    model = _perturbed(tiny_config(n_global=2, n_local=6, l_pretrain=7))
    ids = (np.arange(120) * 7 + 1) % 30
    ids[[90, 100]] = 30
    clean = model.params["embedding"].copy()
    model.params["embedding"][30] = np.nan
    sess = DecodeSession(model)
    with pytest.raises(NanDetectedError, match="row 90$"):
        sess.prefill(ids, rows=[110])
    assert sess.position == 88
    model.params["embedding"][:] = clean
    fresh = DecodeSession(model)
    fresh.prefill(ids[:88])
    np.testing.assert_array_equal(sess.prefill(ids[88:100]), fresh.prefill(ids[88:100]))


def _layer_passes(n, rows, size, ring, n_layers, n_local):
    """{chunk start: layers run} of a fresh lambda session's prefill(rows=)
    over n tokens in chunks of ``size``, skipped chunks left out: every
    layer for a chunk that starts before the ring is full; otherwise up to
    the deepest layer j whose keys and values at some position p of the
    chunk a row, or the next position, r >= p reads, r - p <= (n_layers -
    j)(n_local - 1)."""
    ends = list(rows) + [n]
    fed = {}
    for s in range(0, n, size):
        near = min((e - p for e in ends for p in range(s, min(s + size, n)) if e >= p))
        layers = [j + 1 for j in range(n_layers)
                  if near <= (n_layers - j) * (n_local - 1)]
        if s < ring or layers:
            fed[s] = n_layers if s < ring else max(layers)
    return fed


def _record_layers(monkeypatch):
    """Patch KvCache.attend to record {chunk start: layers it ran}."""
    from lm_infinite.kv_cache import KvCache

    ran, attend = {}, KvCache.attend

    def recording(self, layer, q, k, v, rows=None):
        ran[self.next_position] = max(ran.get(self.next_position, 0), layer + 1)
        return attend(self, layer, q, k, v, rows)

    monkeypatch.setattr(KvCache, "attend", recording)
    return ran


def _never_skipping(monkeypatch):
    from lm_infinite.kv_cache import KvCache

    monkeypatch.setattr(KvCache, "can_skip", property(lambda self: False))


@pytest.mark.parametrize("encoding", ["rope", "alibi"])
@pytest.mark.parametrize("n_layers", [2, 3])
def test_prefill_rows_runs_each_chunk_through_the_layers_in_reach(
    monkeypatch, encoding, n_layers
):
    # The row sets of the prefill_rows tests, over 45 and 200 tokens in
    # chunks of 8, G2 + W6. A chunk d > 0 positions before the nearest row
    # or next position runs n_layers + 1 - ceil(d / 5) layers, the last for
    # its keys and values only. The rows and the next 20 steps equal those
    # of a session that never skips, which runs every chunk through every
    # layer, bit for bit.
    import lm_infinite.attention as attention

    monkeypatch.setattr(attention, "BLOCK", 8)
    cfg = tiny_config(encoding=encoding, n_layers=n_layers, n_global=2, n_local=6,
                      l_pretrain=7)
    model = _perturbed(cfg)
    ran = _record_layers(monkeypatch)
    grid = {45: ([0], [44], [7, 8], [3, 20, 21, 22, 40], list(range(45)),
                 np.arange(9, 45, 5, dtype=np.int32)),
            200: ([73], [74], [0, 73], [40, 41, 120], [199], [5, 150, 151, 152])}
    tail = (np.arange(20) * 3 + 2) % 31
    cut = 0
    for n, row_sets in grid.items():
        ids = (np.arange(n) * 7 + 1) % 31
        for rows in row_sets:
            ran.clear()
            sess = DecodeSession(model)
            got = sess.prefill(ids, rows=rows)
            assert ran == _layer_passes(n, rows, 8, 8, n_layers, 6), (n, rows)
            cut += sum(0 < layers < n_layers for layers in ran.values())
            with monkeypatch.context() as never:
                _never_skipping(never)
                ran.clear()
                unskipped = DecodeSession(model)
                np.testing.assert_array_equal(got, unskipped.prefill(ids, rows=rows))
                assert ran == {s: n_layers for s in range(0, n, 8)}
                for t in tail:
                    np.testing.assert_array_equal(sess.step(t), unskipped.step(t))
    assert cut >= 8  # the grid does cut chunks short


def test_nll_curve_layer_passes_at_the_benchmark_size(monkeypatch):
    # The default model over 2048 tokens, milestones 128 .. 2048 in chunks
    # of 128: 43 chunk-layers are run, against 52 with whole chunks (a chunk
    # outside every window's reach is skipped, the others run 4 layers) and
    # 64 with no skip. The points are those of a session that never skips.
    model = init(ToyModelConfig())
    seq = (np.arange(2048) * 7 + 1) % 256
    ran = _record_layers(monkeypatch)
    milestones = (128, 256, 512, 1024, 2048)
    points = nll_curve(model, [seq], milestones)
    assert sum(ran.values()) == 43
    assert len(ran) * 4 == 52
    ran.clear()
    _never_skipping(monkeypatch)
    assert nll_curve(model, [seq], milestones) == points
    assert sum(ran.values()) == 64


@pytest.mark.parametrize("encoding", ["rope", "alibi"])
def test_layer_j_keys_and_values_reach_n_layers_minus_j_windows(monkeypatch, encoding):
    # Three layers of a 6-key window: layer j's stored key and value at p
    # reach row r = 70 if r - p <= (3 - j) * 5 and not one position further
    # back, on a session that never skips. A session that cuts chunks short
    # returns the same row bit for bit under each perturbation: it runs
    # layer j at p exactly when r reads it.
    import lm_infinite.attention as attention
    from lm_infinite.kv_cache import KvCache

    monkeypatch.setattr(attention, "BLOCK", 8)
    cfg = tiny_config(encoding=encoding, n_layers=3, n_global=2, n_local=6, l_pretrain=7)
    model = _perturbed(cfg)
    ids = (np.arange(100) * 7 + 1) % 31
    r, poke, attend = 70, {}, KvCache.attend

    def perturbed(self, layer, q, k, v, rows=None):
        i = poke.get(layer, -1) - self.next_position
        if 0 <= i < len(k):
            k, v = k.copy(), v.copy()
            k[i] += 0.5
            v[i] -= 0.5
        return attend(self, layer, q, k, v, rows)

    monkeypatch.setattr(KvCache, "attend", perturbed)

    def row_r():
        with monkeypatch.context() as never:
            _never_skipping(never)
            unskipped = DecodeSession(model).prefill(ids, rows=[r])[0]
        np.testing.assert_array_equal(DecodeSession(model).prefill(ids, rows=[r])[0],
                                      unskipped)
        return unskipped

    base = row_r()
    for j in range(3):
        for back, changes in (((3 - j) * 5, True), ((3 - j) * 5 + 1, False)):
            poke.clear()
            poke[j] = r - back
            assert np.array_equal(row_r(), base) is not changes, (j, back)


@pytest.mark.parametrize("encoding", ["rope", "alibi"])
def test_prefill_rows_that_raised_after_a_chunk_cut_short_leaves_an_exact_session(
    monkeypatch, encoding
):
    # Chunks of 8, G2 + W6, two layers: row 25 is 10 positions after chunk
    # 8's last row, so chunk 8 runs layer 0 for its keys and values only,
    # and nothing is skipped. Chunk 16 fails on a NaN embedding at 20, whose
    # next position, 16, reads layer 1 at 11 .. 15: the cache goes back to
    # chunk 8 and feeds it through both layers, so the next steps equal a
    # fresh session's.
    import lm_infinite.attention as attention

    monkeypatch.setattr(attention, "BLOCK", 8)
    model = _perturbed(tiny_config(encoding=encoding, n_global=2, n_local=6, l_pretrain=7))
    ids = (np.arange(40) * 7 + 1) % 30
    ids[20] = 30
    clean = model.params["embedding"].copy()
    model.params["embedding"][30] = np.nan
    sess = DecodeSession(model)
    ran, begun = _record_layers(monkeypatch), _record_begins(monkeypatch)
    with pytest.raises(NanDetectedError, match="row 20$"):
        sess.prefill(ids, rows=[25])
    assert begun == [0, 8, 16, 8]
    assert ran[8] == 2 and sess.position == 16
    model.params["embedding"][:] = clean
    fresh = DecodeSession(model)
    fresh.prefill(ids[:16])
    for t in ids[16:24]:
        np.testing.assert_array_equal(sess.step(t), fresh.step(t))


@pytest.mark.parametrize("encoding", ["rope", "alibi"])
def test_prefill_rows_after_a_raise_and_a_step_moves_no_nan_into_the_ring(
    monkeypatch, encoding
):
    # Chunks of 8, G2 + W6, two layers. A prefill of 16 tokens raises on the
    # NaN embedding at 9, after its chunk stored keys and values in both
    # layers: layer 1's scratch slots hold NaN. A step at 8 writes only ring
    # slot 2, so the next prefill(rows=) may cut chunks short: rows 15 and
    # 39 of its 40 tokens (positions 24 and 48) run the chunks at 9 and 33
    # through layer 0 only and skip the one at 25. advance() must not move
    # layer 1's unwritten scratch slots into the ring, where a masked weight
    # of 0 would turn their NaN into a NaN in row 24: the rows and the next
    # 20 steps equal a never-skipping session's bit for bit.
    import lm_infinite.attention as attention

    monkeypatch.setattr(attention, "BLOCK", 8)
    model = _perturbed(tiny_config(encoding=encoding, n_global=2, n_local=6, l_pretrain=7))
    model.params["embedding"][30] = np.nan
    ids = (np.arange(69) * 7 + 1) % 30
    poisoned = ids[:16].copy()
    poisoned[9] = 30
    ran = _record_layers(monkeypatch)

    def run():
        sess = DecodeSession(model)
        with pytest.raises(NanDetectedError):
            sess.prefill(poisoned)
        sess.step(ids[8])
        ran.clear()
        rows = sess.prefill(ids[9:49], rows=[15, 39])
        return rows, [sess.step(t) for t in ids[49:]]

    got, steps = run()
    assert {s: ran[s] for s in (9, 17, 33, 41)} == {9: 1, 17: 2, 33: 1, 41: 2}
    assert 25 not in ran
    with monkeypatch.context() as never:
        _never_skipping(never)
        want, want_steps = run()
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(steps, want_steps)


@pytest.mark.parametrize("rows, message", [
    ([], "rows must be a non-empty 1-d index array, got array([], dtype=float64)"),
    ([[1, 2]], "rows must be a non-empty 1-d index array, got array([[1, 2]])"),
    ([1.0, 2.0], "rows must be integers, got dtype float64"),
    ([3, 9, 5], "rows must be strictly increasing, got 5 after 9"),
    ([2, 4, 4], "rows must be strictly increasing, got 4 after 4"),
    ([-1, 3], "row -1 outside the 12 tokens"),
    ([3, 12], "row 12 outside the 12 tokens"),
])
def test_prefill_rejects_bad_rows(rows, message):
    sess = DecodeSession(init(tiny_config()))
    with pytest.raises(ValueError, match=re.escape(message)):
        sess.prefill(np.arange(12), rows=rows)
    assert sess.position == 0


@pytest.mark.parametrize("tokens, message", [
    (np.ones((2, 3), dtype=np.int64), "prefill takes one token sequence, got shape (2, 3)"),
    ([], "empty token sequence"),
    ([1, 31], "token id 31 outside vocabulary of size 31"),
])
def test_prefill_checks_its_tokens(tokens, message):
    sess = DecodeSession(init(tiny_config()))
    with pytest.raises(ValueError, match=re.escape(message)):
        sess.prefill(tokens)
    assert sess.position == 0


@pytest.mark.parametrize("token, message", [
    (3.7, "token ids must be integers, got dtype float64"),
    (31, "token id 31 outside vocabulary of size 31"),
    (-1, "token id -1 outside vocabulary of size 31"),
    ([3], "step takes one token id, got shape (1,)"),
])
def test_step_checks_its_token(token, message):
    sess = DecodeSession(init(tiny_config()), "lambda")
    with pytest.raises(ValueError, match=re.escape(message)):
        sess.step(token)
    assert sess.position == 0


def test_step_takes_numpy_and_python_ints():
    model = init(tiny_config())
    by_int, by_numpy = DecodeSession(model), DecodeSession(model)
    for t in (3, 30, 0):
        np.testing.assert_array_equal(by_int.step(t), by_numpy.step(np.int64(t)))
    np.testing.assert_array_equal(by_int.step(5), by_numpy.step(np.uint32(5)))


# The exact message of every token-id check, for each entry point: step
# takes one id, the others a sequence.
_BAD_IDS = {
    "bool": (True, [True, False], "token ids must be integers, got dtype bool"),
    "float": (1.0, [1.0, 2.0], "token ids must be integers, got dtype float64"),
    "negative": (-2, [3, -2, 4], "token id -2 outside vocabulary of size 31"),
    "too_big": (31, [3, 31, 4], "token id 31 outside vocabulary of size 31"),
    "both_ends": (None, [40, 3, -2], "token id -2 outside vocabulary of size 31"),
    "two_d": ([[1, 2], [3, 4]], [[1, 2], [3, 4]], {
        "step": "step takes one token id, got shape (2, 2)",
        "prefill": "prefill takes one token sequence, got shape (2, 2)",
        "generate": "prompt must be one-dimensional, got shape (2, 2)",
        "forward": "tokens must be one-dimensional, got shape (2, 2)",
    }),
    "empty": ([], [], {
        "step": "step takes one token id, got shape (0,)",
        "prefill": "empty token sequence",
        "generate": "empty token sequence",
        "forward": "empty token sequence",
    }),
}


@pytest.mark.parametrize("entry, bad", [
    (entry, bad)
    for entry in ("step", "prefill", "generate", "forward")
    for bad, (one, _, _) in _BAD_IDS.items()
    if entry != "step" or one is not None  # one id has no two ends
])
def test_token_id_checks_keep_their_messages(entry, bad):
    one, sequence, message = _BAD_IDS[bad]
    model = init(tiny_config())
    session = DecodeSession(model)
    call = {
        "step": lambda: session.step(one),
        "prefill": lambda: session.prefill(sequence),
        "generate": lambda: generate(model, sequence, 2),
        "forward": lambda: forward(model, sequence),
    }[entry]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == (message[entry] if isinstance(message, dict) else message)
    assert session.position == 0


def test_lambda_session_cache_is_bounded():
    cfg = tiny_config()
    model = init(cfg)
    sess = DecodeSession(model, "lambda")
    for t in range(100):
        sess.step(t % 31)
    assert len(sess.cache) <= cfg.n_global + cfg.n_local


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
    # A NaN embedding row fails layer 0's input check, found when the step
    # is replayed after its NaN logits. By then every layer has stored the
    # token's (NaN) keys and values; the position does not move, so the next
    # step overwrites those slots, and the session goes on as if the token
    # had never been fed.
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


# A NaN or +-inf that shows first at one stage of one layer, in the row of
# the token _LIVE and no earlier row. Every other token of these tests is
# _ZERO, whose embedding is zero: with zero biases its rows stay exactly zero
# through every layer, and zero times a huge finite weight is still zero.
# The poisons push the _LIVE row's values past the float range instead.
_ZERO, _LIVE = 0, 7


def _poison(params, layer, stage):
    pre = f"layer{layer}"
    if stage == "qkv" and layer == 0:  # layer 0's norm: inf - inf
        params["embedding"][_LIVE, 0] = np.inf
    elif stage in ("qkv", "logits"):
        # The MLP before the next layer norm adds +inf (gelu >= -0.17, so no
        # term is -inf), which that MLP's stage scan names.
        pre = f"layer{layer - 1}" if stage == "qkv" else pre
        params[f"{pre}/ln2/gamma"] *= 1e3
        params[f"{pre}/mlp/w2"][:] = 1e308
    elif stage == "attention":  # k = q of ~1e198: the row's own logit is +inf
        params[f"{pre}/attn/wq"] *= 1e200
        params[f"{pre}/attn/wk"][:] = params[f"{pre}/attn/wq"]
    else:  # "mlp": the first MLP product is +-inf or NaN, and gelu's output NaN
        params[f"{pre}/ln2/gamma"] *= 1e3
        params[f"{pre}/mlp/w1"][:] = 1e308


_POISON_MESSAGES = {
    (0, "qkv"): "layer 0: NaN in attention input q at row {r}",
    (1, "qkv"): "NaN after MLP in layer 0, position {r}",
    (0, "attention"): "NaN after attention in layer 0, position {r}",
    (1, "attention"): "NaN after attention in layer 1, position {r}",
    (0, "mlp"): "NaN after MLP in layer 0, position {r}",
    (1, "mlp"): "NaN after MLP in layer 1, position {r}",
    # The +inf that a layer's MLP adds is named at that MLP: layer 0's in
    # the (1, "qkv") case, layer 1's in the (1, "logits") one.
    (1, "logits"): "NaN after MLP in layer 1, position {r}",
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the poisons overflow
@pytest.mark.parametrize("entry", ["step", "prefill"])
@pytest.mark.parametrize("mode", ["lambda", "vanilla_causal"])
@pytest.mark.parametrize("layer, stage", sorted(_POISON_MESSAGES))
def test_nan_replay_names_stage_as_forward_does(monkeypatch, entry, mode, layer, stage):
    # The fed chunk's one pass finds NaN logits, and its replay names the
    # stage the full forward names. A step runs at position 20 (past the
    # clamp; the lambda ring has wrapped, the vanilla cache has grown); a
    # prefill of chunks of 8 fails in its second chunk, at row 10. The
    # position stays at the failing chunk, and once the weights are mended
    # the session matches a fresh one bit for bit.
    import lm_infinite.attention as attention

    monkeypatch.setattr(attention, "BLOCK", 8)
    model = init(tiny_config())
    model.params["embedding"][_ZERO] = 0.0
    r, start = (20, 20) if entry == "step" else (10, 8)
    ids = np.full(r + 1 if entry == "step" else 16, _ZERO)
    ids[r] = _LIVE
    clean = model.copy()
    _poison(model.params, layer, stage)
    message = _POISON_MESSAGES[layer, stage].format(r=r)
    with pytest.raises(NanDetectedError) as full:
        forward(model, ids, mode=mode)
    assert str(full.value) == message

    sess, fresh = DecodeSession(model, mode), DecodeSession(clean, mode)
    with pytest.raises(NanDetectedError) as fed:
        if entry == "step":
            for t in ids:
                sess.step(t)
        else:
            sess.prefill(ids)
    assert str(fed.value) == message
    assert sess.position == start
    if entry == "step":
        for t in ids[:start]:
            fresh.step(t)
    else:
        fresh.prefill(ids[:start])
    model.params.update(clean.copy().params)
    for t in (5, _LIVE, 3):
        np.testing.assert_array_equal(sess.step(t), fresh.step(t))
    tail = (np.arange(25) * 5 + 3) % 31
    np.testing.assert_array_equal(sess.prefill(tail), fresh.prefill(tail))
    np.testing.assert_array_equal(sess.step(2), fresh.step(2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the final norm
def test_nan_only_in_logits_raises_everywhere(tiny_corpus):
    # An inf bias in the last MLP is named at that MLP's stage; the final
    # layer norm would turn it into NaN logits. Each entry point raises
    # instead of returning NaN logits, argmax tokens or a NaN NLL.
    model = init(tiny_config())
    model.params["layer1/mlp/b2"][0] = np.inf
    ids = np.arange(12) % 31
    message = "NaN after MLP in layer 1, position 0"
    for call in (
        lambda: forward(model, ids),
        lambda: forward(model, ids, mode="vanilla_causal"),
        lambda: forward_traced(model, ids),
        lambda: loss_and_grads(model, ids),
        lambda: DecodeSession(model).prefill(ids),
        lambda: DecodeSession(model, "vanilla_causal").step(3),
        lambda: generate(model, ids, 4),
        lambda: nll_curve(model, [ids, ids], (8,)),
    ):
        with pytest.raises(NanDetectedError) as exc:
            call()
        assert str(exc.value) == message
    # A batch also names the sequence, counted from the first of the batch.
    with pytest.raises(TrainingDivergedError) as exc:
        train(model, tiny_corpus, steps=2, batch_shape=(2, 16))
    assert str(exc.value) == "diverged at step 0: NaN after MLP in layer 1, batch 0, position 0"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the poison overflows
@pytest.mark.parametrize("mode", ["lambda", "vanilla_causal"])
def test_overflow_names_one_stage_for_every_entry_point(mode):
    # One live row whose q product overflows. A one-row product (a step's)
    # and a multi-row one can disagree on NaN against +-inf here, so the
    # stage scans look for any non-finite value: forward, prefill and step
    # then name the same stage and row.
    model = init(tiny_config())
    model.params["embedding"][np.arange(31) != _LIVE] = 0.0
    model.params["layer0/ln1/gamma"] *= 1e3
    model.params["layer0/attn/wq"][:] = 1e308
    ids = np.full(6, _ZERO)
    ids[3] = _LIVE
    message = "layer 0: NaN in attention input q at row 3"
    for call in (
        lambda: forward(model, ids, mode=mode),
        lambda: DecodeSession(model, mode).prefill(ids),
        lambda: [sess.step(t) for sess in [DecodeSession(model, mode)] for t in ids],
    ):
        with pytest.raises(NanDetectedError) as exc:
            call()
        assert str(exc.value) == message


@pytest.mark.parametrize("mode", ["lambda", "vanilla_causal"])
def test_nan_after_attention_is_named_before_next_layer_input(mode):
    # Without scans, the NaN that layer 0's out-projection makes reaches
    # layer 1's inputs, where the kernel's ``attend`` checks them. The
    # replay names the stage where it first appeared, in every pass.
    model = init(tiny_config())
    model.params["layer0/attn/wo"][:] = np.nan
    ids = np.arange(6) % 31
    message = "NaN after attention in layer 0, position 0"
    for call in (
        lambda: forward(model, ids, mode=mode),
        lambda: forward_traced(model, ids, mode=mode),
        lambda: DecodeSession(model, mode).prefill(ids),
    ):
        with pytest.raises(NanDetectedError) as exc:
            call()
        assert str(exc.value) == message
    with pytest.raises(NanDetectedError) as exc:
        loss_and_grads(model, np.stack([ids, ids]), mode=mode)
    assert str(exc.value) == "NaN after attention in layer 0, batch 0, position 0"


@pytest.mark.parametrize("n_layers", [1, 4])
def test_decode_step_computes_rope_factor_once(monkeypatch, n_layers):
    # begin() works out the step's rotation factor for every layer, before
    # and past the clamp (far pinned keys were rotated when they were stored).
    import lm_infinite.kv_cache as kv_cache

    factor = kv_cache.rope_factor
    positions = []

    def counting(position, params):
        positions.append(position)
        return factor(position, params)

    sess = DecodeSession(init(tiny_config(n_layers=n_layers)), "lambda")
    monkeypatch.setattr(kv_cache, "rope_factor", counting)
    for t in range(24):
        sess.step(t % 31)
    assert positions == list(range(24))


@pytest.mark.parametrize("n_layers", [2, 4])
def test_each_chunk_builds_one_geometry_and_rotation_for_all_layers(monkeypatch, n_layers):
    # A step, and each chunk of a longer prefill, works out its distances,
    # masks and RoPE factor once for every layer, and runs one layer norm
    # before each of a layer's two blocks and one before the head.
    import lm_infinite.kv_cache as kv_cache
    import lm_infinite.model as model_module

    events = []
    for module, name in (
        (kv_cache, "_geometry"), (kv_cache, "rope_factor"), (model_module, "_layer_norm")
    ):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            events.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def chunks():
        size = 2 + 2 * n_layers + 1
        assert len(events) % size == 0, events
        return [events[i : i + size] for i in range(0, len(events), size)]

    sess = DecodeSession(init(tiny_config(n_layers=n_layers)), "lambda")
    sess.prefill(np.arange(40) % 31)  # past the clamp: far keys in play
    events.clear()
    sess.step(3)
    sess.prefill(np.arange(300) % 31)  # chunks of 128, 128 and 44 tokens
    assert len(chunks()) == 4
    for chunk in chunks():
        assert sorted(chunk[:2]) == ["_geometry", "rope_factor"]
        assert chunk[2:] == ["_layer_norm"] * (2 * n_layers + 1)


def test_decode_step_rotation_work_is_independent_of_pinned_prefix(monkeypatch):
    # Past the clamp, a RoPE step rotates only its query and its own key in
    # each layer: far pinned keys are stored once, so no per-step rotation
    # grows with n_global.
    import lm_infinite.kv_cache as kv_cache

    rotate = kv_cache.apply_rotation_f64
    rows = []

    def counting(x, factor):
        rows.append(np.size(x) // np.shape(x)[-1])
        return rotate(x, factor)

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

    bad_value = tmp_path / "value.lmtm"
    bad_value.write_bytes(blob.replace(b"encoding=rope", b"encoding=ropX"))
    with pytest.raises(ValueError, match="encoding must be one of"):
        load_model(bad_value)

    extra = tmp_path / "extra.lmtm"
    name = b"layer9/attn/wq"
    extra.write_bytes(
        blob + struct.pack("<I", len(name)) + name + struct.pack("<II", 1, 2) + bytes(8)
    )
    with pytest.raises(ValueError, match=f"unexpected tensor 'layer9/attn/wq' at byte {len(blob)}"):
        load_model(extra)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_load_rejects_non_finite_tensor_value(tmp_path, value):
    model = init(tiny_config())
    model.params["layer0/attn/wq"][0, 5] = value
    path = tmp_path / "bad.lmtm"
    save_model(model, path)
    # The tensor's data follows its name, its u32 rank and two u32 dims.
    at = path.read_bytes().index(b"layer0/attn/wq") + len("layer0/attn/wq") + 12 + 4 * 5
    with pytest.raises(ValueError) as exc:
        load_model(path)
    assert str(exc.value) == (
        f"{path}: tensor layer0/attn/wq holds non-finite value {np.float32(value)} "
        f"at byte {at}"
    )


def test_checkpoint_carries_no_mode(tmp_path):
    # The mode is chosen per call, so an LMTM file with a mode= line (as
    # written before it left the config) fails to load, naming the file.
    path = tmp_path / "m.lmtm"
    save_model(init(tiny_config()), path)
    blob = path.read_bytes()
    assert b"mode=" not in blob
    old = tmp_path / "old.lmtm"
    with_mode = blob.replace(b"seed=11\n", b"mode=lambda\nseed=11\n")
    n = struct.unpack_from("<I", blob, 8)[0] + len(b"mode=lambda\n")
    old.write_bytes(with_mode[:8] + struct.pack("<I", n) + with_mode[12:])
    with pytest.raises(ValueError) as exc:
        load_model(old)
    assert str(exc.value) == f"{old}: unknown config key 'mode'"


def test_bad_mode_raises_in_forward_session_and_generate():
    model = init(tiny_config())
    for call in (
        lambda: forward(model, [1, 2, 3], mode="lambdX"),
        lambda: DecodeSession(model, "lambdX"),
        lambda: generate(model, [1, 2, 3], 2, mode="lambdX"),
    ):
        with pytest.raises(ValueError, match="mode must be one of"):
            call()


@pytest.mark.parametrize("over, message", [
    (dict(n_heads=0), "n_heads must be >= 1"),
    (dict(n_heads=-4), "n_heads must be >= 1"),
    (dict(n_layers=0), "n_layers must be >= 1"),
    (dict(d_model=0), "head_dim must be even and >= 2"),
    (dict(d_model=6, n_heads=2), "head_dim must be even and >= 2"),
    (dict(rope_base=-1.0), "base must be positive and finite"),
    (dict(rope_base=float("nan")), "base must be positive and finite"),
    (dict(seed=-1), r"seed must be in \[0, 2\*\*64\), got -1$"),
    (dict(seed=2**64), f"seed must be in .*, got {2**64}$"),
])
def test_config_rejects_broken_values_at_construction(over, message):
    with pytest.raises(ValueError, match=message):
        tiny_config(**over)


# Headers that ask for more than a tiny file holds: (edits, the error, with
# {end} the byte where the file ends).
TOO_BIG = "checkpoint ends at byte {end}, but its config's tensors need"
FORGED_HEADERS = {
    "d_model": ({b"d_model=16\n": b"d_model=1000000000000\n"}, TOO_BIG),
    "n_layers": ({b"n_layers=2\n": b"n_layers=3000000\n"}, TOO_BIG),
    "alibi_heads": (
        {b"d_model=16\n": b"d_model=0\n", b"n_heads=2\n": b"n_heads=1000000000\n",
         b"encoding=rope\n": b"encoding=alibi\n"},
        "head_dim must be even and >= 2, got 0",
    ),
}


@pytest.mark.parametrize("case", sorted(FORGED_HEADERS))
def test_load_rejects_forged_header_sizes_without_allocating(tmp_path, case):
    # The header is checked before a config or a tensor is built from it, so
    # a file of a few hundred bytes cannot ask for TiBs or for 3e6 layers.
    edits, message = FORGED_HEADERS[case]
    path = tmp_path / "forged.lmtm"
    save_model(init(tiny_config()), path)
    blob = rewrite_config(path.read_bytes(), edits, tensors=False)
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value).startswith(f"{path}: ")
    assert message.format(end=len(blob)) in str(exc.value)
    assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"


def test_param_count_matches_param_shapes():
    from lm_infinite.model import _param_count, _param_shapes

    for over in (dict(), dict(vocab_size=7, d_model=8, n_layers=3, n_heads=4)):
        cfg = tiny_config(**over)
        shapes = _param_shapes(cfg).values()
        assert _param_count(cfg.vocab_size, cfg.d_model, cfg.n_layers) == sum(
            math.prod(s) for s in shapes
        )


def test_load_rejects_repeated_config_key(tmp_path):
    path = tmp_path / "m.lmtm"
    save_model(init(tiny_config()), path)
    path.write_bytes(
        rewrite_config(path.read_bytes(), {b"n_global=2\n": b"n_global=2\nn_global=3\n"})
    )
    with pytest.raises(ValueError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: repeated config key 'n_global'"


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
