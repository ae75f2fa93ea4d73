"""Evaluation harness: milestones, NLL windows, continuations, op counts."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import tiny_config

from lm_infinite import cli
from lm_infinite.corpus import SyntheticLanguage
from lm_infinite.evaluation import (
    BenchResult,
    MilestoneSpec,
    bench,
    continuation_eval,
    nll_curve,
    parse_milestones,
    run_eval,
    truncation_baseline,
    vanilla_op_count,
    write_eval_csv,
)
from lm_infinite.model import forward, init, train


# ---------------------------------------------------------------------------
# MilestoneSpec
# ---------------------------------------------------------------------------


def test_default_milestones_scale_with_train_len():
    default = cli._SUBCOMMANDS["eval"].options["milestones"].default
    assert parse_milestones(default, 128).milestones == (128, 256, 512, 1024, 2048)
    assert parse_milestones(default, 16).milestones == (16, 32, 64, 128, 256)


def test_milestones_must_increase():
    with pytest.raises(ValueError):
        MilestoneSpec((128, 128))
    with pytest.raises(ValueError):
        MilestoneSpec((256, 128))
    with pytest.raises(ValueError):
        MilestoneSpec(())


def test_first_milestone_within_train_len():
    with pytest.raises(ValueError):
        MilestoneSpec((256, 512)).validate_for(128)
    MilestoneSpec((128, 512)).validate_for(128)


def test_parse_milestones_multiples_and_absolute():
    assert parse_milestones("1x,2x,8x", 128).milestones == (128, 256, 1024)
    assert parse_milestones("16,64", 16).milestones == (16, 64)
    assert parse_milestones("1x, 4x", 32).milestones == (32, 128)
    with pytest.raises(ValueError):
        parse_milestones("2x,1x", 128)


@pytest.mark.parametrize("text, item", [("1x,abc", "abc"), ("x", "x")])
def test_parse_milestones_names_bad_item(text, item):
    with pytest.raises(ValueError) as exc:
        parse_milestones(text, 128)
    message = str(exc.value)
    assert repr(item) in message and repr(text) in message, message


# ---------------------------------------------------------------------------
# nll_curve
# ---------------------------------------------------------------------------


def zeroed_head_model():
    model = init(tiny_config())
    model.params["head"][:] = 0.0
    return model


def test_uniform_model_nll_is_log_vocab():
    model = zeroed_head_model()
    corpus = [np.arange(70, dtype=np.uint32) % 31 for _ in range(3)]
    points = nll_curve(model, corpus, (16, 32, 64), mode="lambda")
    for p in points:
        assert p.nll == pytest.approx(math.log(31), abs=1e-12)
        assert p.perplexity == math.exp(p.nll)  # same accumulator, bitwise
        assert p.n_sequences == 3 and p.n_skipped == 0


def test_nll_skipped_sequence_accounting():
    model = zeroed_head_model()
    corpus = [
        np.arange(70, dtype=np.uint32) % 31,
        np.arange(40, dtype=np.uint32) % 31,
        np.arange(20, dtype=np.uint32) % 31,
    ]
    points = nll_curve(model, corpus, (16, 32, 64))
    by_m = {p.milestone: p for p in points}
    assert by_m[16].n_sequences == 3 and by_m[16].n_skipped == 0
    assert by_m[32].n_sequences == 2 and by_m[32].n_skipped == 1
    assert by_m[64].n_sequences == 1 and by_m[64].n_skipped == 2
    for p in points:
        assert p.n_sequences + p.n_skipped == len(corpus)


def test_nll_errors_name_milestone():
    model = zeroed_head_model()
    corpus = [np.arange(20, dtype=np.uint32) % 31]
    with pytest.raises(ValueError) as exc:
        nll_curve(model, corpus, (16, 64))
    assert "64" in str(exc.value)


def test_nll_window_matches_direct_computation():
    # The shared-forward shortcut must equal a fresh truncated forward.
    lang = SyntheticLanguage(vocab_size=31, n_motifs=4, motif_len=4, seed=5)
    model = train(init(tiny_config()), lang.sample(4, 80), steps=10,
                  batch_shape=(4, 16)).model
    corpus = lang.sample(2, 70, seed=99)
    points = nll_curve(model, corpus, (8, 64), mode="lambda")
    from lm_infinite.model import forward

    def direct(m):
        parts = []
        for seq in corpus:
            ids = seq[:m].astype(np.int64)
            lg = forward(model, ids, mode="lambda")
            z = lg - lg.max(axis=-1, keepdims=True)
            lp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
            for p in range(max(1, m - 32), m):
                parts.append(-float(lp[p - 1, ids[p]]))
        return math.fsum(parts) / len(parts)

    assert points[0].nll == pytest.approx(direct(8), abs=1e-10)
    assert points[1].nll == pytest.approx(direct(64), abs=1e-10)
    # small milestone: window runs [1, m), i.e. m-1 scored tokens per seq
    assert points[0].n_tokens == 7 * len(corpus)


def test_lambda_nll_curve_memory_is_bounded():
    # With train_len 64, 2x is one chunk of BLOCK = 128 rows and 16x eight:
    # the lambda peak stays flat. The same measure sees the vanilla cache
    # and its chunk logits grow with the length.
    import tracemalloc

    cfg = tiny_config(train_len=64)
    model = init(cfg)
    seq = SyntheticLanguage(vocab_size=31, seed=3).sample(1, 16 * cfg.train_len, seed=4)[0]
    peaks = {}
    for mode in ("lambda", "vanilla_causal"):
        for mult in (2, 16):
            ms = [m * cfg.train_len for m in (1, 2, 4, 8, 16) if m <= mult]
            tracemalloc.start()
            try:
                nll_curve(model, [seq[: mult * cfg.train_len]], ms, mode=mode)
                peaks[mode, mult] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert peaks["lambda", 16] <= 1.5 * peaks["lambda", 2], peaks
    assert peaks["vanilla_causal", 16] > 2 * peaks["vanilla_causal", 2], peaks


@pytest.mark.parametrize("encoding", ["rope", "alibi"])
def test_nll_curve_matches_full_forward_in_both_modes(encoding):
    # The streamed pass reads the same log-probabilities as one forward over
    # the sequence, past several chunks and the clamp.
    model = init(tiny_config(encoding=encoding))
    corpus = SyntheticLanguage(vocab_size=31, seed=8).sample(2, 300, seed=9)
    for mode in ("lambda", "vanilla_causal"):
        points = nll_curve(model, corpus, (16, 64, 290), mode=mode)
        for p in points:
            parts = []
            for seq in corpus:
                lg = forward(model, seq[:290].astype(np.int64), mode=mode)
                z = lg - lg.max(axis=-1, keepdims=True)
                lp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
                lo = max(1, p.milestone - 32)
                parts += [-float(lp[r - 1, seq[r]]) for r in range(lo, p.milestone)]
            assert p.nll == pytest.approx(math.fsum(parts) / len(parts), abs=1e-12, rel=0)


def _count_gelu_rows(monkeypatch):
    """Patch the model's GeLU to count the rows it runs on, per call."""
    import lm_infinite.model as model_mod

    calls = []
    real = model_mod._gelu

    def counting(u):
        calls.append(u.size // u.shape[-1])
        return real(u)

    monkeypatch.setattr(model_mod, "_gelu", counting)
    return calls


def test_nll_curve_runs_last_mlp_only_on_window_rows(monkeypatch):
    # 199 fed rows in chunks of 128: layer 0's MLP runs on all of them, the
    # last layer's only on the window rows, 0..14 and 31..62 in the first
    # chunk and 167..198 in the second.
    cfg = tiny_config()
    model = init(cfg)
    seq = SyntheticLanguage(vocab_size=31, seed=3).sample(1, 200, seed=4)[0]
    calls = _count_gelu_rows(monkeypatch)
    nll_curve(model, [seq], (16, 64, 200))
    assert cfg.n_layers == 2
    assert calls == [128, 47, 71, 32]


def test_truncation_runs_last_mlp_only_on_the_read_row(monkeypatch):
    # Each step re-encodes its window through every layer but runs the last
    # layer's MLP on one row, and picks the token a windowed forward picks.
    model = init(tiny_config())
    seq = (np.arange(40) * 5 + 2) % 31
    import lm_infinite.evaluation as evaluation

    outs = []
    real_bleu = evaluation.bleu
    monkeypatch.setattr(evaluation, "bleu", lambda o, ref: (outs.append(o), real_bleu(o, ref))[1])
    calls = _count_gelu_rows(monkeypatch)
    truncation_baseline(model, [seq], window_w=8, total_gen=5, prompt_len=6)
    assert calls == [6, 1, 7, 1, 8, 1, 8, 1, 8, 1]
    context = [int(t) for t in seq[:6]]
    for _ in range(5):
        logits = forward(model, np.asarray(context[-8:]), mode="vanilla_causal")
        context.append(int(np.argmax(logits[-1])))
    assert outs == [context[6:]]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the poison overflows
def test_nan_at_a_dropped_row_is_named_as_by_full_prefill():
    # Every token but the one at position 20 has a zero embedding, so only
    # row 20 overflows, in layer 0's MLP. The window rows 167..198 are in
    # the second chunk of 128, and the first one has no row to read: only
    # the last layer's scan of its keys and values sees the row, and the
    # replay names the stage a full prefill names.
    from lm_infinite.errors import NanDetectedError
    from lm_infinite.model import DecodeSession

    model = init(tiny_config())
    model.params["embedding"][0] = 0.0
    model.params["layer0/ln2/gamma"] *= 1e3
    model.params["layer0/mlp/w1"][:] = 1e308
    seq = np.zeros(200, dtype=np.int64)
    seq[20] = 7
    message = "NaN after MLP in layer 0, position 20"
    with pytest.raises(NanDetectedError, match=message):
        DecodeSession(model).prefill(seq[:199])
    with pytest.raises(NanDetectedError, match=message):
        nll_curve(model, [seq], (200,))


# ---------------------------------------------------------------------------
# continuation_eval
# ---------------------------------------------------------------------------


def test_gen_len_zero_is_invalid():
    model = zeroed_head_model()
    with pytest.raises(ValueError):
        continuation_eval(model, [np.arange(40) % 31], (16,), gen_len=0)


def test_memorized_deterministic_corpus_gives_bleu_one():
    lang = replace(
        SyntheticLanguage(vocab_size=31, n_motifs=4, motif_len=4, seed=5),
        p_stay=1.0, noise=0.0,
    )
    corpus = lang.sample(4, 60)
    model = train(init(tiny_config()), corpus, steps=150, lr=3e-3,
                  batch_shape=(8, 16)).model
    points = continuation_eval(model, corpus, (16,), gen_len=20, mode="lambda")
    assert points[0].bleu == pytest.approx(1.0, abs=1e-12)
    assert points[0].rouge == pytest.approx(1.0, abs=1e-12)
    assert points[0].n_sequences == 4


def test_continuation_skip_accounting():
    model = zeroed_head_model()
    corpus = [np.arange(50, dtype=np.uint32) % 31, np.arange(20, dtype=np.uint32) % 31]
    points = continuation_eval(model, corpus, (16,), gen_len=10)
    assert points[0].n_sequences == 1 and points[0].n_skipped == 1
    with pytest.raises(ValueError) as exc:
        continuation_eval(model, corpus, (16,), gen_len=40)
    assert "16" in str(exc.value)


# ---------------------------------------------------------------------------
# truncation baseline
# ---------------------------------------------------------------------------


def test_truncation_rejects_window_beyond_train_len():
    model = zeroed_head_model()
    with pytest.raises(ValueError):
        truncation_baseline(model, [np.arange(64) % 31], window_w=17, total_gen=4)


@pytest.mark.parametrize("prompt_len", [0, -3])
def test_truncation_rejects_nonpositive_prompt_len(prompt_len):
    # -3 would otherwise prompt with seq[:-3] and score against seq[-3:-1].
    model = zeroed_head_model()
    with pytest.raises(ValueError, match="prompt_len"):
        truncation_baseline(
            model, [np.arange(64) % 31], window_w=8, total_gen=2, prompt_len=prompt_len
        )


def test_truncation_op_count_formula():
    model = zeroed_head_model()
    cfg = model.config
    corpus = [np.arange(64, dtype=np.uint32) % 31]
    res = truncation_baseline(model, corpus, window_w=8, total_gen=6, prompt_len=10)
    # contexts seen: min(8, 10), min(8, 11), ... all clipped to 8
    expect = sum(min(8, 10 + t) * (min(8, 10 + t) + 1) // 2 for t in range(6))
    assert res.op_count == expect * cfg.n_layers * cfg.n_heads
    assert res.lambda_op_count == 1 * 6 * (cfg.n_global + cfg.n_local) * cfg.n_layers * cfg.n_heads
    assert res.n_sequences == 1
    assert 0.0 <= res.bleu <= 1.0


def test_truncation_full_window_equals_vanilla_count():
    model = zeroed_head_model()
    corpus = [np.arange(30, dtype=np.uint32) % 31]
    # window covers every context the run produces: no truncation happens
    res = truncation_baseline(model, corpus, window_w=16, total_gen=4, prompt_len=8)
    assert res.op_count == vanilla_op_count(model, 8, 4)


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_contract():
    model = init(tiny_config())
    with pytest.raises(ValueError):
        bench(model, 32, repeats=2)
    res = bench(model, 48, mode="lambda", repeats=3, decode_tokens=4)
    assert isinstance(res, BenchResult)
    assert res.encode_seconds > 0 and res.decode_seconds_per_token > 0
    assert res.peak_cache_entries <= model.config.n_global + model.config.n_local


@pytest.mark.parametrize("decode_tokens", [0, -2])
def test_bench_rejects_no_decode_tokens(decode_tokens):
    model = init(tiny_config())
    with pytest.raises(ValueError, match="decode_tokens"):
        bench(model, 32, repeats=3, decode_tokens=decode_tokens)


# ---------------------------------------------------------------------------
# report / CSV
# ---------------------------------------------------------------------------


def test_run_eval_and_csv(tmp_path):
    model = zeroed_head_model()
    corpus = [np.arange(80, dtype=np.uint32) % 31 for _ in range(2)]
    report = run_eval(model, corpus, (16, 32), gen_len=8)
    path = tmp_path / "eval.csv"
    write_eval_csv(report, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["milestone", "mode", "nll", "perplexity"]
    assert len(rows) - 1 == 2 * 2  # milestones x modes
    for row in rows[1:]:
        assert float(row[3]) == math.exp(float(row[2]))  # ppl = exp(nll)
        assert row[1] in ("lambda", "vanilla_causal")
