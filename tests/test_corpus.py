"""Corpus file formats and the synthetic motif language."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from lm_infinite.corpus import (
    SENTENCE_SEP,
    SyntheticLanguage,
    load_corpus,
    save_corpus,
)
from lm_infinite.errors import CorpusFormatError
from lm_infinite.rng import SplitMix64, derive_stream


def random_corpus(stream, n):
    out = []
    for _ in range(n):
        length = int(stream.integers(1, 40, 1)[0])
        out.append(stream.integers(0, 2**32 - 2, length).astype(np.uint32))
    return out


@pytest.mark.parametrize("binary", [False, True])
def test_round_trip_fuzz(tmp_path, binary):
    stream = SplitMix64(99)
    for trial in range(20):
        corpus = random_corpus(stream, int(stream.integers(1, 6, 1)[0]))
        path = tmp_path / f"c{trial}.dat"
        save_corpus(corpus, path, binary=binary)
        back = load_corpus(path)
        assert len(back) == len(corpus)
        for a, b in zip(corpus, back):
            assert a.dtype == b.dtype == np.uint32
            assert np.array_equal(a, b)


def test_empty_file_is_empty_corpus(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_bytes(b"")
    assert load_corpus(path) == []


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("1 2 3\n\n   \n4 5\n")
    back = load_corpus(path)
    assert [list(s) for s in back] == [[1, 2, 3], [4, 5]]


def test_sentence_separator_survives_both_formats(tmp_path):
    seq = np.asarray([7, SENTENCE_SEP, 9], dtype=np.uint32)
    for binary in (False, True):
        path = tmp_path / f"sep{binary}.dat"
        save_corpus([seq], path, binary=binary)
        assert np.array_equal(load_corpus(path)[0], seq)


def test_text_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n4 x 6\n")
    with pytest.raises(CorpusFormatError) as exc:
        load_corpus(path)
    assert "line 2" in str(exc.value) and "'x'" in str(exc.value)


def test_text_rejects_negative_and_overflow(tmp_path):
    path = tmp_path / "neg.txt"
    path.write_text("3 -1\n")
    with pytest.raises(CorpusFormatError):
        load_corpus(path)
    path.write_text(f"{2**32}\n")
    with pytest.raises(CorpusFormatError) as exc:
        load_corpus(path)
    assert "u32" in str(exc.value)


@pytest.mark.parametrize("tok", ["\u0661", "\u00b2"])  # Arabic-Indic one, superscript two
def test_text_rejects_non_ascii_digits(tok, tmp_path):
    path = tmp_path / "digits.txt"
    path.write_text(f"1 2\n3 {tok} 4\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as exc:
        load_corpus(path)
    assert f"{path}: line 2: bad token {tok!r}" in str(exc.value)


def test_binary_truncation_names_byte_offset(tmp_path):
    path = tmp_path / "t.lmts"
    save_corpus([np.arange(10, dtype=np.uint32)], path, binary=True)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])  # chop mid-sequence
    with pytest.raises(CorpusFormatError) as exc:
        load_corpus(path)
    assert "byte" in str(exc.value)


def test_binary_rejects_every_truncation(tmp_path):
    seqs = [np.arange(3, dtype=np.uint32), np.arange(5, 10, dtype=np.uint32)]
    good = tmp_path / "good.lmts"
    save_corpus(seqs, good, binary=True)
    blob = good.read_bytes()
    ends = {8: 0, 8 + 8 + 4 * 3: 1}  # cuts that leave whole sequences
    path = tmp_path / "cut.lmts"
    for cut in range(4, len(blob)):
        path.write_bytes(blob[:cut])
        if cut in ends:
            back = load_corpus(path)
            assert [list(s) for s in back] == [list(s) for s in seqs[: ends[cut]]]
            continue
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(path)
        message = str(exc.value)
        assert str(path) in message and f"byte {cut}" in message, (cut, message)


def test_text_every_truncation_loads_or_names_path(tmp_path):
    seqs = [np.asarray([12, 7, SENTENCE_SEP], dtype=np.uint32),
            np.asarray([300, 4], dtype=np.uint32)]
    good = tmp_path / "good.txt"
    save_corpus(seqs, good)
    blob = good.read_bytes()
    path = tmp_path / "cut.txt"
    for cut in range(len(blob) + 1):
        path.write_bytes(blob[:cut])
        try:
            back = load_corpus(path)
        except CorpusFormatError as exc:
            assert str(path) in str(exc), (cut, str(exc))
            continue
        whole = blob[:cut].count(b"\n")  # lines the cut left intact
        assert [list(s) for s in back[:whole]] == [list(s) for s in seqs[:whole]]
        assert len(back) <= whole + 1, cut


def test_binary_bad_version(tmp_path):
    path = tmp_path / "v.lmts"
    path.write_bytes(b"LMTS" + (7).to_bytes(4, "little"))
    with pytest.raises(CorpusFormatError) as exc:
        load_corpus(path)
    assert "version" in str(exc.value)


# ---------------------------------------------------------------------------
# Synthetic language
# ---------------------------------------------------------------------------


def test_sampling_is_deterministic():
    lang = SyntheticLanguage(seed=42)
    a = lang.sample(3, 500)
    b = lang.sample(3, 500)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = lang.sample(3, 500, seed=43)
    assert not np.array_equal(a[0], c[0])


def test_sampling_matches_pinned_digest():
    # Pins the stream layout: the first motif, a stay draw and (on a jump) a
    # target per step, then the per-token noise draws.
    seqs = SyntheticLanguage().sample(3, 500)
    data = b"".join(seq.astype("<u4").tobytes() for seq in seqs)
    assert hashlib.sha256(data).hexdigest() == (
        "c3a9425078686e739c141210ef3ea01c7987643bf6ad0708df505c9e1166f5bd"
    )


def scalar_sample(lang, n_sequences, seq_len, seed):
    """The sampler as scalar draws from the stream, one call per draw."""
    motifs = lang.motifs()
    out = []
    for s in range(n_sequences):
        stream = SplitMix64(derive_stream(seed, f"synthetic-corpus/seq{s}"))
        current = int(stream.integers(0, lang.n_motifs, 1)[0])
        chunks = []
        for _ in range(seq_len // lang.motif_len + 2):
            chunks.append(motifs[current])
            if float(stream.choice_prob(1)[0]) < lang.p_stay:
                current = (current + 1) % lang.n_motifs
            else:
                jump = int(stream.integers(0, lang.n_motifs - 1, 1)[0])
                successor = (current + 1) % lang.n_motifs
                current = jump if jump != successor else lang.n_motifs - 1
        clean = np.concatenate(chunks)[:seq_len]
        if lang.noise > 0.0:
            hit = stream.choice_prob(seq_len) < lang.noise
            clean = np.where(hit, stream.integers(0, lang.vocab_size, seq_len), clean)
        out.append(clean.astype(np.uint32))
    return out


@pytest.mark.parametrize(
    "changes, n_sequences, seq_len",
    [
        ({}, 3, 17),
        ({"p_stay": 0.3, "noise": 0.4, "vocab_size": 7}, 4, 333),
        ({"p_stay": 0.5, "noise": 0.0, "n_motifs": 3}, 2, 1),
        ({"p_stay": 1.0, "motif_len": 5}, 2, 64),
    ],
)
def test_sampling_equals_scalar_draws(changes, n_sequences, seq_len):
    lang = replace(SyntheticLanguage(seed=21), **changes)
    got = lang.sample(n_sequences, seq_len, seed=8)
    want = scalar_sample(lang, n_sequences, seq_len, seed=8)
    assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("seed", [-5, 2**64])
def test_language_rejects_seed_outside_u64_at_construction(seed):
    with pytest.raises(ValueError, match=f"seed must be in .*, got {seed}$"):
        SyntheticLanguage(seed=seed)


def test_sequences_have_exact_length_and_vocab():
    lang = SyntheticLanguage(vocab_size=64, seed=1)
    for seq in lang.sample(4, 333):
        assert len(seq) == 333
        assert seq.max() < 64


def test_deterministic_variant_is_periodic():
    # Noise-free and never jumping: one global periodic string.
    lang = replace(SyntheticLanguage(seed=9), p_stay=1.0, noise=0.0)
    seq = lang.sample(1, 400)[0]
    period = lang.n_motifs * lang.motif_len
    assert np.array_equal(seq[:-period], seq[period:])
    motifs = lang.motifs()
    first = seq[: lang.motif_len]
    assert any(np.array_equal(first, m) for m in motifs)


def test_statistics_are_position_stationary():
    # Unigram histograms far apart in the sequence should agree closely:
    # nothing about the language drifts with absolute position.
    lang = SyntheticLanguage(seed=4)
    seqs = lang.sample(200, 1100)
    early = np.concatenate([s[:64] for s in seqs])
    late = np.concatenate([s[1000:1064] for s in seqs])
    he = np.bincount(early, minlength=256) / early.size
    hl = np.bincount(late, minlength=256) / late.size
    assert np.abs(he - hl).sum() < 0.15  # total variation, sampling noise only


def test_unigram_entropy_beats_structure():
    # The language has far less conditional entropy than unigram entropy —
    # that gap is what a context model can learn.
    lang = SyntheticLanguage(seed=4)
    h1 = lang.unigram_entropy(50_000)
    assert 2.0 < h1 < 6.0
