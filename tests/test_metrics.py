"""BLEU / ROUGE-LSum against hand-computed oracles and fuzzed properties."""

import math

import pytest

from lm_infinite.corpus import SENTENCE_SEP
from lm_infinite.metrics import bleu, rouge_lsum
from lm_infinite.rng import SplitMix64

SEP = SENTENCE_SEP


# ---------------------------------------------------------------------------
# BLEU oracles
# ---------------------------------------------------------------------------


def test_bleu_perfect_match_is_one():
    seq = [5, 1, 4, 1, 5, 9, 2, 6]
    assert bleu(seq, seq) == pytest.approx(1.0, abs=1e-12)


def test_bleu_disjoint_is_zero():
    assert bleu([1, 2, 3, 4], [5, 6, 7, 8]) == 0.0


def test_bleu_brevity_penalty_oracle():
    # precision 1.0 for unigrams, BP = exp(1 - 3/2)
    assert bleu([1, 2], [1, 2, 3], max_n=1) == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_bleu_unigram_precision_oracle():
    # 2 of 3 unigrams hit, lengths equal so BP = 1
    assert bleu([1, 2, 4], [1, 2, 3], max_n=1) == pytest.approx(2 / 3, abs=1e-12)


def test_bleu_clipping():
    # candidate repeats a token: hits clipped to reference count 1
    # p1 = 1/3, BP = exp(1 - 1/3) is capped at 1... cand longer than ref -> BP=1
    assert bleu([7, 7, 7], [7, 0], max_n=1) == pytest.approx(1 / 3, abs=1e-12)


def test_bleu_full_hand_example():
    cand = [1, 2, 3, 5]
    ref = [1, 2, 3, 4]
    # p1 = 3/4; p2: cand bigrams {12,23,35}, ref {12,23,34} -> 2/3
    # p3: cand {123,235}, ref {123,234} -> 1/2; p4: {1235} vs {1234} -> 0
    assert bleu(cand, ref, max_n=3) == pytest.approx(
        math.exp((math.log(3 / 4) + math.log(2 / 3) + math.log(1 / 2)) / 3), abs=1e-12
    )
    assert bleu(cand, ref, max_n=4) == 0.0


def test_bleu_invalid_arguments():
    with pytest.raises(ValueError):
        bleu([], [1, 2])
    with pytest.raises(ValueError):
        bleu([1, 2], [])
    with pytest.raises(ValueError):
        bleu([1], [1], max_n=5)
    with pytest.raises(ValueError):
        bleu([1], [1], max_n=0)


def test_bleu_is_asymmetric():
    a, b = [1, 2], [1, 2, 3]
    assert bleu(a, b, max_n=1) != bleu(b, a, max_n=1)


# ---------------------------------------------------------------------------
# ROUGE-LSum oracles
# ---------------------------------------------------------------------------


def test_rouge_perfect_match_is_one():
    seq = [3, 1, SEP, 4, 1, 5]
    assert rouge_lsum(seq, seq) == pytest.approx(1.0, abs=1e-12)


def test_rouge_disjoint_is_zero():
    assert rouge_lsum([1, 2, SEP, 3], [4, 5, SEP, 6]) == 0.0


def test_rouge_single_sentence_oracle():
    # LCS([1,2,3],[1,2,4]) = 2 -> P = R = 2/3 -> F = 2/3
    assert rouge_lsum([1, 2, 4], [1, 2, 3]) == pytest.approx(2 / 3, abs=1e-12)


def test_rouge_union_lcs_hand_example():
    # ref sentence [1,2,3,4]; candidate sentences [1,2] and [3,4].
    # LCS with [1,2] covers ref positions {0,1}; with [3,4] covers {2,3};
    # union = 4 hits. R = 4/4, P = 4/4 -> F = 1 even though no single
    # candidate sentence contains the whole reference.
    cand = [1, 2, SEP, 3, 4]
    ref = [1, 2, 3, 4]
    assert rouge_lsum(cand, ref) == pytest.approx(1.0, abs=1e-12)


def test_rouge_asymmetric_lengths():
    # ref [1,2,3,4,5], cand [1,3,9]: LCS = [1,3] -> hits 2, P = 2/3, R = 2/5
    f = 2 * (2 / 3) * (2 / 5) / (2 / 3 + 2 / 5)
    assert rouge_lsum([1, 3, 9], [1, 2, 3, 4, 5]) == pytest.approx(f, abs=1e-12)


def test_rouge_separator_not_scored():
    assert rouge_lsum([1, 2, SEP], [1, 2]) == pytest.approx(1.0, abs=1e-12)


def test_rouge_invalid_arguments():
    with pytest.raises(ValueError):
        rouge_lsum([], [1])
    with pytest.raises(ValueError):
        rouge_lsum([SEP, SEP], [1])  # separators only: no sentences
    with pytest.raises(ValueError):
        rouge_lsum([1], [])


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def test_metrics_bounded_and_degrade_monotonically():
    stream = SplitMix64(2024)
    for trial in range(50):
        n = int(stream.integers(5, 30, 1)[0])
        ref = list(stream.integers(0, 20, n))
        cand = list(ref)
        b_prev = bleu(cand, ref)
        r_prev = rouge_lsum(cand, ref)
        assert b_prev == pytest.approx(1.0, abs=1e-12)
        # progressively replace tokens with ids outside the shared vocab
        order = list(stream.integers(0, n, 8))
        for step, pos in enumerate(order):
            cand[int(pos)] = 1000 + step  # never in ref
            b = bleu(cand, ref)
            r = rouge_lsum(cand, ref)
            assert 0.0 <= b <= 1.0 and 0.0 <= r <= 1.0
            assert b <= b_prev + 1e-12
            assert r <= r_prev + 1e-12
            b_prev, r_prev = b, r
