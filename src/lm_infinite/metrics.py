"""BLEU and ROUGE-LSum over token-id sequences.

Both metrics operate on integer token streams — no tokenizer, casing, or
stemming. Sentence boundaries for ROUGE-LSum are marked by the reserved
separator id (see corpus.SENTENCE_SEP); the separator itself is never
scored. BLEU is the textbook formula, with no smoothing.
"""

from __future__ import annotations

import math
from collections import Counter

from lm_infinite.corpus import SENTENCE_SEP


def _as_int_list(seq):
    return [int(t) for t in seq]


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidate, reference, max_n: int = 4) -> float:
    """Clipped n-gram precision BLEU with brevity penalty.

    Geometric mean of precisions for n = 1..max_n times
    exp(min(0, 1 - |ref|/|cand|)). Zero if any precision is zero.

    Worked example: candidate [1, 2, 3, 4, 9, 9] against reference
    [1, 2, 3, 4, 5, 6] with max_n=2. Unigram hits are 4 of 6 (the two 9s
    miss), bigram hits 3 of 5, lengths are equal so there is no brevity
    penalty, and the score is sqrt(4/6 * 3/5) = 0.6324555320336759.
    """
    cand = _as_int_list(candidate)
    ref = _as_int_list(reference)
    if not cand:
        raise ValueError("BLEU candidate must be non-empty")
    if not ref:
        raise ValueError("BLEU reference must be non-empty")
    if not 1 <= max_n <= 4:
        raise ValueError(f"max_n must be in [1, 4], got {max_n}")

    log_sum = 0.0
    for n in range(1, max_n + 1):
        got = _ngrams(cand, n)
        want = _ngrams(ref, n)
        hits = sum(min(c, want[g]) for g, c in got.items())
        total = sum(got.values())
        if hits == 0:
            return 0.0
        log_sum += math.log(hits / total)
    brevity = min(0.0, 1.0 - len(ref) / len(cand))
    return math.exp(log_sum / max_n + brevity)


def _split_sentences(tokens):
    sentences, cur = [], []
    for t in tokens:
        if t == SENTENCE_SEP:
            if cur:
                sentences.append(cur)
            cur = []
        else:
            cur.append(t)
    if cur:
        sentences.append(cur)
    return sentences


def _lcs_table(a, b):
    rows = len(a) + 1
    cols = len(b) + 1
    t = [[0] * cols for _ in range(rows)]
    for i in range(1, rows):
        ai = a[i - 1]
        ti = t[i]
        tp = t[i - 1]
        for j in range(1, cols):
            if ai == b[j - 1]:
                ti[j] = tp[j - 1] + 1
            else:
                ti[j] = tp[j] if tp[j] >= ti[j - 1] else ti[j - 1]
    return t


def _lcs_indices(ref, cand):
    """Indices into ref of one longest common subsequence with cand."""
    t = _lcs_table(ref, cand)
    i, j = len(ref), len(cand)
    out = []
    while i > 0 and j > 0:
        if ref[i - 1] == cand[j - 1]:
            out.append(i - 1)
            i -= 1
            j -= 1
        elif t[i - 1][j] >= t[i][j - 1]:
            i -= 1
        else:
            j -= 1
    return out


def rouge_lsum(candidate, reference) -> float:
    """Summary-level LCS F1.

    Each reference sentence is matched against every candidate sentence;
    the union of the covered reference positions across those pairings is
    the hit count for that sentence. F = 2PR/(P+R) with recall against
    total reference tokens and precision against total candidate tokens.

    Worked example (S = the separator id): candidate [1, 2, 9, S, 3, 4]
    against reference [1, 2, 3, S, 4, 5]. Reference sentence [1, 2, 3] is
    covered at positions {0, 1} by candidate sentence [1, 2, 9] and at
    {2} by [3, 4], so 3 hits; reference sentence [4, 5] is covered only
    at {0} by [3, 4], so 1 hit. P = R = 4/5 and F = 0.8.
    """
    cand_sents = _split_sentences(_as_int_list(candidate))
    ref_sents = _split_sentences(_as_int_list(reference))
    if not cand_sents or not ref_sents:
        raise ValueError("ROUGE-LSum needs at least one sentence on each side")

    n_cand = sum(len(s) for s in cand_sents)
    n_ref = sum(len(s) for s in ref_sents)
    hits = 0
    for ref_sent in ref_sents:
        covered = set()
        for cand_sent in cand_sents:
            covered.update(_lcs_indices(ref_sent, cand_sent))
        hits += len(covered)
    if hits == 0:
        return 0.0
    precision = hits / n_cand
    recall = hits / n_ref
    return 2.0 * precision * recall / (precision + recall)
