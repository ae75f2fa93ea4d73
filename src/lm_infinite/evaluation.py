"""Evaluation harness: NLL milestone curves, continuation scoring,
the truncation baseline, and wall-clock benchmarks.

Milestones are context lengths, by default {1,2,4,8,16} x train_len. NLL
at milestone m is measured over a 32-token window ending at position m
(not cumulative), which isolates positional behavior. Perplexity is
exp of the very same accumulator. All per-sequence sums use math.fsum so
aggregation order cannot change results.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from lm_infinite.metrics import bleu, rouge_lsum
from lm_infinite.model import DecodeSession, ToyModel, forward, generate

NLL_WINDOW = 32


@dataclass(frozen=True)
class MilestoneSpec:
    milestones: tuple

    def __post_init__(self):
        ms = tuple(int(m) for m in self.milestones)
        if not ms:
            raise ValueError("need at least one milestone")
        if any(m < 2 for m in ms):
            raise ValueError("milestones must be >= 2")
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError(f"milestones must be strictly increasing: {ms}")
        object.__setattr__(self, "milestones", ms)

    def validate_for(self, train_len: int) -> "MilestoneSpec":
        if self.milestones[0] > train_len:
            raise ValueError(
                f"first milestone {self.milestones[0]} exceeds train_len {train_len}"
            )
        return self


def _spec(milestones) -> MilestoneSpec:
    """``milestones`` as given if a MilestoneSpec, else one built from it."""
    if isinstance(milestones, MilestoneSpec):
        return milestones
    return MilestoneSpec(tuple(milestones))


def parse_milestones(text: str, train_len: int) -> MilestoneSpec:
    """Parse "1x,2x,8x" (multiples of train_len) or absolute "128,512"."""
    items = []
    for raw in text.split(","):
        raw = raw.strip()
        if not raw:
            continue
        try:
            if raw.endswith("x"):
                items.append(int(raw[:-1]) * train_len)
            else:
                items.append(int(raw))
        except ValueError:
            raise ValueError(
                f"bad milestone {raw!r} in {text!r}: expected a length like 128 "
                f"or a multiple of train_len like 2x"
            ) from None
    return MilestoneSpec(tuple(items)).validate_for(train_len)


# ---------------------------------------------------------------------------
# NLL curve
# ---------------------------------------------------------------------------


@dataclass
class NllPoint:
    milestone: int
    nll: float
    perplexity: float
    n_sequences: int
    n_skipped: int
    n_tokens: int


def _log_softmax(rows):
    z = rows - rows.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def nll_curve(model, corpus, milestones, mode: str = "lambda"):
    """Per-milestone NLL in a trailing window, one prefill per sequence.

    Each sequence is run once, up to its largest qualifying milestone,
    through one ``prefill`` of a fresh DecodeSession that returns only the
    rows inside the milestone windows: the last layer and the head run only
    for those rows, so a lambda curve runs in memory bounded whatever the
    length. In lambda mode the prefill also skips every chunk past the
    first n_global + n_local tokens that no window row reaches, so a curve
    costs the pinned prefix plus n_layers * (n_local - 1) tokens before
    each window, not the sequence length.
    Smaller milestones reuse rows of the same pass (causality makes them
    identical to truncated passes). Sequences shorter than a milestone are
    skipped and counted.
    """
    ms = _spec(milestones).milestones
    corpus = [np.asarray(s) for s in corpus]
    if not corpus:
        raise ValueError("empty corpus")

    parts = {m: [] for m in ms}  # per-milestone list of per-token NLLs
    counts = {m: 0 for m in ms}
    for seq in corpus:
        top = max((m for m in ms if len(seq) >= m), default=None)
        if top is None:
            continue
        ids = seq[:top].astype(np.int64)
        # Row r predicts ids[r + 1]: milestone m reads rows [first, m - 1),
        # and the last token is never fed.
        windows = [(m, max(1, m - NLL_WINDOW) - 1) for m in ms if m <= top]
        spans = [np.arange(first, m - 1) for m, first in windows]
        rows = np.unique(np.concatenate(spans))
        logp = _log_softmax(DecodeSession(model, mode).prefill(ids[:-1], rows=rows))
        nll = -logp[np.arange(rows.size), ids[rows + 1]]
        for m, first in windows:
            a, b = np.searchsorted(rows, (first, m - 1))
            parts[m].extend(nll[a:b].tolist())
            counts[m] += 1

    points = []
    for m in ms:
        if counts[m] == 0:
            raise ValueError(f"milestone {m}: no corpus sequence is that long")
        nll = math.fsum(parts[m]) / len(parts[m])
        points.append(
            NllPoint(
                milestone=m,
                nll=nll,
                perplexity=math.exp(nll),
                n_sequences=counts[m],
                n_skipped=len(corpus) - counts[m],
                n_tokens=len(parts[m]),
            )
        )
    return points


# ---------------------------------------------------------------------------
# Continuation scoring
# ---------------------------------------------------------------------------


@dataclass
class ContinuationPoint:
    milestone: int
    bleu: float
    rouge: float
    n_sequences: int
    n_skipped: int


def continuation_eval(
    model, corpus, milestones, gen_len: int = 100, mode: str = "lambda"
):
    """Greedy continuations at each milestone scored against ground truth."""
    if gen_len < 1:
        raise ValueError(f"gen_len must be >= 1, got {gen_len}")
    ms = _spec(milestones).milestones
    corpus = [np.asarray(s) for s in corpus]

    points = []
    for m in ms:
        bleus, rouges = [], []
        skipped = 0
        for seq in corpus:
            if len(seq) < m + gen_len:
                skipped += 1
                continue
            out = generate(model, seq[:m], gen_len, mode=mode)
            ref = seq[m : m + gen_len]
            bleus.append(bleu(out, ref))
            rouges.append(rouge_lsum(out, ref))
        if not bleus:
            raise ValueError(f"milestone {m}: no sequence extends {gen_len} past it")
        points.append(
            ContinuationPoint(
                milestone=m,
                bleu=math.fsum(bleus) / len(bleus),
                rouge=math.fsum(rouges) / len(rouges),
                n_sequences=len(bleus),
                n_skipped=skipped,
            )
        )
    return points


# ---------------------------------------------------------------------------
# Truncation baseline
# ---------------------------------------------------------------------------


@dataclass
class TruncationResult:
    window: int
    total_gen: int
    bleu: float
    rouge: float
    op_count: int  # attention cells spent by re-encoding truncated contexts
    lambda_op_count: int  # analytic bound for lambda decode of the same tokens
    n_sequences: int


def _cells(n: int) -> int:
    return n * (n + 1) // 2  # causal attention pairs over n tokens


def truncation_baseline(
    model, corpus, window_w: int, total_gen: int, prompt_len: int | None = None
) -> TruncationResult:
    """Generate by repeatedly truncating to the last window_w tokens and
    re-encoding from scratch (positions restart at 0 every step), the
    quadratic-cost baseline the lambda mask is meant to beat.

    Each step prefills the window into a fresh vanilla DecodeSession and
    reads the logits of its last row only, so the last layer's queries,
    MLP and head run for that one row. ``op_count`` is still the analytic
    cost of the protocol: c(c+1)/2 cells per layer and head for each
    re-encoded context of c tokens, so total_gen * W(W+1)/2 * n_layers *
    n_heads per sequence once the prompt fills the window W. It counts
    every row of every re-encoding, not the cells this code scores. Op
    counts are deterministic by construction; wall-clock lives in bench().
    """
    cfg = model.config
    if window_w < 1:
        raise ValueError("window_w must be >= 1")
    if window_w > cfg.train_len:
        raise ValueError(
            f"window_w {window_w} exceeds train_len {cfg.train_len}: the model "
            "never saw longer contexts, truncate to at most train_len"
        )
    if total_gen < 1:
        raise ValueError("total_gen must be >= 1")
    if prompt_len is None:
        prompt_len = cfg.train_len
    if prompt_len < 1:
        raise ValueError(f"prompt_len must be >= 1, got {prompt_len}")
    corpus = [np.asarray(s) for s in corpus]

    per_head = 0
    bleus, rouges = [], []
    for seq in corpus:
        if len(seq) < prompt_len + total_gen:
            continue
        context = [int(t) for t in seq[:prompt_len]]
        out = []
        for _ in range(total_gen):
            ctx = context[-window_w:]
            per_head += _cells(len(ctx))
            session = DecodeSession(model, "vanilla_causal")
            logits = session.prefill(np.asarray(ctx), rows=[len(ctx) - 1])
            nxt = int(np.argmax(logits[0]))
            out.append(nxt)
            context.append(nxt)
        ref = seq[prompt_len : prompt_len + total_gen]
        bleus.append(bleu(out, ref))
        rouges.append(rouge_lsum(out, ref))
    if not bleus:
        raise ValueError(
            f"no corpus sequence is at least {prompt_len + total_gen} tokens long"
        )
    heads_layers = cfg.n_layers * cfg.n_heads
    lam_cells = (
        len(bleus) * total_gen * (cfg.n_global + cfg.n_local) * heads_layers
    )
    return TruncationResult(
        window=window_w,
        total_gen=total_gen,
        bleu=math.fsum(bleus) / len(bleus),
        rouge=math.fsum(rouges) / len(rouges),
        op_count=per_head * heads_layers,
        lambda_op_count=lam_cells,
        n_sequences=len(bleus),
    )


def vanilla_op_count(model, context_len: int, total_gen: int, n_sequences: int = 1) -> int:
    """Attention cells for full re-encoding (no truncation) at each step —
    what the truncation protocol costs when window_w >= total context."""
    cfg = model.config
    per_head = sum(_cells(context_len + t) for t in range(total_gen))
    return per_head * cfg.n_layers * cfg.n_heads * n_sequences


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------


@dataclass
class BenchResult:
    mode: str
    seq_len: int
    encode_seconds: float
    decode_seconds_per_token: float
    peak_cache_entries: int
    repeats: int


def bench(model, seq_lens, mode: str = "lambda", repeats: int = 5,
          decode_tokens: int = 32) -> list:
    """Median-of-repeats encode (full forward) and per-token decode timings,
    one BenchResult per length in ``seq_lens``.

    The lengths take turns, so a slow stretch of a shared machine falls on
    every length, not on one: each of ``repeats`` rounds times one encode
    per length; then one session per length is prefilled, untimed, and each
    of ``repeats`` rounds times one window of ``decode_tokens`` steps per
    length.
    """
    seq_lens = tuple(seq_lens)
    if repeats < 3:
        raise ValueError("repeats must be >= 3 for a meaningful median")
    if not seq_lens or min(seq_lens) < 2:
        raise ValueError(f"each seq_len must be >= 2, got {seq_lens}")
    if decode_tokens < 1:
        raise ValueError(f"decode_tokens must be >= 1, got {decode_tokens}")
    streams = [np.arange(n + decode_tokens) % model.config.vocab_size for n in seq_lens]

    encode_times = [[] for _ in seq_lens]
    for _ in range(repeats):
        for n, stream, times in zip(seq_lens, streams, encode_times):
            t0 = time.perf_counter()
            forward(model, stream[:n], mode=mode)
            times.append(time.perf_counter() - t0)

    sessions = [DecodeSession(model, mode) for _ in seq_lens]
    for n, stream, session in zip(seq_lens, streams, sessions):
        session.prefill(stream[:n])
    decode_times = [[] for _ in seq_lens]
    for _ in range(repeats):
        for n, stream, session, times in zip(seq_lens, streams, sessions, decode_times):
            t0 = time.perf_counter()
            for t in stream[n:]:
                session.step(int(t))
            times.append((time.perf_counter() - t0) / decode_tokens)

    return [
        BenchResult(
            mode=mode,
            seq_len=n,
            encode_seconds=float(np.median(enc)),
            decode_seconds_per_token=float(np.median(dec)),
            peak_cache_entries=len(session.cache),
            repeats=repeats,
        )
        for n, enc, dec, session in zip(seq_lens, encode_times, decode_times, sessions)
    ]


# ---------------------------------------------------------------------------
# Full report + CSV
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    milestones: tuple
    nll: dict = field(default_factory=dict)  # mode -> list[NllPoint]
    continuation: dict = field(default_factory=dict)  # mode -> list[ContinuationPoint]


def run_eval(model, corpus, milestones, modes=("lambda", "vanilla_causal"),
             gen_len: int = 100, with_continuation: bool = True) -> EvalReport:
    spec = _spec(milestones)
    report = EvalReport(milestones=spec.milestones)
    for mode in modes:
        report.nll[mode] = nll_curve(model, corpus, spec, mode=mode)
        if with_continuation:
            report.continuation[mode] = continuation_eval(
                model, corpus, spec, gen_len=gen_len, mode=mode
            )
    return report


def write_eval_csv(report: EvalReport, path) -> None:
    """One row per (milestone, mode): NLL, perplexity, BLEU, ROUGE, counts."""
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(
            ["milestone", "mode", "nll", "perplexity", "bleu", "rouge",
             "n_sequences", "n_skipped"]
        )
        for mode, points in report.nll.items():
            cont = {c.milestone: c for c in report.continuation.get(mode, [])}
            for p in points:
                c = cont.get(p.milestone)
                w.writerow(
                    [p.milestone, mode, repr(p.nll), repr(p.perplexity),
                     repr(c.bleu) if c else "", repr(c.rouge) if c else "",
                     p.n_sequences, p.n_skipped]
                )
