"""Inputs, timed rounds and output checks of the benchmark.

Everything goes through the public ``lm_infinite`` API, looked up on the
package at call time so the traced run can wrap it. A run repeats one
round, a fixed unit of work made of the package's three jobs:

* train: two ``train`` calls of one step on the dense path, batch 16 x 128;
* encode: ``nll_curve`` at 1x-16x ``train_len`` in lambda and in vanilla
  mode, then ``run_diagnostics`` on an 8x probe;
* decode: per mode, ``generate(prompt_8x, 1)`` on a fresh session (the
  time to first token); then greedy ``step`` calls on the full caches,
  alternating between the two sessions; then ``truncation_baseline`` at
  window ``train_len``.

Timed calls go through ``Timer.timed``. The checks that follow them run
outside the timed region and record one failed operation for each timed
call whose output is wrong.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import importlib
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import lm_infinite as lmi
from tracing import Patches

# Streaming decode and the short-prefix lambda/vanilla equality hold to
# f64 rounding (~1e-13); 1e-9 still catches any real defect.
LOGIT_TOL = 1e-9

# Longest stretch of a timed call without a run of the reference kernel, and
# how far before and after a call the kernel runs that scale it may lie.
PROBE_INTERVAL = 0.25
SCALE_WINDOW = 2.0

# Greedy steps per decode stream before switching to the other stream.
DECODE_CHUNK = 16


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the benchmark, tests shrink them."""

    config: lmi.ToyModelConfig = field(default_factory=lmi.ToyModelConfig)
    train_batch: int = 16
    train_calls: int = 2  # one Adam step each
    train_sequences: int = 16
    train_seq_len: int = 1024
    held_out: int = 8
    encode_multiple: int = 16  # nll_curve milestones 1x..16x train_len
    probe_multiple: int = 8  # diagnostics probe and decode prompt, x train_len
    decode_steps: int = 192  # greedy steps per mode and round
    trunc_gen: int = 32  # tokens generated by truncation_baseline

    @property
    def encode_len(self):
        return self.encode_multiple * self.config.train_len

    @property
    def probe_len(self):
        return self.probe_multiple * self.config.train_len

    @property
    def milestones(self):
        out, m = [], 1
        while m <= self.encode_multiple:
            out.append(m * self.config.train_len)
            m *= 2
        return tuple(out)


@dataclass
class Inputs:
    model: lmi.ToyModel  # the checkpoint after an LMTM round trip
    trainee: lmi.ToyModel  # a copy that the train job keeps updating
    train_corpus: list
    held_out: list


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1


# A shared machine changes speed by tens of percent within seconds and over
# minutes, and all code slows down with it, though not by the same factor:
# interpreter-bound code (the lambda row loop, decode steps) swings
# differently from dense BLAS and memory-bound passes. So two fixed
# numpy kernels that never change, one of each kind, run at the start of
# every timed block and inside long calls at most PROBE_INTERVAL apart (see
# Timer.probe_points; their time is left out of the call). Each timed call is
# reported scaled by REFERENCE_SECONDS[kind] over the median time of its
# kind's kernel within SCALE_WINDOW of the call: the time it would have taken
# at the reference speed. The raw wall times are printed too. The reference
# times are about the kernels' median times on a 2-vCPU VM with OpenBLAS.
REFERENCE_SECONDS = {"small": 0.006, "bulk": 0.02}
_rng = np.random.default_rng(0)
_REF_X = _rng.standard_normal((64, 128))
_REF_W1 = _rng.standard_normal((128, 512)) / 16
_REF_W2 = _rng.standard_normal((512, 128)) / 32
_REF_V = _rng.standard_normal(128)
_REF_WS = _rng.standard_normal((128, 128)) / 16
_REF_BIG = _rng.standard_normal(1 << 19)


def reference_seconds():
    """Wall seconds of the two reference kernels, as {kind: seconds}.

    small: a Python loop of ops on 128-vectors, like a decode step;
    bulk: GEMMs with a transcendental, a pass over a 4 MiB array and the
    page faults of a fresh 40 MiB one, like a batched or long dense pass.
    """
    start = time.perf_counter()
    v = _REF_V
    for _ in range(500):
        v = np.tanh((v - v.mean()) @ _REF_WS) + _REF_V
    middle = time.perf_counter()
    x = _REF_X
    for _ in range(3):
        h = np.tanh(x @ _REF_W1) @ _REF_W2
        x = (h - h.mean(-1, keepdims=True)) / (h.std(-1, keepdims=True) + 1e-5)
    big = np.exp(-np.abs(_REF_BIG))
    fresh = np.ones(5 << 20)  # above malloc's mmap ceiling: new pages each time
    if not np.isfinite(x[0, 0] + v[0] + big[0] + fresh[-1]):
        raise FloatingPointError("reference kernel produced a non-finite value")
    return {"small": middle - start, "bulk": time.perf_counter() - middle}


class Timer:
    """Times calls in named blocks and samples the reference kernel. With a
    span recorder, ``tracing`` makes the recorder active inside timed calls,
    where reference runs become ``benchmark.reference`` spans so no layer's
    self time includes them."""

    def __init__(self, recorder=None, reference=reference_seconds):
        self.recorder = recorder
        self.tracing = False
        self.reference = reference
        if recorder is not None:
            self.reference = recorder.wrap("benchmark.reference", reference)
        self.references = []
        self._open = None
        self._in_call = False
        self._probe_seconds = 0.0
        self._last_reference = 0.0

    def run_reference(self):
        seconds = self.reference()
        self._last_reference = time.perf_counter()
        self.references.append((self._last_reference, seconds))

    def scaled(self, log):
        """``log.samples`` in seconds at the reference speed: each call's
        wall time times REFERENCE_SECONDS[kind] over the median time of its
        kind's kernel within SCALE_WINDOW of the call."""
        at = [t for t, _ in self.references]
        out = {}
        for name, samples in log.samples.items():
            kind = log.kinds[name]
            out[name] = []
            for (start, end), seconds in zip(log.windows[name], samples):
                lo = bisect.bisect_left(at, start - SCALE_WINDOW)
                hi = bisect.bisect_right(at, end + SCALE_WINDOW)
                near = statistics.median(r[kind] for _, r in self.references[lo:hi])
                out[name].append(seconds * REFERENCE_SECONDS[kind] / near)
        return out

    @contextmanager
    def block(self, log, name, kind):
        """Record the wall seconds of the calls timed in this block under
        ``name`` in ``log.samples``, their start and end in ``log.windows``;
        ``kind`` names the reference kernel that scales them."""
        self.run_reference()
        log.kinds[name] = kind
        self._open = (log.samples[name], log.windows[name])
        try:
            yield
        finally:
            self._open = None

    def timed(self, fn, *args, **kwargs):
        if self._open is None:
            raise RuntimeError("timed() outside a block")
        rec = self.recorder if self.tracing else None
        if rec is not None:
            rec.active = True
        self._probe_seconds = 0.0
        self._in_call = True
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            samples, windows = self._open
            samples.append(end - start - self._probe_seconds)
            windows.append((start, end))
            self._in_call = False
            if rec is not None:
                rec.active = False

    def probe(self):
        """Inside a timed call, run the reference kernel if the last run is
        PROBE_INTERVAL old; the call's time leaves it out."""
        if self._in_call and time.perf_counter() - self._last_reference >= PROBE_INTERVAL:
            start = time.perf_counter()
            self.run_reference()
            self._probe_seconds += time.perf_counter() - start

    def probe_points(self):
        """Patches that call ``probe`` after each decode step and each
        attention call the model makes, so long calls are sampled too."""
        model = importlib.import_module("lm_infinite.model")
        points = Patches(self._probing)
        points.add(lmi.DecodeSession, "step")
        for name in ("attend", "attend_with_stash", "attend_backward"):
            points.add(model, name)
        return points

    def _probing(self, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.probe()

        return probed


@dataclass
class RoundLog:
    """What the rounds of one run measured and checked."""

    samples: dict = field(default_factory=lambda: defaultdict(list))  # wall s
    windows: dict = field(default_factory=lambda: defaultdict(list))  # (start, end)
    kinds: dict = field(default_factory=dict)  # name -> reference kernel
    tally: Tally = field(default_factory=Tally)
    digest_parts: list = field(default_factory=list)

    def digest(self):
        blob = "\n".join(self.digest_parts).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


def _fmt(values):
    return " ".join(f"{float(v):.9e}" for v in values)


def _finite(values):
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


# ---------------------------------------------------------------------------
# Set-up: what the CLI does before a job (inputs, checkpoint, corpus file)
# ---------------------------------------------------------------------------


def setup(encoding, seed, workdir, sizes=Sizes()):
    """Generate the inputs for a model with positional ``encoding`` and
    round-trip them through LMTS and LMTM.

    Returns (inputs, ok); ok says the files read back what was written.
    """
    workdir = Path(workdir)
    config = replace(sizes.config, encoding=encoding, seed=seed)
    lang = lmi.SyntheticLanguage(vocab_size=config.vocab_size, seed=seed)
    train_corpus = lang.sample(sizes.train_sequences, sizes.train_seq_len, seed=seed + 1)
    held_out = lang.sample(sizes.held_out, sizes.encode_len, seed=seed + 2)
    model = lmi.init(config)

    corpus_path = workdir / "corpus.lmts"
    lmi.save_corpus(train_corpus + held_out, corpus_path, binary=True)
    loaded = lmi.load_corpus(corpus_path)
    model_path = workdir / "model.lmtm"
    lmi.save_model(model, model_path)
    loaded_model = lmi.load_model(model_path)

    ok = len(loaded) == len(train_corpus) + len(held_out) and all(
        np.array_equal(a, b) for a, b in zip(loaded, train_corpus + held_out)
    )
    ok = ok and loaded_model.config == model.config and all(
        np.array_equal(
            loaded_model.params[name], value.astype(np.float32).astype(np.float64)
        )
        for name, value in model.params.items()
    )
    n_train = len(train_corpus)
    inputs = Inputs(
        model=loaded_model,
        trainee=loaded_model.copy(),
        train_corpus=loaded[:n_train],
        held_out=loaded[n_train:],
    )
    return inputs, ok


# ---------------------------------------------------------------------------
# train: the `lm-infinite train` job, dense path
# ---------------------------------------------------------------------------


def train_job(inputs, sizes, r, timer, log):
    for call in range(sizes.train_calls):
        with timer.block(log, "train_s", "bulk"):
            result = timer.timed(
                lmi.train,
                inputs.trainee,
                inputs.train_corpus,
                1,
                batch_shape=(sizes.train_batch, None),
                seed=r * sizes.train_calls + call,
            )
        losses = result.loss_trace
        log.tally.record(len(losses) == 1 and _finite(losses))
        if r == 0:
            log.digest_parts.append("loss " + _fmt(losses))


# ---------------------------------------------------------------------------
# encode: the `eval` (NLL curve) and `diag` jobs, no decoding
# ---------------------------------------------------------------------------


def short_prefix_agrees(model, tokens):
    """Lambda and vanilla logits agree on a prefix no longer than n_local,
    where the lambda mask is the causal mask."""
    prefix = tokens[: model.config.n_local]
    lam = lmi.forward(model, prefix, mode="lambda")
    van = lmi.forward(model, prefix, mode="vanilla_causal")
    return bool(np.max(np.abs(lam - van)) <= LOGIT_TOL)


def encode_job(inputs, sizes, r, timer, log):
    model = inputs.model
    seq = inputs.held_out[r % len(inputs.held_out)][: sizes.encode_len]
    # the lambda row loop is interpreter-bound, dense vanilla attention is bulk
    for label, mode, kind in (("lambda", "lambda", "small"), ("vanilla", "vanilla_causal", "bulk")):
        with timer.block(log, f"encode_s_{label}", kind):
            points = timer.timed(lmi.nll_curve, model, [seq], sizes.milestones, mode=mode)
        nlls = [p.nll for p in points]
        ok = len(points) == len(sizes.milestones) and _finite(nlls)
        if mode == "lambda":
            ok = ok and short_prefix_agrees(model, seq)
        log.tally.record(ok)
        if r == 0:
            log.digest_parts.append(f"nll {label} " + _fmt(nlls))

    probe = seq[: sizes.probe_len]
    with timer.block(log, "diag_s", "small"):
        report = timer.timed(lmi.run_diagnostics, model, probe)
    entropy = report.entropy_curve.entropy
    coords = report.pca_projection.coords
    log.tally.record(
        entropy.shape[-1] == probe.size
        and _finite(entropy)
        and coords.shape == (probe.size, 2)
        and _finite(coords)
        and math.isfinite(report.logit_bound)
    )
    if r == 0:
        log.digest_parts.append(
            "diag " + _fmt([report.logit_bound, entropy.sum(), np.abs(coords).sum()])
        )


# ---------------------------------------------------------------------------
# decode: the `generate` job and the truncation eval
# ---------------------------------------------------------------------------


class RecordingSession(lmi.DecodeSession):
    """A DecodeSession that keeps the logits of every step for the checks."""

    def __init__(self, model, mode):
        super().__init__(model, mode)
        self.logits = []

    def step(self, token):
        out = super().step(token)
        self.logits.append(out)
        return out


def stream_matches_forward(model, mode, prompt, first, steps, logits):
    """Per operation: did the generate call, then each greedy step, return
    what one full forward pass over the same tokens returns, and pick the
    argmax of its own logits?"""
    tokens = np.concatenate([prompt, [first], steps]).astype(np.int64)
    reference = lmi.forward(model, tokens, mode=mode)
    got = np.stack(logits)
    if got.shape != reference.shape:
        return False, [False] * len(steps)
    rows_ok = np.all(np.abs(got - reference) <= LOGIT_TOL, axis=-1)
    n = prompt.size
    generate_ok = bool(rows_ok[: n + 1].all()) and first == int(np.argmax(got[n - 1]))
    picks_ok = [
        bool(rows_ok[n + 1 + k]) and int(tok) == int(np.argmax(got[n + k]))
        for k, tok in enumerate(steps)
    ]
    return generate_ok, picks_ok


def decode_job(inputs, sizes, r, timer, log):
    model = inputs.model
    seq = inputs.held_out[r % len(inputs.held_out)]
    prompt = seq[: sizes.probe_len].astype(np.int64)
    streams = []  # (label, mode, session, first token, greedy steps)
    for label, mode in (("lambda", "lambda"), ("vanilla", "vanilla_causal")):
        session = RecordingSession(model, mode)
        with timer.block(log, f"ttft_s_{label}", "small"):
            out = timer.timed(lmi.generate, model, prompt, 1, mode=mode, cache=session)
        streams.append((label, mode, session, int(out[0]) if len(out) == 1 else -1, []))
    # Alternate the two streams in chunks, so each mode's step times are
    # spread over the whole decode phase, not one short stretch of it.
    for start in range(0, sizes.decode_steps, DECODE_CHUNK):
        for label, _, session, _, steps in streams:
            with timer.block(log, f"decode_s_{label}", "small"):
                for _ in range(min(DECODE_CHUNK, sizes.decode_steps - start)):
                    token = int(np.argmax(session.logits[-1]))
                    timer.timed(session.step, token)
                    steps.append(token)
    for label, mode, session, first, steps in streams:
        generate_ok, picks_ok = stream_matches_forward(
            model, mode, prompt, first, np.asarray(steps, dtype=np.int64), session.logits
        )
        log.tally.record(generate_ok)
        for ok in picks_ok:
            log.tally.record(ok)
        if r == 0:
            log.digest_parts.append(f"tokens {label} {first} " + " ".join(map(str, steps)))

    window = sizes.config.train_len
    with timer.block(log, "trunc_s", "bulk"):
        result = timer.timed(
            lmi.truncation_baseline,
            model,
            [seq],
            window,
            sizes.trunc_gen,
            prompt_len=sizes.probe_len,
        )
    cfg = model.config
    cells = sizes.trunc_gen * window * (window + 1) // 2 * cfg.n_layers * cfg.n_heads
    log.tally.record(
        result.n_sequences == 1
        and result.op_count == cells
        and 0.0 <= result.bleu <= 1.0
        and 0.0 <= result.rouge <= 1.0
    )
    if r == 0:
        log.digest_parts.append(
            f"trunc {result.op_count} " + _fmt([result.bleu, result.rouge])
        )


def run_round(inputs, sizes, r, timer, log):
    train_job(inputs, sizes, r, timer, log)
    encode_job(inputs, sizes, r, timer, log)
    decode_job(inputs, sizes, r, timer, log)


def warmup(inputs, sizes):
    """One small call of each job, so first-call costs stay out of the
    timed rounds. Touches neither the trainee nor any timed state."""
    train_len = sizes.config.train_len
    model = inputs.model
    lmi.train(model.copy(), inputs.train_corpus, 1, batch_shape=(2, None))
    seq = inputs.held_out[0][: 2 * train_len]
    for mode in ("lambda", "vanilla_causal"):
        lmi.nll_curve(model, [seq], (train_len, seq.size), mode=mode)
        lmi.generate(model, seq[:16], 2, mode=mode, cache=RecordingSession(model, mode))
    lmi.run_diagnostics(model, seq)
    lmi.truncation_baseline(model, [inputs.held_out[0]], 8, 1, prompt_len=8)
