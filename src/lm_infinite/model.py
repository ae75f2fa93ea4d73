"""A small decoder-only transformer with manual backprop, at desk scale.

Architecture: token embedding -> n_layers x [pre-norm attention + pre-norm
GeLU MLP, residual] -> final layer norm -> untied LM head. Everything is
float64 numpy; gradients are hand-written and finite-difference checked.

The layer stack is written once, in ``_forward``. Encode, tracing,
training and streaming differ only in the attention they pass it: the
blocked kernel (keeping its stash for the backward, or reading diagnostics
off it), or one prefill chunk (a decode step is one) on a session's KvCache.

Training always runs ``vanilla_causal`` attention; it equals lambda
attention only when train_len <= min(n_local, l_pretrain), where the lambda
mask is causal and no distance reaches the clamp. The mode is an argument of
each call (default ``lambda``), not of the model: both run the same weights.

``ToyModelConfig`` is the one declaration of the model's settings: the
LMTM config block is written and read from its fields, and the CLI's model
flags are derived from them.
"""

from __future__ import annotations

import copy
import math
import struct
import time
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import erf

from lm_infinite.attention import (
    AttentionConfig,
    _bad_row,
    _check_nan,
    attend,
    attend_backward,
)
from lm_infinite.binary import ByteReader
from lm_infinite.encoding import AlibiParams, RopeParams, default_alibi_slopes
from lm_infinite.errors import (
    CacheStateError,
    CorpusFormatError,
    NanDetectedError,
    TrainingDivergedError,
)
from lm_infinite.kv_cache import KvCache
from lm_infinite.masking import MaskParams
from lm_infinite.rng import SplitMix64, check_seed, derive_stream

_LN_EPS = 1e-5
_INIT_STD = 0.02
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.95, 1e-8  # Adam
_MAGIC = b"LMTM"
_VERSION = 1

ENCODINGS = ("rope", "alibi")
# Input rows per training micro-batch: one default-length sequence. A chunk's
# (rows, 4 * d_model) MLP arrays are then 512 KB each in float64, against a
# 2 MB per-core L2; at 512 rows each one filled it, and loss_and_grads on a
# 16x129 batch peaked at 79 MB of tracemalloc instead of 25 MB.
MICRO_BATCH_ROWS = 128


@dataclass(frozen=True)
class ToyModelConfig:
    vocab_size: int = 256
    d_model: int = 128
    n_layers: int = 4
    n_heads: int = 4
    train_len: int = 128
    n_global: int = 16
    n_local: int = 128
    l_pretrain: int = 128
    encoding: str = "rope"
    rope_base: float = 10000.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_heads", "n_layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.train_len < 8:
            raise ValueError("train_len must be >= 8")
        if self.encoding not in ENCODINGS:
            raise ValueError(f"encoding must be one of {ENCODINGS}")
        check_seed(self.seed)
        if self.head_dim < 2:  # before the Alibi slopes, one per head, are built
            raise ValueError(f"head_dim must be even and >= 2, got {self.head_dim}")
        # The attention, mask and encoding configs check head_dim, window
        # sizes and rope_base, so a bad config fails at construction.
        self.attention_for("lambda")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def mask_params(self) -> MaskParams:
        return MaskParams(
            n_global=self.n_global, n_local=self.n_local, l_pretrain=self.l_pretrain
        )

    def attention_for(self, mode: str) -> AttentionConfig:
        if self.encoding == "rope":
            enc = RopeParams(head_dim=self.head_dim, base=self.rope_base)
        else:
            enc = AlibiParams(slopes=default_alibi_slopes(self.n_heads))
        return AttentionConfig(
            n_heads=self.n_heads,
            head_dim=self.head_dim,
            mask_params=self.mask_params,
            encoding=enc,
            mode=mode,
        )


def _param_count(vocab_size: int, d: int, n_layers: int) -> int:
    """The number of values in _param_shapes' tensors, without building them."""
    return 2 * vocab_size * d + 2 * d + n_layers * (12 * d * d + 9 * d)


def _param_shapes(config: ToyModelConfig) -> dict:
    d, hidden = config.d_model, 4 * config.d_model
    shapes = {"embedding": (config.vocab_size, d)}
    for i in range(config.n_layers):
        p = f"layer{i}"
        shapes[f"{p}/ln1/gamma"] = (d,)
        shapes[f"{p}/ln1/beta"] = (d,)
        shapes[f"{p}/attn/wq"] = (d, d)
        shapes[f"{p}/attn/wk"] = (d, d)
        shapes[f"{p}/attn/wv"] = (d, d)
        shapes[f"{p}/attn/wo"] = (d, d)
        shapes[f"{p}/ln2/gamma"] = (d,)
        shapes[f"{p}/ln2/beta"] = (d,)
        shapes[f"{p}/mlp/w1"] = (d, hidden)
        shapes[f"{p}/mlp/b1"] = (hidden,)
        shapes[f"{p}/mlp/w2"] = (hidden, d)
        shapes[f"{p}/mlp/b2"] = (d,)
    shapes["ln_f/gamma"] = (d,)
    shapes["ln_f/beta"] = (d,)
    shapes["head"] = (d, config.vocab_size)
    return shapes


class ToyModel:
    def __init__(self, config: ToyModelConfig, params: dict):
        self.config = config
        self.params = params

    def copy(self) -> "ToyModel":
        return ToyModel(self.config, {k: v.copy() for k, v in self.params.items()})


def init(config: ToyModelConfig) -> ToyModel:
    """Deterministic init: each tensor gets its own named splitmix64 stream,
    so parameter values depend only on (seed, tensor name, shape)."""
    params = {}
    for name, shape in _param_shapes(config).items():
        if name.endswith("gamma"):
            params[name] = np.ones(shape)
        elif name.endswith(("beta", "b1", "b2")):
            params[name] = np.zeros(shape)
        else:
            stream = SplitMix64(derive_stream(config.seed, f"init/{name}"))
            params[name] = stream.normal(shape, std=_INIT_STD)
    return ToyModel(config, params)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _layer_norm(x, gamma, beta):
    # sum / n is what np.mean computes, without its Python-level wrappers. A
    # float n spares numpy an int-to-float conversion in each division, and
    # gamma and beta as (1, d) rows spare a one-row x a broadcast.
    n = float(x.shape[-1])
    xhat = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv
    y = gamma[None] * xhat
    y += beta[None]
    return y, (xhat, inv, gamma)


def _layer_norm_backward(dy, stash):
    xhat, inv, gamma = stash
    n = dy.shape[-1]
    axes = tuple(range(dy.ndim - 1))
    t = dy * xhat
    dgamma = t.sum(axis=axes)
    dbeta = dy.sum(axis=axes)
    dx = dy * gamma  # dL/dxhat, turned into dL/dx in place below
    m2 = np.multiply(dx, xhat, out=t).sum(axis=-1, keepdims=True) / n
    dx -= dx.sum(axis=-1, keepdims=True) / n
    dx -= np.multiply(xhat, m2, out=t)
    dx *= inv
    return dx, dgamma, dbeta


_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _gelu(x):
    """GeLU and the normal CDF it scales by; the CDF is reused by the grad."""
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    return x * cdf, cdf


def _gelu_grad(x, cdf, dy):
    """dy * GeLU'(x), GeLU'(x) = cdf + x * pdf(x), in one scratch array."""
    t = np.multiply(x, -0.5)
    t *= x
    np.exp(t, out=t)
    t *= _INV_SQRT_2PI
    t *= x
    t += cdf
    t *= dy
    return t


def _check_ids(ids, vocab_size):
    ids = np.asarray(ids)
    if ids.size == 0:
        raise ValueError("empty token sequence")
    if not issubclass(ids.dtype.type, np.integer):
        raise ValueError(f"token ids must be integers, got dtype {ids.dtype}")
    lo, hi = np.minimum.reduce(ids, axis=None), np.maximum.reduce(ids, axis=None)
    if lo < 0 or hi >= vocab_size:
        bad = lo if lo < 0 else hi
        raise ValueError(f"token id {bad} outside vocabulary of size {vocab_size}")
    return ids


def _check_rows(rows, n):
    """``rows`` as an int array of strictly increasing indices below ``n``."""
    rows = np.asarray(rows)
    if rows.ndim != 1 or rows.size == 0:
        raise ValueError(f"rows must be a non-empty 1-d index array, got {rows!r}")
    if not np.issubdtype(rows.dtype, np.integer):
        raise ValueError(f"rows must be integers, got dtype {rows.dtype}")
    if (down := np.flatnonzero(rows[1:] <= rows[:-1])).size:
        i = down[0]
        raise ValueError(
            f"rows must be strictly increasing, got {rows[i + 1]} after {rows[i]}"
        )
    if rows[0] < 0 or rows[-1] >= n:
        bad = rows[0] if rows[0] < 0 else rows[-1]
        raise ValueError(f"row {bad} outside the {n} tokens")
    return rows


def _check_finite(x, message, position):
    """Raise ``message`` and the position of the first non-finite row of
    ``x``, whose rows start at ``position``."""
    if (row := _bad_row(x)) is not None:
        raise NanDetectedError(f"{message} {position + row[-1]}")


@dataclass
class ModelTrace:
    """Diagnostics retained from one forward pass, one array per layer."""

    hidden: list  # residual stream after the block, (seq_len, d_model)
    entropy: list  # attention row entropies, (n_heads, seq_len)
    last_logits: list  # the last row's masked logits, (n_heads, n)
    last_distances: list  # the last row's key distances, (n,); clamped in lambda


def _forward(model, ids, attn, stash=None, hidden=None, position=0, rows=None, batch=0):
    """Embedding -> layers -> final layer norm -> head: the only copy.

    ``ids`` is (seq_len,) or (batch, seq_len); a decode step is seq_len 1.
    ``attn(i, q, k, v)`` is layer i's attention; it gets (..., n_heads,
    head_dim) projections and returns values shaped like q. It is the only
    part that differs between encode, tracing, training and decode.
    ``stash``, if a list, receives what the backward pass needs: one dict
    per layer, then (hf, lnf) of the final norm. ``hidden``, if a list,
    receives the residual stream after each block. ``position`` is the
    absolute position of the first row and ``batch`` the caller's index of
    the first sequence of a (batch, seq_len) ``ids``, used in NaN messages.

    ``rows``, a strictly increasing index array into the rows of a
    (seq_len,) ``ids``, selects the rows whose logits are returned (None:
    all). Only the last layer sees it: it computes keys and values for
    every row and calls ``attn(i, q, k, v, rows)`` with the queries of the
    selected rows, whose residual stream alone goes on through that
    layer's MLP, the final norm and the head.

    The pass scans its logits once for a NaN or +-inf; with ``rows`` it
    also scans the last layer's keys and values, which hold every row. If
    they hold one, or if ``attn`` raised NanDetectedError, the pass is
    replayed over all rows with a scan of each layer's attention inputs, of
    its output after attention and after the MLP, and of the logits, in
    that order. The replay is deterministic, so it raises, naming the first
    stage and row that went non-finite, as a pass without ``rows`` does; it
    calls ``attn`` again for every layer it reaches.
    """
    try:
        logits = _layers(model, ids, attn, stash, hidden, rows=rows)
        if np.isfinite(logits).all():
            return logits
    except NanDetectedError:
        pass
    logits = _layers(model, ids, attn, position=position, batch=batch, scan=True)
    return logits if rows is None else logits[rows]


def _layers(model, ids, attn, stash=None, hidden=None, position=0, batch=0, scan=False,
            rows=None):
    """The pass of ``_forward``; with ``scan``, raise at the first
    non-finite stage."""
    cfg = model.config
    p = model.params
    x = p["embedding"][ids]  # (..., d_model)
    heads = (cfg.n_heads, cfg.head_dim)
    for i in range(cfg.n_layers):
        pre = f"layer{i}"
        h, ln1 = _layer_norm(x, p[f"{pre}/ln1/gamma"], p[f"{pre}/ln1/beta"])
        k = (h @ p[f"{pre}/attn/wk"]).reshape(h.shape[:-1] + heads)
        v = (h @ p[f"{pre}/attn/wv"]).reshape(h.shape[:-1] + heads)
        select = rows is not None and i == cfg.n_layers - 1
        if select:
            # A non-finite key or value of a dropped row would go unseen.
            if not (np.isfinite(k).all() and np.isfinite(v).all()):
                raise NanDetectedError(f"layer {i}: non-finite key or value")
            x, h = x[rows], h[rows]
        q = (h @ p[f"{pre}/attn/wq"]).reshape(h.shape[:-1] + heads)
        try:
            if scan:
                _check_nan(q, k, v, position, batch)
            a = attn(i, q, k, v, rows) if select else attn(i, q, k, v)
            a = a.reshape(x.shape)
        except NanDetectedError as exc:
            raise NanDetectedError(f"layer {i}: {exc}") from None
        x = x + a @ p[f"{pre}/attn/wo"]
        if scan:
            _check_finite(x, f"NaN after attention in layer {i}, position", position)
        h2, ln2 = _layer_norm(x, p[f"{pre}/ln2/gamma"], p[f"{pre}/ln2/beta"])
        # The biases as (1, d) rows, as in _layer_norm.
        u = h2 @ p[f"{pre}/mlp/w1"] + p[f"{pre}/mlp/b1"][None]
        g, cdf = _gelu(u)
        x = x + (g @ p[f"{pre}/mlp/w2"] + p[f"{pre}/mlp/b2"][None])
        if scan:
            _check_finite(x, f"NaN after MLP in layer {i}, position", position)
        if stash is not None:
            stash.append(dict(h=h, ln1=ln1, a=a, ln2=ln2, h2=h2, u=u, g=g, cdf=cdf))
        if hidden is not None:
            hidden.append(x)

    hf, lnf = _layer_norm(x, p["ln_f/gamma"], p["ln_f/beta"])
    if stash is not None:
        stash.append((hf, lnf))
    logits = hf @ p["head"]
    if scan:
        _check_finite(logits, "NaN in logits at position", position)
    return logits


def forward(model: ToyModel, tokens, mode: str = "lambda") -> np.ndarray:
    """Per-position logits over the vocabulary, shape (seq_len, vocab)."""
    ids = _check_ids(tokens, model.config.vocab_size)
    if ids.ndim != 1:
        raise ValueError(f"tokens must be one-dimensional, got shape {ids.shape}")
    att_config = model.config.attention_for(mode)
    return _forward(model, ids, lambda i, q, k, v: attend(q, k, v, att_config)[0])


def forward_traced(model: ToyModel, tokens, mode: str = "lambda"):
    """Forward plus a ModelTrace of per-layer row entropies, last-row
    logits and distances, and residual-stream states; used by the
    diagnostics module. Each layer's attention stash is dropped once read."""
    ids = _check_ids(tokens, model.config.vocab_size)
    if ids.ndim != 1:
        raise ValueError(f"tracing expects a single sequence, got shape {ids.shape}")
    att_config = model.config.attention_for(mode)
    trace = ModelTrace(hidden=[], entropy=[], last_logits=[], last_distances=[])

    def attn(i, q, k, v):
        values, stash = attend(q, k, v, att_config)
        trace.entropy.append(stash.entropy())
        trace.last_logits.append(stash.last_logits)
        trace.last_distances.append(stash.row(-1)[2])
        return values

    logits = _forward(model, ids, attn, hidden=trace.hidden)
    return logits, trace


def loss_and_grads(model: ToyModel, tokens, mode: str = "lambda"):
    """Mean next-token NLL over all positions of a batch (batch, seq_len) or
    a single sequence (seq_len,), plus parameter gradients.

    The forward runs over the input rows ids[..., :-1] only; ids[..., 1:]
    are their targets. A batch runs as micro-batches of whole sequences,
    about MICRO_BATCH_ROWS (128) input rows each, so that one chunk's
    activations stay in a core's L2 cache (a default chunk's MLP arrays are
    512 KB each); the gradients of the chunks add up in place. A single
    sequence, or a batch of at most MICRO_BATCH_ROWS rows, is one chunk.
    """
    ids = _check_ids(tokens, model.config.vocab_size)
    if ids.shape[-1] < 2:
        raise ValueError("need at least 2 tokens to form a prediction target")
    att_config = model.config.attention_for(mode)
    n_pred = ids[..., 1:].size
    per_chunk = max(1, MICRO_BATCH_ROWS // (ids.shape[-1] - 1))
    chunks = [(0, ids)] if ids.ndim == 1 else [
        (s, ids[s : s + per_chunk]) for s in range(0, ids.shape[0], per_chunk)
    ]
    grads = {}
    nll = 0.0
    for s, chunk in chunks:
        nll += _chunk_nll_and_grads(model, chunk, att_config, n_pred, grads, s)
    return float(nll / n_pred), grads


def _chunk_nll_and_grads(model, ids, att_config, n_pred, grads, batch):
    """Summed NLL of one chunk, whose first sequence is sequence ``batch``
    of the caller's batch; adds its share of the gradient of the mean over
    ``n_pred`` predictions into ``grads``."""
    cfg = model.config
    p = model.params
    inputs, targets = ids[..., :-1], ids[..., 1:]
    att_stashes = []

    def add(name, g):
        if name in grads:
            grads[name] += g
        else:
            grads[name] = g

    def attn(i, q, k, v):
        a, att_stash = attend(q, k, v, att_config)
        att_stashes.append(att_stash)
        return a

    stash = []
    logits = _forward(model, inputs, attn, stash=stash, batch=batch)
    *layers, (hf, lnf) = stash
    z = logits - logits.max(axis=-1, keepdims=True)
    dlogits = np.exp(z)
    total = dlogits.sum(axis=-1, keepdims=True)
    picked = np.take_along_axis(z, targets[..., None], axis=-1) - np.log(total)

    # dNLL/dlogits = (softmax - onehot) / n_pred.
    dlogits /= total
    flat = dlogits.reshape(-1, cfg.vocab_size)
    flat[np.arange(flat.shape[0]), targets.reshape(-1)] -= 1.0
    dlogits /= n_pred

    axes = tuple(range(hf.ndim - 1))
    add("head", np.tensordot(hf, dlogits, axes=(axes, axes)))
    dhf = dlogits @ p["head"].T
    dx, dg, db = _layer_norm_backward(dhf, lnf)
    add("ln_f/gamma", dg)
    add("ln_f/beta", db)

    for i in reversed(range(cfg.n_layers)):
        pre = f"layer{i}"
        st = layers[i]
        # MLP branch
        dmlp = dx
        add(f"{pre}/mlp/b2", dmlp.sum(axis=axes))
        add(f"{pre}/mlp/w2", np.tensordot(st["g"], dmlp, axes=(axes, axes)))
        dgelu = dmlp @ p[f"{pre}/mlp/w2"].T
        du = _gelu_grad(st["u"], st["cdf"], dgelu)
        add(f"{pre}/mlp/b1", du.sum(axis=axes))
        add(f"{pre}/mlp/w1", np.tensordot(st["h2"], du, axes=(axes, axes)))
        dh2 = du @ p[f"{pre}/mlp/w1"].T
        dx_mid, dg2, db2 = _layer_norm_backward(dh2, st["ln2"])
        add(f"{pre}/ln2/gamma", dg2)
        add(f"{pre}/ln2/beta", db2)
        dx_mid = dx_mid + dx
        # Attention branch
        dattn_proj = dx_mid
        add(f"{pre}/attn/wo", np.tensordot(st["a"], dattn_proj, axes=(axes, axes)))
        da = dattn_proj @ p[f"{pre}/attn/wo"].T
        h = st["h"]
        dq, dk, dv = attend_backward(
            att_stashes[i], da.reshape(h.shape[:-1] + (cfg.n_heads, cfg.head_dim))
        )
        dh = 0.0
        for name, d in (("wq", dq), ("wk", dk), ("wv", dv)):
            d = d.reshape(h.shape)
            dh = dh + d @ p[f"{pre}/attn/{name}"].T
            add(f"{pre}/attn/{name}", np.tensordot(h, d, axes=(axes, axes)))
        dx_in, dg1, db1 = _layer_norm_backward(dh, st["ln1"])
        add(f"{pre}/ln1/gamma", dg1)
        add(f"{pre}/ln1/beta", db1)
        dx = dx_mid + dx_in

    embedding = grads.setdefault("embedding", np.zeros_like(p["embedding"]))
    np.add.at(embedding, inputs.reshape(-1), dx.reshape(-1, cfg.d_model))
    return -picked.sum()


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    """The trained model and per-step telemetry, one float per step each."""

    model: ToyModel
    loss_trace: list  # mean next-token NLL of the step's batch
    step_seconds: list  # wall time: batch sampling, loss and grads, Adam update
    grad_norm: list  # L2 norm of the gradient over all parameters
    update_norm: list  # L2 norm of the parameter change Adam made


def train(
    model: ToyModel,
    corpus,
    steps: int,
    lr: float = 1e-3,
    batch_shape: tuple = (16, None),
    seed: int | None = None,
) -> TrainResult:
    """Adam on mean next-token NLL over windows sampled from the corpus.

    Windows are train_len+1 tokens (inputs plus shifted targets); sequences
    too short to provide one are ignored. Training always runs
    vanilla_causal attention. That equals lambda attention only when
    train_len <= min(n_local, l_pretrain); longer windows train on the
    dense causal mask at raw distances.

    The model is updated in place and also returned inside TrainResult.
    """
    cfg = model.config
    batch, seq_len = batch_shape
    if seq_len is None:
        seq_len = cfg.train_len
    seq_len = min(seq_len, cfg.train_len)  # truncation to the training limit
    if batch < 1 or seq_len < 2:
        raise ValueError(f"bad batch_shape {batch_shape}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not (lr > 0 and math.isfinite(lr)):
        raise ValueError(f"lr must be positive and finite, got {lr}")
    eligible = []
    for i, seq in enumerate(corpus):
        if len(seq) >= seq_len + 1:
            try:
                eligible.append(_check_ids(seq, cfg.vocab_size))
            except ValueError as exc:
                raise CorpusFormatError(f"corpus sequence {i}: {exc}") from None
    if steps > 0 and not eligible:
        raise CorpusFormatError(
            f"corpus has no sequence of length >= {seq_len + 1} to train on"
        )
    stream = SplitMix64(derive_stream(cfg.seed if seed is None else seed, "data-order"))

    m_state = {k: np.zeros_like(v) for k, v in model.params.items()}
    v_state = {k: np.zeros_like(v) for k, v in model.params.items()}
    result = TrainResult(model, [], [], [], [])
    for step in range(steps):
        started = time.perf_counter()
        picks = stream.integers(0, len(eligible), batch)
        rows = []
        for s in picks:
            seq = eligible[int(s)]
            hi = len(seq) - (seq_len + 1)
            off = int(stream.integers(0, hi + 1, 1)[0])
            rows.append(seq[off : off + seq_len + 1])
        ids = np.stack(rows)
        try:
            loss, grads = loss_and_grads(model, ids, mode="vanilla_causal")
        except NanDetectedError as exc:
            raise TrainingDivergedError(f"diverged at step {step}: {exc}") from None
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"training loss became {loss} at step {step}")
        t = step + 1
        bc1 = 1.0 - _BETA1**t
        bc2 = 1.0 - _BETA2**t
        grad_sq = update_sq = 0.0
        for name in sorted(model.params):
            g = grads[name]
            m_state[name] = _BETA1 * m_state[name] + (1.0 - _BETA1) * g
            v_state[name] = _BETA2 * v_state[name] + (1.0 - _BETA2) * (g * g)
            update = (m_state[name] / bc1) / (np.sqrt(v_state[name] / bc2) + _ADAM_EPS)
            delta = lr * update
            model.params[name] -= delta
            grad_sq += np.vdot(g, g)
            update_sq += np.vdot(delta, delta)
        result.loss_trace.append(loss)
        result.step_seconds.append(time.perf_counter() - started)
        result.grad_norm.append(math.sqrt(grad_sq))
        result.update_norm.append(math.sqrt(update_sq))
    return result


# ---------------------------------------------------------------------------
# Incremental decoding
# ---------------------------------------------------------------------------


class DecodeSession:
    """Streaming decoding state for one sequence.

    prefill() runs the model's one layer stack (``_forward``) over chunks
    of up to ``attention.BLOCK`` tokens; step() is a one-token prefill, the
    C = 1 case. Only the attention differs from a full forward: the
    session's one KvCache, which holds every layer's keys and values at one
    shared position. The cache is bounded to the pinned prefix plus the
    window in lambda mode, so a lambda prefill runs in memory bounded
    whatever the length; in vanilla mode it grows without bound (the
    quadratic baseline).
    """

    def __init__(self, model: ToyModel, mode: str = "lambda"):
        self.model = model
        self.mode = mode
        self.cache = KvCache(model.config.attention_for(self.mode), model.config.n_layers)

    @property
    def position(self) -> int:
        return self.cache.next_position

    def step(self, token: int) -> np.ndarray:
        """A one-token prefill: consume ``token``, return its logits (vocab,).

        The position moves only once every layer has attended, so a step
        that raised part-way can be retried or followed by another token.
        """
        token = np.asarray(token)
        if token.ndim:
            raise ValueError(f"step takes one token id, got shape {token.shape}")
        return self.prefill(token[None])[0]

    def prefill(self, tokens, rows=None) -> np.ndarray:
        """Consume a token sequence, return its logits (n, vocab): row r
        holds the next-position logits after tokens[r].

        ``rows``, a strictly increasing array of indices into ``tokens``,
        returns only those rows, (len(rows), vocab). The last layer runs its
        queries, attention, MLP, final norm and head only for those rows,
        and not at all for a chunk without one. In lambda mode a row sees
        the pinned prefix and the n_layers * (n_local - 1) tokens before it,
        its reach. Once the ring is full, a chunk outside the reach of every
        returned row and of the next position is skipped (``KvCache.skip``):
        the rows and what later calls read stay bit for bit those of a
        prefill that feeds it. A NaN or +-inf in a fed chunk that could
        reach a dropped row is named as without ``rows`` (see
        ``_forward``); a skipped chunk is never computed, so it cannot raise.

        The tokens go through in chunks of up to ``cache.max_chunk``; a chunk
        that raises leaves the position at its first token, with every
        earlier chunk consumed, so the session stays usable, and the next
        call feeds its first chunk whatever its reach. If the call skipped
        chunks before the raise, the cache goes back to where it first
        skipped and feeds the reach of the failing chunk before the error
        is re-raised, so later calls read what a prefill that feeds every
        chunk leaves; a NaN that this feed meets is raised instead, from
        its own chunk.
        """
        ids = _check_ids(tokens, self.model.config.vocab_size)
        if ids.ndim != 1:
            raise ValueError(f"prefill takes one token sequence, got shape {ids.shape}")
        if rows is not None:
            rows = _check_rows(rows, ids.size)
        size = self.cache.max_chunk
        cfg = self.model.config
        reach = cfg.n_layers * (cfg.n_local - 1)
        ends = None if rows is None else np.append(rows, ids.size)  # and the next position
        logits, skipped = [], None  # (index, cache) where the call first skipped
        for s in range(0, ids.size, size):
            chunk, picked = ids[s : s + size], None
            if rows is not None:
                first = ends[np.searchsorted(ends, s)]  # the first end at s or after
                if first - reach >= s + chunk.size and self.cache.can_skip:
                    if skipped is None:
                        skipped = (s, copy.deepcopy(self.cache))
                    self.cache.skip(chunk.size)
                    continue
                lo, hi = np.searchsorted(rows, (s, s + size))
                picked = rows[lo:hi] - s
            self.cache.begin(chunk.size)
            try:
                logits.append(_forward(self.model, chunk, self.cache.attend,
                                       position=self.position, rows=picked))
            except Exception:
                if skipped is not None:  # feed what the next position reaches
                    q, self.cache = skipped
                    self.prefill(ids[q:s], rows=[s - q - 1])
                raise
            self.cache.advance()
        return logits[0] if len(logits) == 1 else np.concatenate(logits)


def generate(
    model: ToyModel,
    prompt,
    n_new: int,
    mode: str = "lambda",
    cache: DecodeSession | None = None,
) -> np.ndarray:
    """Greedy continuation of ``prompt``; returns the n_new generated ids.

    Decoding always streams through a DecodeSession, built fresh here unless
    ``cache`` passes one in (fresh, in ``mode``); the prompt is prefilled
    step by step. To continue mid-stream, drive a session's step() directly.
    """
    if n_new < 1:
        raise ValueError(f"n_new must be >= 1, got {n_new}")
    ids = _check_ids(prompt, model.config.vocab_size)
    if ids.ndim != 1:
        raise ValueError(f"prompt must be one-dimensional, got shape {ids.shape}")
    if cache is None:
        cache = DecodeSession(model, mode)
    if cache.mode != mode:
        raise CacheStateError(
            f"session mode {cache.mode!r} does not match requested {mode!r}"
        )
    if cache.position != 0:
        raise CacheStateError(
            f"generate() needs a fresh session, got one at position "
            f"{cache.position}; drive a mid-stream session with step() directly"
        )
    logits = None
    for t in ids:
        logits = cache.step(int(t))
    out = []
    for _ in range(n_new):
        nxt = int(np.argmax(logits))
        out.append(nxt)
        logits = cache.step(nxt)
    return np.asarray(out)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_model(model: ToyModel, path) -> None:
    """Checkpoint: magic, u32 version, length-prefixed key=value config
    block with one line per ToyModelConfig field in declaration order, then
    named tensors (u32 name length, name, u32 ndim, u32 dims, little-endian
    f32 data), names sorted."""
    cfg = model.config
    lines = "".join(f"{f.name}={getattr(cfg, f.name)}\n" for f in fields(cfg))
    blob = lines.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in sorted(model.params):
            arr = model.params[name]
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_model(path) -> ToyModel:
    """Read an LMTM checkpoint; any malformed byte, and any NaN or infinite
    tensor value, raises a ValueError that names the path and the byte
    offset. Each config value is converted with its ToyModelConfig field's
    type, the type of the field's default."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ValueError(f"{path}: bad magic {blob[:4]!r}, expected {_MAGIC!r}")
    reader = ByteReader(blob, path, offset=4)
    (version,) = reader.unpack("<I", "version")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    defaults = {f.name: f.default for f in fields(ToyModelConfig)}
    kwargs = {}
    (n,) = reader.unpack("<I", "config length")
    for line in reader.text(n, "config block").splitlines():
        key, _, value = line.partition("=")
        if key not in defaults:
            raise ValueError(f"{path}: unknown config key {key!r}")
        if key in kwargs:
            raise ValueError(f"{path}: repeated config key {key!r}")
        try:
            kwargs[key] = type(defaults[key])(value)
        except ValueError:
            raise ValueError(f"{path}: bad config value {key}={value!r}") from None
    # Checked before the config and its shape table are built from these sizes.
    sizes = {**defaults, **kwargs}
    need = 4 * _param_count(sizes["vocab_size"], sizes["d_model"], sizes["n_layers"])
    if need > len(blob) - reader.offset:
        raise ValueError(
            f"{path}: checkpoint ends at byte {len(blob)}, but its config's "
            f"tensors need {need} bytes of data after byte {reader.offset}"
        )
    try:
        config = ToyModelConfig(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: bad config: {exc}") from None
    params = {}
    expected = _param_shapes(config)
    while not reader.at_end():
        at = reader.offset
        (n,) = reader.unpack("<I", "tensor name length")
        name = reader.text(n, "tensor name")
        if name not in expected or name in params:
            raise ValueError(f"{path}: unexpected tensor {name!r} at byte {at}")
        (ndim,) = reader.unpack("<I", f"tensor {name} rank")
        shape = reader.unpack(f"<{ndim}I", f"tensor {name} shape")
        at = reader.offset
        data = reader.take(4 * math.prod(shape), f"tensor {name} data")
        data = np.frombuffer(data, dtype="<f4")
        finite = np.isfinite(data)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(
                f"{path}: tensor {name} holds non-finite value {data[i]} "
                f"at byte {at + 4 * i}"
            )
        params[name] = data.astype(np.float64).reshape(shape)
    missing = set(expected) - set(params)
    if missing:
        raise ValueError(
            f"{path}: checkpoint ends at byte {reader.offset}, missing tensors "
            f"{sorted(missing)[:3]}..."
        )
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise ValueError(
                f"{path}: tensor {name} has shape {params[name].shape}, "
                f"expected {shape}"
            )
    return ToyModel(config, params)
