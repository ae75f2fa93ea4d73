"""Multi-head scaled-dot-product attention over the lambda mask.

One blocked kernel serves both modes. Queries go in blocks of rows, and
block [s, e) scores two disjoint key sets:

* the pinned keys [0, min(G, e)), masked to j <= i;
* the window band [max(G, s - W + 1), e), masked to 0 <= i - j < W.

``lambda`` mode takes G = n_global and W = n_local, clamps distances at
l_pretrain and runs blocks of ``BLOCK`` rows, so its work and memory are
O(n). ``vanilla_causal`` is the same kernel with G = 0, W = seq_len, no
clamp and a single block of seq_len rows: dense causal attention at raw
distances, the quadratic baseline (and the thing that breaks past the
training length). Acceptance criterion 7 pins this baseline's cost, at
least 8x the encode time for 4x the length; a blocked vanilla does about
half the work and falls short of that at the criterion's probe lengths.

MaskParams enforces n_local <= l_pretrain, so window distances never reach
the clamp; only pinned keys can be far. Under RoPE every key scores
<R(i) q_i, R(j) k_j> = <R(i-j) q_i, k_j> except a far pinned key, which
scores at effective distance l_pretrain:
<R(l_pretrain) q_i, k_j> = <q_i, R(-l_pretrain) k_j>. The far key
R(-l_pretrain) k_j is formed once per pinned key and dotted with the raw
query, so no query is ever rotated to the clamp. Alibi subtracts
slope * min(i - j, l_pretrain).

``_attend_block`` is the block body: logits with the far-key swap, the
mask, the softmax and the weighted values. The kernel calls it once per
block; ``KvCache.attend`` calls it once per prefill chunk or decode step,
over the cache's keys. ``attend`` returns the values and a stash of each
block's weights; ``attend_backward`` walks the same blocks, and diagnostics
read row entropies, single rows and the last row's logits off the same
stash. Leading batch axes broadcast. Everything runs in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lm_infinite.encoding import (
    AlibiParams,
    RopeParams,
    apply_rotation_f64,
    rope_cos_sin,
)
from lm_infinite.errors import NanDetectedError
from lm_infinite.masking import MaskParams

MODES = ("vanilla_causal", "lambda")
BLOCK = 128  # query rows per lambda block


@dataclass(frozen=True)
class AttentionConfig:
    n_heads: int
    head_dim: int
    mask_params: MaskParams
    encoding: object  # RopeParams | AlibiParams
    mode: str = "lambda"

    def __post_init__(self):
        if self.n_heads < 1:
            raise ValueError(f"n_heads must be >= 1, got {self.n_heads}")
        if self.head_dim < 2 or self.head_dim % 2 != 0:
            raise ValueError(f"head_dim must be even and >= 2, got {self.head_dim}")
        if not isinstance(self.mask_params, MaskParams):
            raise ValueError("mask_params must be a MaskParams")
        if isinstance(self.encoding, RopeParams):
            if self.encoding.head_dim != self.head_dim:
                raise ValueError(
                    f"encoding head_dim {self.encoding.head_dim} != {self.head_dim}"
                )
        elif isinstance(self.encoding, AlibiParams):
            if len(self.encoding.slopes) != self.n_heads:
                raise ValueError(
                    f"need one slope per head: {len(self.encoding.slopes)} slopes "
                    f"for {self.n_heads} heads"
                )
        else:
            raise ValueError("encoding must be RopeParams or AlibiParams")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    @property
    def is_rope(self) -> bool:
        return isinstance(self.encoding, RopeParams)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row softmax, in place; masked entries are -inf and get weight 0."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _entropy_rows(w: np.ndarray) -> np.ndarray:
    logs = np.log(np.where(w > 0.0, w, 1.0))
    return -(w * logs).sum(axis=-1)


def _check_nan(q, k, v, first_row=0):
    """Raise naming the first NaN row; rows are numbered from ``first_row``."""
    for name, arr in (("q", q), ("k", k), ("v", v)):
        bad = np.isnan(arr)
        if bad.any():
            rows = bad.any(axis=(-1, -2))
            where = np.argwhere(rows)[0]
            row = first_row + where[-1]
            if where.size == 1:
                raise NanDetectedError(f"NaN in attention input {name} at row {row}")
            raise NanDetectedError(
                f"NaN in attention input {name} at batch {where[0]}, row {row}"
            )


def _window(config: AttentionConfig, seq_len: int | None):
    """(G, W, clamp) of the kernel: the mask branches, or a causal vanilla."""
    if config.mode == "lambda":
        mp = config.mask_params
        return mp.n_global, mp.n_local, mp.l_pretrain
    return 0, seq_len, None


def _logits(qn, kn, dist, config, clamp, far=None):
    """Scaled logits (..., H, rows, keys) at query-key distances ``dist``.

    ``qn``/``kn`` are head-major (..., H, n, head_dim), rotated to their own
    positions under RoPE and raw under Alibi. ``far`` = (qf, kf) holds the
    raw queries and the far keys R(-clamp) k of the leading pinned columns;
    under RoPE those columns take <qf, kf> wherever dist exceeds the clamp.
    """
    scale = 1.0 / math.sqrt(config.head_dim)
    z = qn @ np.swapaxes(kn, -1, -2)
    z *= scale
    if not config.is_rope:
        # Per head, so that no (H, rows, keys) temporary sits next to z.
        d = dist if clamp is None else np.minimum(dist, clamp)
        for h, slope in enumerate(config.encoding.slopes):
            z[..., h, :, :] -= slope * d
        return z
    if far is not None:
        qf, kf = far
        g = kf.shape[-2]
        zf = (qf @ np.swapaxes(kf, -1, -2)) * scale
        z[..., :g] = np.where(dist[:, :g] > clamp, zf, z[..., :g])
    return z


def _attend_block(qn, kn, vn, dist, masked, config, clamp, far=None, out=None):
    """One block of attention, the body shared by the kernel and the cache.

    Scores the query rows ``qn`` against the keys ``kn`` (both head-major,
    as for ``_logits``) at distances ``dist`` (rows, keys), sets the
    ``masked`` entries (None: none) to -inf, takes the row softmax and
    weighs the values ``vn``. Returns (values, weights); the values are
    written to ``out`` if it is given.
    """
    z = _logits(qn, kn, dist, config, clamp, far)
    if masked is not None:
        np.copyto(z, -np.inf, where=masked)
    w = _softmax(z)
    return np.matmul(w, vn, out=out), w


def _block_keys(s, e, G, W):
    """Key columns of query block [s, e): pinned [0, g) then band [lo, e)."""
    g = min(G, e)
    lo = min(max(G, s - W + 1), e)
    js = np.concatenate([np.arange(g), np.arange(lo, e)])
    dist = np.arange(s, e)[:, None] - js
    allowed = (dist >= 0) & ((dist < W) | (js < G))
    return g, lo, js, dist, allowed


def rope_table(config: AttentionConfig, seq_len: int):
    """(cos, sin) of positions 0 .. seq_len - 1 under RoPE, else None.

    A pass over several layers builds it once and hands it to each layer's
    ``attend``.
    """
    if not config.is_rope:
        return None
    return rope_cos_sin(np.arange(seq_len), config.encoding)


@dataclass
class _Stash:
    config: AttentionConfig
    window: tuple  # (G, W, clamp)
    blocks: list  # per block: (s, e, weights, far)
    qn: np.ndarray  # head-major queries, rotated to their positions under RoPE
    kn: np.ndarray  # head-major keys, rotated to their positions under RoPE
    vh: np.ndarray
    rope: tuple | None = None  # (cos, sin) per position
    qf: np.ndarray | None = None  # raw queries, scored against far keys
    kf: np.ndarray | None = None  # far keys R(-clamp) k of the pinned rows
    rope_clamp: tuple | None = None  # (cos, sin) of the clamp

    def entropy(self) -> np.ndarray:
        """Row entropies (nats), shape (..., n_heads, seq_len)."""
        return np.concatenate([_entropy_rows(w) for _, _, w, _ in self.blocks], -1)

    def row(self, i: int):
        """Query row i's attended keys: (key indices (n,), weights
        (..., n_heads, n), distances (n,)), distances clamped in lambda mode."""
        G, W, clamp = self.window
        i = range(self.qn.shape[-2])[i]
        s, e, w, _ = next(b for b in self.blocks if b[0] <= i < b[1])
        _, _, js, dist, allowed = _block_keys(s, e, G, W)
        cols = allowed[i - s]
        d = dist[i - s, cols]
        return js[cols], w[..., i - s, cols], d if clamp is None else np.minimum(d, clamp)

    @property
    def last_logits(self) -> np.ndarray:
        """The last row's masked logits (..., n_heads, n), in row(-1)'s key
        order; recomputed for that one row, since the blocks keep weights."""
        G, W, clamp = self.window
        s, e, _, far = self.blocks[-1]
        g, _, js, dist, allowed = _block_keys(s, e, G, W)
        far = (self.qf[..., -1:, :], self.kf[..., :g, :]) if far else None
        q = self.qn[..., -1:, :]
        z = _logits(q, self.kn[..., js, :], dist[-1:], self.config, clamp, far)
        return z[..., 0, allowed[-1]]


def _forward(q, k, v, config, rope=None):
    """Blocked forward over (..., seq_len, n_heads, head_dim) inputs.

    ``rope`` is ``rope_table(config, seq_len)``, built here if None.
    Returns head-major values and the stash.
    """
    seq_len = q.shape[-3]
    G, W, clamp = _window(config, seq_len)
    block = BLOCK if config.mode == "lambda" else seq_len
    qn = np.ascontiguousarray(np.swapaxes(q, -3, -2))
    kn = np.ascontiguousarray(np.swapaxes(k, -3, -2))
    vh = np.ascontiguousarray(np.swapaxes(v, -3, -2))
    stash = _Stash(config, (G, W, clamp), [], qn, kn, vh)
    if config.is_rope:
        if G and clamp is not None and seq_len - 1 > clamp:
            stash.rope_clamp = cos_c, sin_c = rope_cos_sin(clamp, config.encoding)
            stash.qf = qn
            stash.kf = apply_rotation_f64(kn[..., :G, :], cos_c, -sin_c)
        stash.rope = rope_table(config, seq_len) if rope is None else rope
        stash.qn = qn = apply_rotation_f64(qn, *stash.rope)
        stash.kn = kn = apply_rotation_f64(kn, *stash.rope)

    out = np.empty_like(qn)
    for s in range(0, seq_len, block):
        e = min(s + block, seq_len)
        g, _, js, dist, allowed = _block_keys(s, e, G, W)
        far = stash.qf is not None and e - 1 > clamp
        _, w = _attend_block(
            qn[..., s:e, :], kn[..., js, :], vh[..., js, :], dist, ~allowed, config,
            clamp, (stash.qf[..., s:e, :], stash.kf[..., :g, :]) if far else None,
            out=out[..., s:e, :],
        )
        stash.blocks.append((s, e, w, far))
    return out, stash


def _backward(stash: _Stash, d_out):
    config = stash.config
    scale = 1.0 / math.sqrt(config.head_dim)
    G, W, clamp = stash.window
    qn, kn, vh = stash.qn, stash.kn, stash.vh
    d_out = np.ascontiguousarray(np.swapaxes(d_out, -3, -2))
    dqn = np.empty_like(qn)
    dkn = np.zeros_like(kn)
    dv = np.zeros_like(vh)
    if stash.qf is not None:
        dqf = np.zeros_like(qn)
        dkf = np.zeros_like(stash.kf)

    for s, e, w, far in stash.blocks:
        g, lo, js, dist, _ = _block_keys(s, e, G, W)
        do = d_out[..., s:e, :]
        dvb = np.swapaxes(w, -1, -2) @ do
        dv[..., :g, :] += dvb[..., :g, :]
        dv[..., lo:e, :] += dvb[..., g:, :]
        dw = do @ np.swapaxes(vh[..., js, :], -1, -2)
        dw -= np.sum(dw * w, axis=-1, keepdims=True)
        dz = np.multiply(dw, w, out=dw)
        if far:
            is_far = dist[:, :g] > clamp
            dzf = np.where(is_far, dz[..., :g], 0.0)
            dz[..., :g] = np.where(is_far, 0.0, dz[..., :g])
            dqf[..., s:e, :] = (dzf @ stash.kf[..., :g, :]) * scale
            dkf[..., :g, :] += (np.swapaxes(dzf, -1, -2) @ stash.qf[..., s:e, :]) * scale
        dqn[..., s:e, :] = (dz @ kn[..., js, :]) * scale
        dkb = (np.swapaxes(dz, -1, -2) @ qn[..., s:e, :]) * scale
        dkn[..., :g, :] += dkb[..., :g, :]
        dkn[..., lo:e, :] += dkb[..., g:, :]

    dq, dk = dqn, dkn
    if config.is_rope:
        cos, sin = stash.rope
        dq = apply_rotation_f64(dqn, cos, -sin)
        dk = apply_rotation_f64(dkn, cos, -sin)
        if stash.qf is not None:
            dq += dqf
            dk[..., :G, :] += apply_rotation_f64(dkf, *stash.rope_clamp)
    return tuple(np.swapaxes(x, -3, -2) for x in (dq, dk, dv))


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def _validate_qkv(q_seq, k_seq, v_seq, config):
    """Inputs as float64 arrays, once shapes and values are checked."""
    q, k, v = (np.asarray(x, dtype=np.float64) for x in (q_seq, k_seq, v_seq))
    if q.shape != k.shape or q.shape != v.shape:
        raise ValueError(f"q/k/v shapes differ: {q.shape}, {k.shape}, {v.shape}")
    if q.ndim < 3:
        raise ValueError(f"expected (..., seq_len, n_heads, head_dim), got shape {q.shape}")
    if q.shape[-2] != config.n_heads or q.shape[-1] != config.head_dim:
        raise ValueError(
            f"trailing dims {q.shape[-2:]} do not match "
            f"(n_heads, head_dim) = ({config.n_heads}, {config.head_dim})"
        )
    if q.shape[-3] < 1:
        raise ValueError("seq_len must be >= 1")
    _check_nan(q, k, v)
    return q, k, v


def attend(q_seq, k_seq, v_seq, config: AttentionConfig, rope=None):
    """Full-sequence attention over (..., seq_len, n_heads, head_dim) inputs.

    ``rope`` is ``rope_table(config, seq_len)``, passed in so that the
    layers of one pass share it; it is built here if None. Returns (values,
    stash): values shaped like q, and the stash that attend_backward needs.
    The stash also answers diagnostics: entropy(), row(i) and last_logits.
    """
    q, k, v = _validate_qkv(q_seq, k_seq, v_seq, config)
    out, stash = _forward(q, k, v, config, rope)
    return np.swapaxes(out, -3, -2), stash


def attend_backward(stash, d_values):
    """Gradients of attend w.r.t. (q, k, v)."""
    return _backward(stash, np.asarray(d_values, dtype=np.float64))
