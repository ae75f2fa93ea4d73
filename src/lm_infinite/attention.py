"""Multi-head scaled-dot-product attention over the lambda mask.

LM-Infinite is two rules: the Λ mask, under which query i sees the pinned
keys j < G and the window 0 <= i - j < W, and the distance limit, under
which a distance past l_pretrain counts as l_pretrain. ``_geometry`` is the
one place they are worked out: from a chunk's query and key positions it
gives the clamped distances, the mask and, under RoPE, the pinned keys past
the limit. The blocked kernel here calls it once per block and ``KvCache``
once per chunk. ``vanilla_causal`` is G = 0, an unbounded window and no
limit.

The kernel scores query blocks of ``BLOCK`` rows in both modes: block
[s, e) against the pinned keys [0, min(G, e)) and the window band
[max(G, s - W + 1), e). Lambda's work and memory are O(n). A vanilla block
sees every key [0, e), so vanilla is causal attention at raw distances, the
quadratic baseline (and the thing that breaks past the training length).

MaskParams enforces n_local <= l_pretrain, so only pinned keys can be far.
Under RoPE every key scores <R(i) q_i, R(j) k_j> = <R(i-j) q_i, k_j> except
a far pinned key, which scores <R(l_pretrain) q_i, k_j> = <q_i,
R(-l_pretrain) k_j>: the far key is formed once per pinned key and dotted
with the raw query. Alibi subtracts slope * the clamped distance.

``_attend_block`` is the block body of the kernel and the cache: logits with
the far-key swap, the mask, the softmax and the weighted values. It pays
for a scored cell once per pass that must touch it: the queries come scaled
by 1/sqrt(head_dim), so the scores need no scaling; -inf goes only into the
trailing columns that ``_geometry``'s mask can reach (a vanilla block's own
keys); and the row sums divide the weighted values, not the weights.
``attend`` returns the values and a stash of each block's geometry and
weights, normalised in place, which ``attend_backward`` and the diagnostics
readers (entropy(), row(i), last_logits) read. Leading batch axes
broadcast. Everything runs in float64.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from lm_infinite.encoding import (
    AlibiParams,
    RopeParams,
    apply_rotation_f64,
    rope_factor,
)
from lm_infinite.errors import NanDetectedError
from lm_infinite.masking import MaskParams

MODES = ("vanilla_causal", "lambda")
BLOCK = 128  # query rows per block


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


def _entropy_rows(w: np.ndarray) -> np.ndarray:
    logs = np.log(np.where(w > 0.0, w, 1.0))
    return -(w * logs).sum(axis=-1)


def _bad_row(x, axes=-1):
    """Index (leading axes..., row) of the first row of ``x`` that holds a
    NaN or +-inf, a row being the trailing ``axes``; None if all is finite."""
    ok = np.isfinite(x)
    if ok.all():
        return None
    return np.argwhere(~np.atleast_1d(ok.all(axis=axes)))[0]


def _check_nan(q, k, v, first_row=0, first_batch=0):
    """Raise naming the first non-finite row; rows count from ``first_row``
    and sequences of a batch from ``first_batch``."""
    for name, arr in (("q", q), ("k", k), ("v", v)):
        if (where := _bad_row(arr, (-1, -2))) is not None:
            at = f"batch {first_batch + where[0]}, row" if where.size > 1 else "row"
            row = first_row + where[-1]
            raise NanDetectedError(f"NaN in attention input {name} at {at} {row}")


def _window(config: AttentionConfig):
    """(G, W, clamp): the mask's pinned prefix, window and distance limit;
    (0, None, None) for vanilla, an unbounded causal window."""
    if config.mode == "lambda":
        mp = config.mask_params
        return mp.n_global, mp.n_local, mp.l_pretrain
    return 0, None, None


def _geometry(rows, keys, config):
    """(dist, masked, far) of query positions ``rows`` against key
    positions ``keys``, pinned keys (positions < G) first: the float64
    distances, clamped at l_pretrain in lambda mode; the entries outside the
    Λ in the trailing columns from the first one that any row masks (a
    vanilla chunk's own keys), or None for one row, which sees every key it
    is given; and under RoPE the mask of the leading pinned columns past the
    limit, or None."""
    G, W, clamp = _window(config)
    dist = np.subtract(rows[:, None], keys, dtype=np.float64)
    masked = far = None
    if len(rows) > 1:
        masked = dist < 0
        if W is not None:
            masked |= (dist >= W) & (keys >= G)
        masked = masked[:, masked.any(axis=0).argmax() :]
    if clamp is not None:
        if config.is_rope and G and rows[-1] > clamp:
            far = dist[:, : min(G, len(keys))] > clamp
        np.minimum(dist, clamp, out=dist)
    return dist, masked, far


def _far_factor(config: AttentionConfig) -> np.ndarray:
    """R(-l_pretrain) as a rotation factor: it turns a pinned key into its
    far key."""
    return np.conj(rope_factor(config.mask_params.l_pretrain, config.encoding))


def _scale(config: AttentionConfig) -> float:
    """1/sqrt(head_dim), the factor on every query."""
    return 1.0 / math.sqrt(config.head_dim)


def _logits(qn, kn, dist, config, far=None):
    """Logits (..., H, rows, keys) at ``_geometry``'s distances ``dist``.

    ``qn``/``kn`` are head-major (..., H, n, head_dim), rotated to their own
    positions under RoPE and raw under Alibi; the queries are scaled by
    ``_scale``. ``far`` = (qf, kf, is_far) holds the scaled raw queries, the
    pinned rows' far keys and ``_geometry``'s far mask, whose columns take
    <qf, kf>. Under Alibi each head's slope * dist is subtracted here, the
    one place where slopes meet distances; RoPE reads no distances.
    """
    z = qn @ kn.swapaxes(-1, -2)
    if far is not None:
        qf, kf, is_far = far
        g = is_far.shape[-1]
        np.copyto(z[..., :g], qf @ kf[..., :g, :].swapaxes(-1, -2), where=is_far)
    if not config.is_rope:
        if len(dist) == 1:  # one row (a decode step, a trace's last row): one call
            z -= config.encoding.head_slopes() * dist
        else:  # per head, so that no (H, rows, keys) temporary sits next to z
            for h, slope in enumerate(config.encoding.slopes):
                z[..., h, :, :] -= slope * dist
    return z


def _attend_block(qn, kn, vn, dist, masked, config, far=None, out=None):
    """One block of attention, the body shared by the kernel and the cache.

    Scores the scaled query rows ``qn`` against the keys ``kn`` as
    ``_logits`` does, sets the ``masked`` entries of the trailing columns
    (None: none) to -inf and weighs the values ``vn`` by exp(z - row max).
    Returns (values, e, total): the values, divided by the row sums
    ``total`` and written to ``out`` if it is given, and the unnormalised
    weights ``e``, whose softmax is e / total.
    """
    z = _logits(qn, kn, dist, config, far)
    if masked is not None:
        np.copyto(z[..., -masked.shape[-1] :], -np.inf, where=masked)
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    total = np.add.reduce(z, axis=-1, keepdims=True)
    out = np.matmul(z, vn, out=out)
    out /= total
    return out, z, total


# Query rows [s, e) against keys js, pinned [0, g) then band [lo, e): the
# weights w (..., n_heads, rows, keys) and _geometry's dist, masked and far.
_Block = namedtuple("_Block", "s e g lo js w dist masked far")


def _seen(b: _Block, r: int):
    """The key columns that row r of block b attends to."""
    if b.masked is None:
        return slice(None)
    seen = np.ones(len(b.js), dtype=bool)
    seen[len(b.js) - b.masked.shape[-1] :] = ~b.masked[r]
    return seen


@dataclass
class _Stash:
    config: AttentionConfig
    blocks: list  # of _Block
    qn: np.ndarray  # head-major queries, scaled, rotated to their positions under RoPE
    kn: np.ndarray  # head-major keys, rotated to their positions under RoPE
    vh: np.ndarray
    rope: np.ndarray | None = None  # rotation factor per position
    qf: np.ndarray | None = None  # scaled raw queries, scored against far keys
    kf: np.ndarray | None = None  # far keys of the pinned rows

    def entropy(self) -> np.ndarray:
        """Row entropies (nats), shape (..., n_heads, seq_len)."""
        return np.concatenate([_entropy_rows(b.w) for b in self.blocks], -1)

    def row(self, i: int):
        """Query row i's attended keys: (key indices (n,), weights
        (..., n_heads, n), float64 distances (n,), clamped in lambda mode)."""
        i = range(self.qn.shape[-2])[i]
        b = next(b for b in self.blocks if b.s <= i < b.e)
        cols = _seen(b, i - b.s)
        return b.js[cols], b.w[..., i - b.s, cols], b.dist[i - b.s, cols]

    @property
    def last_logits(self) -> np.ndarray:
        """The last row's masked logits (..., n_heads, n), in row(-1)'s key
        order; recomputed for that one row, since the blocks keep weights."""
        b = self.blocks[-1]
        far = None if b.far is None else (self.qf[..., -1:, :], self.kf, b.far[-1:])
        q = self.qn[..., -1:, :]
        z = _logits(q, self.kn[..., b.js, :], b.dist[-1:], self.config, far)
        return z[..., 0, _seen(b, -1)]


def _forward(q, k, v, config):
    """Blocked forward over (..., seq_len, n_heads, head_dim) inputs.
    Returns head-major values and the stash."""
    seq_len = q.shape[-3]
    G, W, _ = _window(config)
    qn = np.ascontiguousarray(np.swapaxes(q, -3, -2)) * _scale(config)
    kn = np.ascontiguousarray(np.swapaxes(k, -3, -2))
    vh = np.ascontiguousarray(np.swapaxes(v, -3, -2))
    stash = _Stash(config, [], qn, kn, vh)
    if config.is_rope:
        stash.rope = rope_factor(np.arange(seq_len), config.encoding)
        stash.qn = apply_rotation_f64(qn, stash.rope)
        stash.kn = apply_rotation_f64(kn, stash.rope)

    out = np.empty_like(qn)
    for s in range(0, seq_len, BLOCK):
        e = min(s + BLOCK, seq_len)
        g, lo = min(G, e), (G if W is None else min(max(G, s - W + 1), e))
        js = np.concatenate([np.arange(g), np.arange(lo, e)])
        dist, masked, far = _geometry(np.arange(s, e), js, config)
        if far is not None and stash.kf is None:  # the first block past the limit
            stash.qf = qn
            stash.kf = apply_rotation_f64(kn[..., :G, :], _far_factor(config))
        _, w, total = _attend_block(
            stash.qn[..., s:e, :], stash.kn[..., js, :], vh[..., js, :], dist, masked,
            config, None if far is None else (qn[..., s:e, :], stash.kf, far),
            out=out[..., s:e, :],
        )
        w /= total
        stash.blocks.append(_Block(s, e, g, lo, js, w, dist, masked, far))
    return out, stash


def _backward(stash: _Stash, d_out):
    config = stash.config
    scale = _scale(config)
    qn, kn, vh = stash.qn, stash.kn, stash.vh
    d_out = np.ascontiguousarray(np.swapaxes(d_out, -3, -2))
    dqn = np.empty_like(qn)
    dkn = np.zeros_like(kn)
    dv = np.zeros_like(vh)
    if stash.kf is not None:
        dqf = np.zeros_like(qn)
        dkf = np.zeros_like(stash.kf)

    for s, e, g, lo, js, w, _, _, far in stash.blocks:
        do = d_out[..., s:e, :]
        dvb = np.swapaxes(w, -1, -2) @ do
        dv[..., :g, :] += dvb[..., :g, :]
        dv[..., lo:e, :] += dvb[..., g:, :]
        dw = do @ np.swapaxes(vh[..., js, :], -1, -2)
        dw -= np.sum(dw * w, axis=-1, keepdims=True)
        dz = np.multiply(dw, w, out=dw)
        if far is not None:
            dzf = np.where(far, dz[..., :g], 0.0)
            dz[..., :g] = np.where(far, 0.0, dz[..., :g])
            dqf[..., s:e, :] = (dzf @ stash.kf[..., :g, :]) * scale
            dkf[..., :g, :] += np.swapaxes(dzf, -1, -2) @ stash.qf[..., s:e, :]
        dqn[..., s:e, :] = (dz @ kn[..., js, :]) * scale
        dkb = np.swapaxes(dz, -1, -2) @ qn[..., s:e, :]
        dkn[..., :g, :] += dkb[..., :g, :]
        dkn[..., lo:e, :] += dkb[..., g:, :]

    dq, dk = dqn, dkn
    if config.is_rope:
        inverse = np.conj(stash.rope)
        dq = apply_rotation_f64(dqn, inverse)
        dk = apply_rotation_f64(dkn, inverse)
        if stash.kf is not None:
            dq += dqf
            dk[..., : dkf.shape[-2], :] += apply_rotation_f64(
                dkf, np.conj(_far_factor(config))
            )
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


def attend(q_seq, k_seq, v_seq, config: AttentionConfig):
    """Full-sequence attention over (..., seq_len, n_heads, head_dim) inputs.

    Returns (values, stash): values shaped like q, and the stash that
    attend_backward needs. The stash also answers diagnostics: entropy(),
    row(i) and last_logits.
    """
    q, k, v = _validate_qkv(q_seq, k_seq, v_seq, config)
    out, stash = _forward(q, k, v, config)
    return np.swapaxes(out, -3, -2), stash


def attend_backward(stash, d_values):
    """Gradients of attend w.r.t. (q, k, v)."""
    return _backward(stash, np.asarray(d_values, dtype=np.float64))
