"""Per-layer key/value cache for one decode stream, and its decode step.

A cache is built from one AttentionConfig and follows its mode. In lambda
mode position p goes to slot p if p < n_global, otherwise to slot n_global
+ (p - n_global) % n_local, overwriting the entry n_local steps older: the
pinned prefix stays forever and memory never exceeds n_global + n_local
entries however long the stream runs. In vanilla mode position p goes to
slot p, nothing is evicted and the arrays double when full.

Occupied slots are always [0, len(cache)), pinned entries first, so
``keys``, ``values`` and ``positions`` are plain array views; the window
part is in ring order, not ascending. ``attend`` pushes a token before it
scores, so the stored entries are exactly the mask row of its position,
and scores them with the blocked kernel's logit and softmax code.

Under RoPE in lambda mode a far pinned key scores at the distance limit:
<R(l_pretrain) q, k> = <q, R(-l_pretrain) k>. The cache stores that far key
once, when its pinned token is pushed, in a (n_global, n_heads, head_dim)
array whose row j is pinned slot j, so a step costs one cos/sin of its own
position and no other trig.
"""

from __future__ import annotations

import numpy as np

from lm_infinite.attention import AttentionConfig, _check_nan, _logits, _softmax
from lm_infinite.encoding import apply_rotation_f64, rope_cos_sin

_MIN_CAPACITY = 16  # first allocation of a growing (vanilla) cache


class KvCache:
    """Pinned prefix + ring window (lambda), or a growing array (vanilla)."""

    def __init__(self, config: AttentionConfig):
        self.config = config
        self.next_position = 0
        self._k = self._v = np.empty(0)
        self._pos = np.empty(0, dtype=np.int64)
        self._len = 0
        # Vanilla mode has no pinned keys, no window bound and no clamp.
        mp = config.mask_params
        bounded = config.mode == "lambda"
        self._n_global = mp.n_global if bounded else 0
        self._n_local = mp.n_local if bounded else None
        self._clamp = mp.l_pretrain if bounded else None
        self._far_cos_sin = None
        if config.is_rope and self._n_global:
            self._far_cos_sin = rope_cos_sin(self._clamp, config.encoding)
            self._kf = np.full((self._n_global, config.n_heads, config.head_dim), np.nan)

    def __len__(self) -> int:
        return self._len

    @property
    def keys(self) -> np.ndarray:
        return self._k[: self._len]

    @property
    def values(self) -> np.ndarray:
        return self._v[: self._len]

    @property
    def positions(self) -> np.ndarray:
        return self._pos[: self._len]

    def push(self, k, v) -> None:
        """Store (k, v) at position next_position and advance the stream."""
        k = np.asarray(k, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if k.shape != v.shape:
            raise ValueError(f"k/v shape mismatch: {k.shape} vs {v.shape}")
        if self._len and k.shape != self._k.shape[1:]:
            raise ValueError(
                f"entry shape {k.shape} does not match cache entries {self._k.shape[1:]}"
            )
        pos = self.next_position
        G = self._n_global
        slot = pos if self._n_local is None or pos < G else G + (pos - G) % self._n_local
        if slot >= len(self._pos):
            self._reserve(k.shape)
        self._k[slot] = k
        self._v[slot] = v
        self._pos[slot] = pos
        self._len = max(self._len, slot + 1)
        self.next_position = pos + 1

    def attend(self, q, k, v) -> np.ndarray:
        """One decode step at next_position: push the token, then attend.

        q, k and v hold (n_heads * head_dim) values each. The token's RoPE
        key is rotated to its own position before it is stored, and the
        result matches the corresponding attend() row to numerical
        precision. Returns the (n_heads * head_dim) attention values.
        """
        config = self.config
        shape = (config.n_heads, config.head_dim)
        q, k, v = (np.asarray(x, dtype=np.float64).reshape(shape) for x in (q, k, v))
        position = self.next_position
        _check_nan(q[None], k[None], v[None], position)

        q = q[:, None, :]  # (n_heads, 1, head_dim): one query row
        qn, kn, far = q, k, None
        if config.is_rope:
            cos, sin = rope_cos_sin(position, config.encoding)
            qn = apply_rotation_f64(q, cos, sin)
            kn = apply_rotation_f64(k, cos, sin)
        self.push(kn, v)
        if self._far_cos_sin is not None:
            if position < self._n_global:
                cos, sin = self._far_cos_sin
                self._kf[position] = apply_rotation_f64(k, cos, -sin)
            if position > self._clamp:
                far = (q, np.swapaxes(self._kf[: self._len], 0, 1))
        dist = (position - self.positions)[None, :]
        z = _logits(qn, np.swapaxes(self.keys, 0, 1), dist, config, self._clamp, far)
        w = _softmax(z)
        return (w @ np.swapaxes(self.values, 0, 1)).reshape(-1)

    def _reserve(self, entry_shape) -> None:
        if self._n_local is None:
            capacity = max(_MIN_CAPACITY, 2 * len(self._pos))
        else:
            capacity = self._n_global + self._n_local
        n = self._len
        k = np.empty((capacity,) + entry_shape)
        v = np.empty((capacity,) + entry_shape)
        pos = np.empty(capacity, dtype=np.int64)
        if n:
            k[:n], v[:n], pos[:n] = self.keys, self.values, self.positions
        self._k, self._v, self._pos = k, v, pos
