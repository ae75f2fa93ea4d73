"""Key/value cache of every layer for one decode stream, and its decode step.

A cache is built from one AttentionConfig and the layer count and follows
the config's mode; every layer puts a position in the same slot. In lambda
mode position p goes to slot p if p < n_global, else to slot n_global +
(p - n_global) % n_local, overwriting the entry n_local steps older: the
pinned prefix stays and memory never exceeds n_global + n_local entries per
layer however long the stream runs. In vanilla mode position p goes to slot
p, nothing is evicted and the arrays double when full.

Occupied slots are always [0, len(cache)), pinned entries first, so
``keys``, ``values`` and ``positions`` are plain array views; the window
part is in ring order. A step is ``begin()`` (slot, distances and RoPE
cos/sin for all layers), ``attend(layer, q, k, v)`` for each layer (store
the token, then score the stored entries, the mask row of its position,
with the blocked kernel's code), then ``advance()``. A failed step is
redone in the same slot of every layer; the entry a lambda write replaced,
n_local positions older, is outside the window from then on.

Under RoPE in lambda mode a far pinned key scores at the distance limit:
<R(l_pretrain) q, k> = <q, R(-l_pretrain) k>. The cache stores that far key
once, when its pinned token is stored, in row j < len(cache) of a (n_layers,
n_global, n_heads, head_dim) array for pinned slot j, so a step costs one
cos/sin of its own position and no other trig.
"""

from __future__ import annotations

import numpy as np

from lm_infinite.attention import AttentionConfig, _check_nan, _logits, _softmax
from lm_infinite.encoding import apply_rotation_f64, rope_cos_sin
from lm_infinite.errors import CacheStateError

_MIN_CAPACITY = 16  # first allocation of a growing (vanilla) cache


class KvCache:
    """Pinned prefix + ring window (lambda), or a growing array (vanilla)."""

    def __init__(self, config: AttentionConfig, n_layers: int):
        self.config = config
        self.next_position = 0
        self._len = 0
        # Vanilla mode has no pinned keys, no window bound and no clamp.
        mp = config.mask_params
        bounded = config.mode == "lambda"
        self._n_global = mp.n_global if bounded else 0
        self._n_local = mp.n_local if bounded else None
        self._clamp = mp.l_pretrain if bounded else None
        capacity = self._n_global + self._n_local if bounded else _MIN_CAPACITY
        self._entry = (config.n_heads, config.head_dim)
        self._k = np.empty((n_layers, capacity) + self._entry)
        self._v = np.empty((n_layers, capacity) + self._entry)
        self._pos = np.empty(capacity, dtype=np.int64)
        self._slot = None  # set by begin(), cleared by advance()
        self._far_cos_sin = None
        if config.is_rope and self._n_global:
            self._far_cos_sin = rope_cos_sin(self._clamp, config.encoding)
            self._kf = np.full((n_layers, self._n_global) + self._entry, np.nan)

    def __len__(self) -> int:
        return self._len

    @property
    def keys(self) -> np.ndarray:
        return self._k[:, : self._len]

    @property
    def values(self) -> np.ndarray:
        return self._v[:, : self._len]

    @property
    def positions(self) -> np.ndarray:
        return self._pos[: self._len]

    def begin(self) -> None:
        """Start (or restart) the step at next_position, for every layer."""
        pos = self.next_position
        G = self._n_global
        slot = pos if self._n_local is None or pos < G else G + (pos - G) % self._n_local
        if slot == len(self._pos):  # a full vanilla cache: double it, copying once
            k = np.empty((self._k.shape[0], 2 * slot) + self._entry)
            v = np.empty_like(k)
            p = np.empty(2 * slot, dtype=np.int64)
            k[:, :slot], v[:, :slot], p[:slot] = self._k, self._v, self._pos
            self._k, self._v, self._pos = k, v, p
        self._pos[slot] = pos
        self._len = max(self._len, slot + 1)
        self._slot = slot
        # f64, so that each Alibi head scales it without an int cast.
        self._dist = np.subtract(pos, self.positions, dtype=np.float64)[None, :]
        config = self.config
        self._cos_sin = rope_cos_sin(pos, config.encoding) if config.is_rope else None

    def attend(self, layer: int, q, k, v) -> np.ndarray:
        """Layer ``layer``'s part of the step begun by begin(): store the
        token (a RoPE key rotated to its own position), then attend. q, k, v
        and the result hold n_heads * head_dim values each; the result
        matches the corresponding attend() row to numerical precision."""
        if self._slot is None:
            raise CacheStateError("attend() outside a step: call begin() first")
        q, k, v = (np.asarray(x, dtype=np.float64).reshape(self._entry) for x in (q, k, v))
        position = self.next_position
        _check_nan(q[None], k[None], v[None], position)
        q = q[:, None, :]  # (n_heads, 1, head_dim): one query row
        qn, kn, far = q, k, None
        if self._cos_sin is not None:
            cos, sin = self._cos_sin
            qn = apply_rotation_f64(q, cos, sin)
            kn = apply_rotation_f64(k, cos, sin)
        self._k[layer, self._slot] = kn
        self._v[layer, self._slot] = v
        if self._far_cos_sin is not None:
            if position < self._n_global:
                cos, sin = self._far_cos_sin
                self._kf[layer, position] = apply_rotation_f64(k, cos, -sin)
            if position > self._clamp:
                far = (q, np.swapaxes(self._kf[layer, : self._len], 0, 1))
        keys = np.swapaxes(self.keys[layer], 0, 1)
        z = _logits(qn, keys, self._dist, self.config, self._clamp, far)
        return (_softmax(z) @ np.swapaxes(self.values[layer], 0, 1)).reshape(-1)

    def advance(self) -> None:
        """End the step: every layer has stored its token at next_position."""
        self.next_position += 1
        self._slot = None
