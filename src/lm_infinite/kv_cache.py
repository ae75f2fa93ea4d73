"""Key/value cache of every layer for one decode stream: prefill chunks and
decode steps through the blocked kernel's block body.

A cache is built from one AttentionConfig and the layer count and follows
the config's mode. It takes a chunk of C consecutive positions at a time,
1 <= C <= ``max_chunk`` (``attention.BLOCK`` when the cache is built); a
decode step is C = 1. Every layer puts a position in the same slot, and
keys and values are stored head-major, (n_layers, n_heads, slots,
head_dim), so a layer's keys are one slice per head.

In lambda mode position p is kept in slot p if p < n_global, else in slot
n_global + (p - n_global) % n_local, overwriting the entry n_local
positions older: the pinned prefix stays, and at most n_global + n_local
entries are kept per layer however long the stream runs. A chunk's first
row still needs the n_local - 1 keys before it, so while a chunk is scored
only its first position is in its ring slot; the other C - 1 sit in scratch
slots after the ring and move to their ring slots when the chunk ends. The
arrays hold n_global + n_local + max_chunk - 1 slots, allocated once. In
vanilla mode position p goes to slot p, nothing is evicted and the arrays
double when full.

Kept slots are always [0, len(cache)), pinned entries first, so ``keys``,
``values`` (slot-major views, (n_layers, len, n_heads, head_dim)) and
``positions`` are plain array views; the window part is in ring order. A
chunk is ``begin(C)`` (slots, distances, mask and RoPE cos/sin for all
layers), ``attend(layer, q, k, v)`` for each layer (store the chunk, then
score its rows against every slot in use with ``attention._attend_block``),
then ``advance()``. A failed chunk is redone from the same position; the
entry its first write replaced, n_local positions older, is outside the
window from then on.

Under RoPE in lambda mode a far pinned key scores at the distance limit:
<R(l_pretrain) q, k> = <q, R(-l_pretrain) k>. The cache stores that far key
once, when its pinned token is stored, in row j < len(cache) of a (n_layers,
n_heads, n_global, head_dim) array for pinned slot j, so a chunk costs one
cos/sin table of its own positions and no other trig.
"""

from __future__ import annotations

import numpy as np

from lm_infinite import attention
from lm_infinite.attention import AttentionConfig, _attend_block, _check_nan, _window
from lm_infinite.encoding import apply_rotation_f64, rope_cos_sin
from lm_infinite.errors import CacheStateError

_MIN_CAPACITY = 16  # first allocation of a growing (vanilla) cache


class KvCache:
    """Pinned prefix + ring window (lambda), or a growing array (vanilla)."""

    def __init__(self, config: AttentionConfig, n_layers: int):
        self.config = config
        self.next_position = 0
        self.max_chunk = attention.BLOCK  # the kernel's block size when built
        self._len = 0
        # The kernel's window: vanilla has no pinned keys, bound or clamp.
        self._n_global, self._n_local, self._clamp = _window(config, None)
        if self._n_local is None:
            capacity = _MIN_CAPACITY
        else:
            capacity = self._n_global + self._n_local + self.max_chunk - 1
        self._entry = (config.n_heads, config.head_dim)
        self._k = np.empty((n_layers, config.n_heads, capacity, config.head_dim))
        self._v = np.empty_like(self._k)
        self._pos = np.empty(capacity, dtype=np.int64)
        self._chunk = None  # (first slot, scratch start, end), set by begin()
        self._far_cos_sin = None
        if config.is_rope and self._n_global:
            self._far_cos_sin = rope_cos_sin(self._clamp, config.encoding)
            self._kf = np.full(
                (n_layers, config.n_heads, self._n_global, config.head_dim), np.nan
            )

    def __len__(self) -> int:
        return self._len

    @property
    def keys(self) -> np.ndarray:
        return self._k[:, :, : self._len].swapaxes(1, 2)

    @property
    def values(self) -> np.ndarray:
        return self._v[:, :, : self._len].swapaxes(1, 2)

    @property
    def positions(self) -> np.ndarray:
        return self._pos[: self._len]

    def begin(self, n: int = 1) -> None:
        """Start (or restart) the chunk of positions next_position ..
        next_position + n - 1, for every layer."""
        if not 1 <= n <= self.max_chunk:
            raise ValueError(f"a chunk holds 1 to {self.max_chunk} positions, got {n}")
        p = self.next_position
        G, W = self._n_global, self._n_local
        first = p if W is None or p < G else G + (p - G) % W
        scratch = max(self._len, first + 1)
        end = scratch + n - 1
        if end > len(self._pos):  # a full vanilla cache: grow it, copying once
            old = len(self._pos)
            n_layers, n_heads, _, head_dim = self._k.shape
            k = np.empty((n_layers, n_heads, max(2 * old, end), head_dim))
            v = np.empty_like(k)
            pos = np.empty(k.shape[2], dtype=np.int64)
            k[:, :, :old], v[:, :, :old], pos[:old] = self._k, self._v, self._pos
            self._k, self._v, self._pos = k, v, pos
        self._pos[first] = p
        self._pos[scratch:end] = np.arange(p + 1, p + n)
        self._chunk = (first, scratch, end)
        rows = np.arange(p, p + n)
        # f64, so that each Alibi head scales it without an int cast.
        self._dist = np.subtract(rows[:, None], self._pos[:end], dtype=np.float64)
        self._masked = None  # a single row sees every slot in use
        if n > 1:
            self._masked = self._dist < 0
            if W is not None:
                self._masked |= (self._dist >= W) & (self._pos[:end] >= G)
        self._cos_sin = None
        if self.config.is_rope:
            cos, sin = rope_cos_sin(rows, self.config.encoding)
            self._cos_sin = cos[:, None], sin[:, None]  # broadcast over heads

    def attend(self, layer: int, q, k, v) -> np.ndarray:
        """Layer ``layer``'s part of the chunk begun by begin(): store its
        keys (a RoPE key rotated to its own position) and values, then
        attend. q, k and v and the result hold C * n_heads * head_dim values
        each, the result flat; it matches the corresponding attend() rows to
        numerical precision."""
        if self._chunk is None:
            raise CacheStateError("attend() outside a step: call begin() first")
        first, scratch, end = self._chunk
        rows = (end - scratch + 1,) + self._entry
        q, k, v = (np.asarray(x, dtype=np.float64).reshape(rows) for x in (q, k, v))
        position = self.next_position
        _check_nan(q, k, v, position)
        qn, kn = q, k
        if self._cos_sin is not None:
            qn = apply_rotation_f64(q, *self._cos_sin)
            kn = apply_rotation_f64(k, *self._cos_sin)
        keys, values = self._k[layer], self._v[layer]
        keys[:, first], values[:, first] = kn[0], v[0]
        keys[:, scratch:end] = kn[1:].swapaxes(0, 1)
        values[:, scratch:end] = v[1:].swapaxes(0, 1)
        far = None
        if self._far_cos_sin is not None:
            pinned = min(self._n_global - position, len(k))  # chunk rows < n_global
            if pinned > 0:
                cos, sin = self._far_cos_sin
                kf = apply_rotation_f64(k[:pinned], cos, -sin)
                self._kf[layer, :, position : position + pinned] = kf.swapaxes(0, 1)
            if position + len(k) - 1 > self._clamp:
                far = (q.swapaxes(0, 1), self._kf[layer, :, : min(self._n_global, end)])
        out, _ = _attend_block(
            qn.swapaxes(0, 1), keys[:, :end], values[:, :end], self._dist,
            self._masked, self.config, self._clamp, far,
        )
        return out.swapaxes(0, 1).reshape(-1)

    def advance(self) -> None:
        """End the chunk: every layer has stored it at next_position on. In
        lambda mode its scratch entries move to their ring slots."""
        first, scratch, end = self._chunk
        G, W = self._n_global, self._n_local
        n = end - scratch + 1
        if W is not None and end > G + W:
            src = np.arange(max(scratch, G + W), end)[-W:]
            dst = G + (self._pos[src] - G) % W
            self._k[:, :, dst] = self._k[:, :, src]
            self._v[:, :, dst] = self._v[:, :, src]
            self._pos[dst] = self._pos[src]
            end = G + W
        self._len = max(self._len, end)
        self.next_position += n
        self._chunk = None
