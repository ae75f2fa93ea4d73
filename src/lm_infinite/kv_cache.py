"""Array-backed streaming key/value store for one decode stream.

Keys, values and absolute positions live in preallocated arrays of shape
(capacity, *entry_shape). With MaskParams (lambda mode) position p goes to
slot p if p < n_global, otherwise to slot n_global + (p - n_global) %
n_local, overwriting the entry n_local steps older: the pinned prefix stays
forever and memory never exceeds n_global + n_local entries however long
the stream runs. With params None (vanilla mode) position p goes to slot p,
nothing is evicted and the arrays double when full.

Occupied slots are always [0, len(cache)), pinned entries first, so
``keys``, ``values`` and ``positions`` are plain array views; the window
part is in ring order, not ascending. attend_single pushes a token before
it attends, so after a push at position p the stored entries are exactly
the mask row of p.

A lambda cache also holds ``far_keys``, one (n_global, *entry_shape) array
beside the pinned slots. Under RoPE attend_single writes R(-l_pretrain) k
there when it pushes a pinned token, so a query past the clamp scores that
key as <q, far key> with no per-step rotation; Alibi leaves it unused. Rows
start as NaN, so a pinned key pushed without its far key cannot be scored
silently.
"""

from __future__ import annotations

import numpy as np

from lm_infinite.masking import MaskParams

_MIN_CAPACITY = 16  # first allocation of a growing (vanilla) cache


class KvCache:
    """Pinned prefix + ring window (lambda), or a growing array (vanilla)."""

    def __init__(self, params: MaskParams | None):
        self.params = params
        self.next_position = 0
        self._k = self._v = self._kf = np.empty(0)
        self._pos = np.empty(0, dtype=np.int64)
        self._len = 0

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

    @property
    def far_keys(self) -> np.ndarray:
        """Far keys of the pinned entries stored so far; row p is position p."""
        return self._kf[: self._len]

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
        params = self.params
        if params is None or pos < params.n_global:
            slot = pos
        else:
            slot = params.n_global + (pos - params.n_global) % params.n_local
        if slot >= len(self._pos):
            self._reserve(k.shape)
        self._k[slot] = k
        self._v[slot] = v
        self._pos[slot] = pos
        self._len = max(self._len, slot + 1)
        self.next_position = pos + 1

    def _reserve(self, entry_shape) -> None:
        if self.params is None:
            capacity = max(_MIN_CAPACITY, 2 * len(self._pos))
        else:
            capacity = self.params.n_global + self.params.n_local
            self._kf = np.full((self.params.n_global,) + entry_shape, np.nan)
        n = self._len
        k = np.empty((capacity,) + entry_shape)
        v = np.empty((capacity,) + entry_shape)
        pos = np.empty(capacity, dtype=np.int64)
        if n:
            k[:n], v[:n], pos[:n] = self.keys, self.values, self.positions
        self._k, self._v, self._pos = k, v, pos
