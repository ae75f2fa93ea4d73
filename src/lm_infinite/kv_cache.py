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
slots after the ring and move to their ring slots when the chunk ends. In
vanilla mode (no pinned prefix, an unbounded window) position p goes to
slot p and nothing is evicted. In both modes the arrays start small and
double when a chunk needs more slots; a lambda cache stops at n_global +
n_local + max_chunk - 1, so its memory follows the stream, not the
config's window sizes.

Kept slots are always [0, len(cache)), pinned entries first, so ``keys``,
``values`` (slot-major views, (n_layers, len, n_heads, head_dim)) and
``positions`` are plain array views; the window part is in ring order. A
chunk is ``begin(C)``, which places it in slots, takes its distances, mask
and far-key mask from ``attention._geometry`` over the positions of the
slots in use and builds its RoPE rotation factor, once for all layers;
then ``attend(layer, q, k, v, rows)`` for each layer, which stores the
chunk with one write per array and scores the chunk rows ``rows`` (all of
them by default) with ``attention._attend_block``; then ``advance()``.
Once a lambda ring is full, ``skip(C)`` moves past C positions and stores
nothing: their slots keep entries at least n_local older than any later
row, which the mask gives weight 0, so a row that no skipped position can
reach through the layers is exact. The cache holds only what it is fed,
and that holds per layer: a chunk whose attend() calls stop after layer j
stores nothing in the deeper layers, and advance() moves only the layers
it stored into the ring, so the deeper ring slots keep their older, finite
entries (scratch slots it did not write may hold anything, even a NaN left
by a chunk that raised, and a masked weight of 0 times a NaN is NaN). Only
a row that reads none of those slots, which is what
``DecodeSession.prefill`` works out, is exact.

``attend`` does not check its inputs: the model checks a chunk's logits
once and, if they hold a NaN or an inf, replays the chunk with a scan after
each stage to name where it started. So a failed chunk can leave non-finite
keys and values in its slots in every layer, and in the far keys of its
pinned positions. The position does not move, and the next feed from that
position overwrites them all; the entry the chunk's first write replaced,
n_local positions older, is outside the window from then on. A masked
NaN still gives 0 * NaN = NaN, so skip() refuses until that feed.

Under RoPE a far pinned key scores <q, R(-l_pretrain) k> (see
``attention``). The cache stores that far key once, when its pinned token
is stored, in row j of a (n_layers, n_heads, <= n_global, head_dim) array
that grows like the others, so a chunk costs one rotation factor of its own
positions and no other trig.
"""

from __future__ import annotations

import numpy as np

from lm_infinite import attention
from lm_infinite.attention import (
    AttentionConfig,
    _attend_block,
    _far_factor,
    _geometry,
    _scale,
    _window,
)
from lm_infinite.encoding import apply_rotation_f64, rope_factor
from lm_infinite.errors import CacheStateError

_MIN_CAPACITY = 16  # slots of the first allocation; the arrays double from it


def _grown(a, size, axis):
    """A copy of ``a`` whose axis ``axis`` holds ``size`` entries, the old
    ones first."""
    out = np.empty(a.shape[:axis] + (size,) + a.shape[axis + 1 :], dtype=a.dtype)
    out[(slice(None),) * axis + (slice(a.shape[axis]),)] = a
    return out


class KvCache:
    """Pinned prefix + ring window (lambda), or a growing array (vanilla)."""

    def __init__(self, config: AttentionConfig, n_layers: int):
        self.config = config
        self.next_position = 0
        self.max_chunk = attention.BLOCK  # the kernel's block size when built
        self._len = 0
        G, W, _ = _window(config)
        self._n_global, self._n_local = G, W
        # The most slots a stream can use: the ring plus one chunk's scratch.
        self._bound = None if W is None else G + W + self.max_chunk - 1
        self._entry = (config.n_heads, config.head_dim)
        self._k = np.empty((n_layers, config.n_heads, _MIN_CAPACITY, config.head_dim))
        self._v = np.empty_like(self._k)
        self._pos = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._chunk = None  # (first slot, scratch start, end), set by begin()
        self._stored = 0  # the layers attend() stored the chunk in: 0 .. _stored - 1
        self._scale = _scale(config)
        self._to_far = None
        if config.is_rope and G:
            self._to_far = _far_factor(config)
            self._kf = self._k[:, :, :0].copy()  # row j: pinned position j

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
        if end > len(self._pos):  # a full cache: double it, copying once
            size = max(2 * len(self._pos), end)
            size = size if self._bound is None else min(size, self._bound)
            self._k, self._v = _grown(self._k, size, 2), _grown(self._v, size, 2)
            self._pos = _grown(self._pos, size, 0)
        pinned = min(G, p + n)  # the far keys of pinned positions up to here
        if self._to_far is not None and pinned > self._kf.shape[2]:
            size = min(G, max(2 * self._kf.shape[2], _MIN_CAPACITY, pinned))
            self._kf = _grown(self._kf, size, 2)
        self._chunk, self._stored = (first, scratch, end), 0
        # The chunk's slots in row order: one run, unless its first row went
        # to a ring slot and the others to scratch.
        if n == 1 or scratch == first + 1:
            self._slots = slice(first, first + n)
        else:
            self._slots = np.arange(scratch - 1, end)
            self._slots[0] = first
        rows = np.arange(p, p + n)
        self._pos[self._slots] = rows
        dist, masked, far = _geometry(rows, self._pos[:end], self.config)
        rotation = None
        if self.config.is_rope:  # one row per head, so no rotation broadcasts
            rotation = rope_factor(rows, self.config.encoding)[:, None]
            rotation = rotation.repeat(self.config.n_heads, axis=1)
            dist = None  # the rotated keys and queries carry it
        self._geometry = (dist, masked, far, rotation)

    @property
    def can_skip(self) -> bool:
        """Whether skip() may run: the lambda ring is full and no chunk is
        begun (one that raised may have left non-finite entries)."""
        W, begun = self._n_local, self._chunk is not None
        return W is not None and self.next_position >= self._n_global + W and not begun

    def skip(self, n: int) -> None:
        """Move past the next n positions, storing nothing (see above)."""
        if not 1 <= n <= self.max_chunk:
            raise ValueError(f"a chunk holds 1 to {self.max_chunk} positions, got {n}")
        if self._chunk is not None:
            raise CacheStateError("skip() after a chunk that raised: feed that chunk first")
        if not self.can_skip:
            raise CacheStateError("skip() needs a full lambda ring; in vanilla mode, or "
                                  "before, later rows read the slots it would leave")
        self.next_position += n

    def attend(self, layer: int, q, k, v, rows=None) -> np.ndarray:
        """Layer ``layer``'s part of the chunk begun by begin(): store the
        keys (a RoPE key rotated to its own position) and values of all C
        chunk rows, then attend for the chunk rows ``rows``, a strictly
        increasing index array (None: all C). k and v are float64 arrays of
        C * n_heads * head_dim values, q and the flat result of len(rows) *
        n_heads * head_dim; the result matches the corresponding attend()
        rows to numerical precision. The geometry and rotation factor of
        begin() are indexed by ``rows``; with no rows the call ends once the
        chunk is stored. The input values are not checked: the model's
        layer stack checks its output once per chunk."""
        if self._chunk is None:
            raise CacheStateError("attend() outside a step: call begin() first")
        if not 0 <= layer < len(self._k):
            raise ValueError(f"layer {layer} is outside [0, {len(self._k)})")
        first, scratch, end = self._chunk
        n = end - scratch + 1
        k, v = k.reshape((n,) + self._entry), v.reshape((n,) + self._entry)
        q = q.reshape((n if rows is None else len(rows),) + self._entry)
        position = self.next_position
        dist, masked, is_far, rotation = self._geometry
        kn = k if rotation is None else apply_rotation_f64(k, rotation)
        keys, values = self._k[layer, :, :end], self._v[layer, :, :end]
        keys[:, self._slots] = kn.swapaxes(0, 1)
        values[:, self._slots] = v.swapaxes(0, 1)
        self._stored = max(self._stored, layer + 1)
        pinned = min(self._n_global - position, len(k))  # chunk rows < n_global
        if self._to_far is not None and pinned > 0:
            kf = apply_rotation_f64(k[:pinned], self._to_far)
            self._kf[layer, :, position : position + pinned] = kf.swapaxes(0, 1)
        if rows is not None:
            if not len(rows):
                return q.reshape(-1)
            dist, masked, is_far, rotation = (
                None if a is None else a[rows] for a in (dist, masked, is_far, rotation)
            )
        q = q * self._scale
        qn = q if rotation is None else apply_rotation_f64(q, rotation)
        far = None if is_far is None else (q.swapaxes(0, 1), self._kf[layer], is_far)
        out, _, _ = _attend_block(
            qn.swapaxes(0, 1), keys, values, dist, masked, self.config, far
        )
        return out.swapaxes(0, 1).reshape(-1)

    def advance(self) -> None:
        """End the chunk, stored at next_position on by layers 0 .. j. In
        lambda mode its entries past the ring move to their ring slots, a run
        of consecutive positions that wraps the ring at most once, so in at
        most two slice copies per array; layers past j keep their ring
        slots' older entries (see above)."""
        first, scratch, end = self._chunk
        G, W, stored = self._n_global, self._n_local, self._stored
        n = end - scratch + 1
        if W is not None and end > G + W:
            src = max(scratch, G + W, end - W)
            dst = G + (int(self._pos[src]) - G) % W
            wrap = min(end, src + G + W - dst)  # the first source slot past the wrap
            for lo, hi, to in ((src, wrap, dst), (wrap, end, G)):
                self._k[:stored, :, to : to + hi - lo] = self._k[:stored, :, lo:hi]
                self._v[:stored, :, to : to + hi - lo] = self._v[:stored, :, lo:hi]
                self._pos[to : to + hi - lo] = self._pos[lo:hi]
            end = G + W
        self._len = max(self._len, end)
        self.next_position += n
        self._chunk = None
