"""Rotary (RoPE) and Alibi relative positional encodings, plus the
distance-limited logit ops used by the lambda attention path.

Adjacent component pairs (x_{2a}, x_{2a+1}) form the rotation planes; a
pair is read as the complex number x_{2a} + i x_{2a+1}. A RoPE table is one
complex factor per position and pair, cos + i sin of rope_cos_sin's angles,
built once per pass or decode chunk; apply_rotation_f64 multiplies by it,
and its conjugate is the inverse rotation (also the transpose, for the
backward). Everything else runs and returns in float64. rope_logit and
alibi_logit are the one-pair reference logits the attention tests check
the kernel against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RopeParams:
    """Rotary-encoding constants: per-pair speeds omega_a = base**(-2a/head_dim)."""

    head_dim: int
    base: float = 10000.0

    def __post_init__(self):
        if not isinstance(self.head_dim, (int, np.integer)) or isinstance(self.head_dim, bool):
            raise ValueError(f"head_dim must be an integer, got {self.head_dim!r}")
        if self.head_dim < 2 or self.head_dim % 2 != 0:
            raise ValueError(f"head_dim must be even and >= 2, got {self.head_dim}")
        if not (float(self.base) > 0.0 and math.isfinite(self.base)):
            raise ValueError(f"base must be positive and finite, got {self.base}")
        a = np.arange(self.head_dim // 2, dtype=np.float64)
        speeds = np.asarray(self.base, dtype=np.float64) ** (-2.0 * a / self.head_dim)
        speeds.flags.writeable = False
        object.__setattr__(self, "_omegas", speeds)

    def omegas(self) -> np.ndarray:
        """Rotation speeds, strictly decreasing, omega_0 = 1. Shape (head_dim//2,).

        Computed once, at construction; the array is read-only because every
        caller (and every copy of these params) gets the same one.
        """
        return self._omegas


@dataclass(frozen=True)
class AlibiParams:
    """One positive slope per head."""

    slopes: tuple

    def __post_init__(self):
        slopes = tuple(float(m) for m in self.slopes)
        if len(slopes) < 1:
            raise ValueError("need at least one slope")
        for m in slopes:
            if not (m > 0.0 and math.isfinite(m)):
                raise ValueError(f"slopes must be positive and finite, got {m}")
        object.__setattr__(self, "slopes", slopes)


def default_alibi_slopes(n_heads: int) -> tuple:
    """Geometric head slopes m_h = 2**(-8h/H), h = 1..H."""
    if n_heads < 1:
        raise ValueError(f"n_heads must be >= 1, got {n_heads}")
    return tuple(2.0 ** (-8.0 * h / n_heads) for h in range(1, n_heads + 1))


def rope_cos_sin(positions, params: RopeParams):
    """Float64 cos/sin tables for the given positions.

    Returns (cos, sin) shaped positions.shape + (head_dim//2,), ready to
    broadcast against vectors whose trailing axis is head_dim.
    """
    pos = np.asarray(positions, dtype=np.float64)
    angles = pos[..., None] * params.omegas()
    return np.cos(angles), np.sin(angles)


def apply_rotation_f64(x: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Rotate adjacent pairs of the trailing axis; float64 in, float64 out.

    ``factor`` is the complex table cos + 1j * sin, which must broadcast
    against x[..., ::2]. Pass np.conj(factor) to invert, which is also the
    transpose — handy for backpropagating through a rotation.

    Each pair is read as the complex number x_{2a} + i x_{2a+1} and
    multiplied by its factor: one pass over x instead of one per strided
    half. ``x`` is copied to a contiguous array first when it is not one,
    and is never written.
    """
    pairs = np.ascontiguousarray(x, dtype=np.float64).view(np.complex128)
    return (pairs * factor).view(np.float64)


def _check_vector(name: str, x: np.ndarray, head_dim: int):
    if x.shape[-1] != head_dim:
        raise ValueError(
            f"{name} has trailing dimension {x.shape[-1]}, expected head_dim {head_dim}"
        )


def rope_logit(q, k, dist: int, params: RopeParams) -> float:
    """Distance-limited rotary attention logit.

    Computes <R(dist) q, k> / sqrt(head_dim) with k unrotated, where
    R(dist) turns pair a by the angle dist * omega_a. ``dist`` must already
    be clamped (see masking.effective_distance): the true distance for
    local-branch pairs, l_pretrain for global ones.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    _check_vector("q", q, params.head_dim)
    _check_vector("k", k, params.head_dim)
    if q.shape != k.shape:
        raise ValueError(f"q/k shape mismatch: {q.shape} vs {k.shape}")
    if dist < 0:
        raise ValueError(f"dist must be >= 0, got {dist}")
    cos, sin = rope_cos_sin(dist, params)
    rotated = apply_rotation_f64(q, cos + 1j * sin)
    return float(np.sum(rotated * k, axis=-1) / math.sqrt(params.head_dim))


def alibi_logit(q, k, dist: int, slope: float) -> float:
    """Linear-bias attention logit <q,k>/sqrt(head_dim) - slope * dist.

    ``dist`` must already be clamped, which is what keeps the bias from
    ever dropping below -slope * l_pretrain.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.shape != k.shape or q.ndim != 1:
        raise ValueError(f"q/k must be equal-length vectors, got {q.shape} vs {k.shape}")
    if not math.isfinite(slope) or slope < 0.0:
        raise ValueError(f"slope must be finite and >= 0, got {slope}")
    if dist < 0:
        raise ValueError(f"dist must be >= 0, got {dist}")
    return float(q @ k) / math.sqrt(q.shape[-1]) - slope * dist
