"""Out-of-distribution diagnostics on the toy model.

``run_diagnostics`` reads three measurements off one traced forward pass,
one per failure factor in long-context attention:

* logit stats — attention logits of the last query row bucketed by key
  distance: unseen distances drive logits to larger magnitudes;
* entropy curve — row entropy as context grows: with bounded logits over n
  keys entropy grows like ln n (and is provably >= ln n - 2B for logits
  bounded by B), while the lambda mask caps the support at
  n_global + n_local keys;
* PCA projection — 2-d PCA of the residual stream: hidden states carry
  implicit absolute-position information, concentrated in the earliest
  positions.

All natural logs. The PCA is numpy's symmetric eigendecomposition of the
covariance of the mean-centered states — no further normalization.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from lm_infinite.model import ToyModel, forward_traced

_PCA_TOL = 1e-6
_BUCKET_WIDTH = 64


@dataclass
class EntropyCurve:
    """Entropy of the last token's attention row at every prefix length."""

    lengths: np.ndarray  # (seq_len,) = 1..seq_len
    entropy: np.ndarray  # (n_layers, n_heads, seq_len)


# ---------------------------------------------------------------------------
# Logit profile
# ---------------------------------------------------------------------------


@dataclass
class LogitBucket:
    lo: int  # distance range [lo, hi)
    hi: int
    count: int
    min: float
    max: float
    mean: float
    absmax: float


@dataclass
class LogitProfile:
    layer: int
    head: int
    buckets: list
    bound: float  # B: max |logit| over the whole row


def _profile_from_trace(trace, cfg, mode, layer, head) -> LogitProfile:
    logits = trace.last_logits[layer][head]
    dist = trace.last_distances[layer]

    if mode == "lambda":
        # The far branch clamps every distance; anything beyond the limit
        # would mean the mask leaked an unclamped position.
        assert dist.max() <= cfg.l_pretrain, "lambda logits past l_pretrain"

    buckets = []
    top = int(dist.max())
    for lo in range(0, top + 1, _BUCKET_WIDTH):
        hi = lo + _BUCKET_WIDTH
        sel = logits[(dist >= lo) & (dist < hi)]
        if sel.size == 0:
            buckets.append(LogitBucket(lo, hi, 0, math.nan, math.nan, math.nan, math.nan))
            continue
        buckets.append(
            LogitBucket(
                lo,
                hi,
                int(sel.size),
                float(sel.min()),
                float(sel.max()),
                float(sel.mean()),
                float(np.abs(sel).max()),
            )
        )
    return LogitProfile(
        layer=layer,
        head=head,
        buckets=buckets,
        bound=float(np.abs(logits).max()),
    )


# ---------------------------------------------------------------------------
# PCA projection
# ---------------------------------------------------------------------------


@dataclass
class PcaProjection:
    positions: np.ndarray  # (seq_len,)
    coords: np.ndarray  # (seq_len, 2)
    explained_variance: np.ndarray  # (2,) ratios in [0,1]
    degenerate: bool = False
    components: np.ndarray = field(default=None, repr=False)  # (2, d_model)


def project_states(states) -> PcaProjection:
    """Top-2 PCA of arbitrary (n_points, dim) feature rows."""
    x = np.asarray(states, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3:
        raise ValueError(f"need (n_points >= 3, dim) states, got {x.shape}")
    centered = x - x.mean(axis=0)
    cov = (centered.T @ centered) / (x.shape[0] - 1)
    total_var = float(np.trace(cov))

    # eigh sorts ascending; take the top two, zero-padded when dim is 1.
    eigvals, eigvecs = np.linalg.eigh(cov)
    k = min(2, x.shape[1])
    lam = np.zeros(2)
    lam[:k] = eigvals[::-1][:k]
    components = np.zeros((2, x.shape[1]))
    components[:k] = eigvecs[:, ::-1].T[:k]
    if lam[0] <= _PCA_TOL * max(total_var, 1.0):
        lam[:] = 0.0  # no variance at all: both components meaningless
    if lam[1] <= _PCA_TOL * lam[0]:
        lam[1] = 0.0  # rank < 2: keep the first component, zero the second
    components[lam == 0.0] = 0.0
    for v in components:
        if v[np.argmax(np.abs(v))] < 0:
            v *= -1.0  # deterministic sign: largest-magnitude entry positive

    explained = lam / total_var if total_var > 0 else np.zeros(2)
    return PcaProjection(
        positions=np.arange(x.shape[0]),
        coords=centered @ components.T,
        explained_variance=explained,
        degenerate=bool(lam[1] == 0.0),
        components=components,
    )


def position_separation(
    projection: PcaProjection, group: int = 16, component: int = 0
) -> tuple:
    """(|mean difference|, pooled std) of a PCA coordinate between the
    first ``group`` and last ``group`` positions."""
    coords = projection.coords[:, component]
    if not 2 <= group <= coords.size // 2:
        raise ValueError(f"group must be in [2, {coords.size // 2}], got {group}")
    a, b = coords[:group], coords[-group:]
    pooled = math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / 2.0)
    return abs(float(a.mean() - b.mean())), pooled


# ---------------------------------------------------------------------------
# Report + CSV
# ---------------------------------------------------------------------------


@dataclass
class DiagnosticsReport:
    logit_stats: LogitProfile
    entropy_curve: EntropyCurve
    logit_bound: float
    pca_projection: PcaProjection


def run_diagnostics(
    model: ToyModel,
    tokens,
    layer: int = 0,
    head: int = 0,
    mode: str = "lambda",
) -> DiagnosticsReport:
    """All three measurements from one traced forward pass.

    Logit stats: ``head`` of ``layer``, last query row, key distances in
    buckets of 64. Entropy curve: every layer and head; causality makes row
    i the last row of the length-(i+1) prefix, so one pass yields the whole
    curve. PCA: the residual stream after ``layer``.
    """
    cfg = model.config
    if not 0 <= layer < cfg.n_layers:
        raise ValueError(f"layer {layer} out of range [0, {cfg.n_layers})")
    if not 0 <= head < cfg.n_heads:
        raise ValueError(f"head {head} out of range [0, {cfg.n_heads})")
    tokens = np.asarray(tokens)
    if tokens.size < 3:
        raise ValueError("run_diagnostics needs at least 3 tokens")
    _, trace = forward_traced(model, tokens, mode=mode)
    profile = _profile_from_trace(trace, cfg, mode, layer, head)
    entropy = np.stack(trace.entropy)
    return DiagnosticsReport(
        logit_stats=profile,
        entropy_curve=EntropyCurve(
            lengths=np.arange(1, entropy.shape[-1] + 1), entropy=entropy
        ),
        logit_bound=profile.bound,
        pca_projection=project_states(trace.hidden[layer]),
    )


def write_entropy_csv(curve: EntropyCurve, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["length", "layer", "head", "entropy"])
        n_layers, n_heads, _ = curve.entropy.shape
        for layer in range(n_layers):
            for head in range(n_heads):
                for n, e in zip(curve.lengths, curve.entropy[layer, head]):
                    w.writerow([int(n), layer, head, repr(float(e))])


def write_logits_csv(profile: LogitProfile, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["bucket_lo", "bucket_hi", "min", "max", "mean", "absmax"])
        for b in profile.buckets:
            w.writerow([b.lo, b.hi, repr(b.min), repr(b.max), repr(b.mean), repr(b.absmax)])


def write_pca_csv(projection: PcaProjection, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["position", "pc1", "pc2"])
        for pos, (c1, c2) in zip(projection.positions, projection.coords):
            w.writerow([int(pos), repr(float(c1)), repr(float(c2))])
