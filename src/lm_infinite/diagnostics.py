"""Out-of-distribution diagnostics on the toy model.

Three measurements, one per failure factor in long-context attention:

* logit_profile — attention logits of the last query row bucketed by key
  distance: unseen distances drive logits to larger magnitudes;
* entropy_curve / attention_entropy — row entropy as context grows: with
  bounded logits over n keys entropy grows like ln n (and is provably
  >= ln n - 2B for logits bounded by B), while the lambda mask caps the
  support at n_global + n_local keys;
* position_projection — 2-d PCA of the residual stream: hidden states
  carry implicit absolute-position information, concentrated in the
  earliest positions.

All natural logs. PCA uses power iteration with deflation (two components
are all we ever need) on mean-centered states — no further normalization.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from lm_infinite.model import ToyModel, forward_traced
from lm_infinite.rng import SplitMix64, derive_stream

_PCA_TOL = 1e-6
_PCA_MAX_ITERS = 1000


# ---------------------------------------------------------------------------
# Entropy
# ---------------------------------------------------------------------------


def attention_entropy(weights) -> float:
    """Shannon entropy (nats) of one attention row."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"weights must be a non-empty vector, got shape {w.shape}")
    if (w < 0.0).any():
        raise ValueError("attention weights must be non-negative")
    total = float(w.sum())
    if abs(total - 1.0) > 1e-5:
        raise ValueError(f"attention weights sum to {total}, expected 1 ± 1e-5")
    nz = w[w > 0.0]
    return float(-(nz * np.log(nz)).sum())


@dataclass
class EntropyCurve:
    """Entropy of the last token's attention row at every prefix length."""

    lengths: np.ndarray  # (seq_len,) = 1..seq_len
    entropy: np.ndarray  # (n_layers, n_heads, seq_len)


def entropy_curve(model: ToyModel, tokens, mode: str | None = None) -> EntropyCurve:
    """One traced forward; causality makes row i the last-token row of the
    length-(i+1) prefix, so a single pass yields the whole curve."""
    tokens = _check_tokens(tokens, 2, "entropy_curve")
    _, trace = forward_traced(model, tokens, mode=mode)
    return _entropy_from_trace(trace)


def _entropy_from_trace(trace) -> EntropyCurve:
    ent = np.stack(trace.entropy)
    return EntropyCurve(lengths=np.arange(1, ent.shape[-1] + 1), entropy=ent)


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


def logit_profile(
    model: ToyModel,
    tokens,
    layer: int,
    head: int,
    mode: str | None = None,
    bucket_width: int = 64,
) -> LogitProfile:
    """Last-row attention logits bucketed by key distance."""
    _check_layer_head(model.config, layer, head)
    if bucket_width < 1:
        raise ValueError("bucket_width must be >= 1")
    tokens = _check_tokens(tokens, 2, "logit_profile")
    mode = mode or model.config.mode
    _, trace = forward_traced(model, tokens, mode=mode)
    return _profile_from_trace(trace, model.config, mode, layer, head, bucket_width)


def _check_tokens(tokens, minimum, what):
    tokens = np.asarray(tokens)
    if tokens.size < minimum:
        raise ValueError(f"{what} needs at least {minimum} tokens")
    return tokens


def _check_layer(cfg, layer):
    if not 0 <= layer < cfg.n_layers:
        raise ValueError(f"layer {layer} out of range [0, {cfg.n_layers})")


def _check_layer_head(cfg, layer, head):
    _check_layer(cfg, layer)
    if not 0 <= head < cfg.n_heads:
        raise ValueError(f"head {head} out of range [0, {cfg.n_heads})")


def _profile_from_trace(trace, cfg, mode, layer, head, bucket_width=64) -> LogitProfile:
    logits = trace.last_logits[layer][head]
    dist = trace.last_distances[layer]

    if mode == "lambda":
        # The far branch clamps every distance; anything beyond the limit
        # would mean the mask leaked an unclamped position.
        assert dist.max() <= cfg.l_pretrain, "lambda logits past l_pretrain"

    buckets = []
    top = int(dist.max())
    for lo in range(0, top + 1, bucket_width):
        hi = lo + bucket_width
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


def _power_iteration(cov, start):
    v = start / np.linalg.norm(start)
    lam = 0.0
    for _ in range(_PCA_MAX_ITERS):
        nxt = cov @ v
        norm = np.linalg.norm(nxt)
        if norm < _PCA_TOL:
            return v, 0.0  # cov annihilates v: no variance left
        nxt = nxt / norm
        if min(np.linalg.norm(nxt - v), np.linalg.norm(nxt + v)) < _PCA_TOL:
            v = nxt
            break
        v = nxt
    lam = float(v @ cov @ v)
    return v, lam


def position_projection(
    model: ToyModel, tokens, layer: int, mode: str | None = None
) -> PcaProjection:
    """Top-2 PCA of the residual stream after ``layer``, one dot per token."""
    _check_layer(model.config, layer)
    tokens = _check_tokens(tokens, 3, "position_projection")
    _, trace = forward_traced(model, tokens, mode=mode)
    return project_states(trace.hidden[layer])


def project_states(states) -> PcaProjection:
    """PCA of arbitrary (n_points, dim) feature rows (power iteration)."""
    x = np.asarray(states, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3:
        raise ValueError(f"need (n_points >= 3, dim) states, got {x.shape}")
    centered = x - x.mean(axis=0)
    cov = (centered.T @ centered) / (x.shape[0] - 1)
    total_var = float(np.trace(cov))

    stream = SplitMix64(derive_stream(0, "pca-start"))
    start = stream.normal((x.shape[1],))
    v1, lam1 = _power_iteration(cov, start)
    degenerate = False
    if lam1 <= _PCA_TOL * max(total_var, 1.0):
        # No variance at all: both components meaningless.
        return PcaProjection(
            positions=np.arange(x.shape[0]),
            coords=np.zeros((x.shape[0], 2)),
            explained_variance=np.zeros(2),
            degenerate=True,
            components=np.zeros((2, x.shape[1])),
        )
    deflated = cov - lam1 * np.outer(v1, v1)
    v2, lam2 = _power_iteration(deflated, stream.normal((x.shape[1],)))
    if lam2 <= _PCA_TOL * lam1:
        degenerate = True  # rank < 2: keep first component, zero the second
        v2 = np.zeros_like(v2)
        lam2 = 0.0

    comps = []
    for v in (v1, v2):
        if v.any() and v[np.argmax(np.abs(v))] < 0:
            v = -v  # deterministic sign: largest-magnitude entry positive
        comps.append(v)
    components = np.stack(comps)
    coords = centered @ components.T
    explained = np.array([lam1, lam2]) / total_var if total_var > 0 else np.zeros(2)
    return PcaProjection(
        positions=np.arange(x.shape[0]),
        coords=coords,
        explained_variance=explained,
        degenerate=degenerate,
        components=components,
    )


def position_separation(
    projection: PcaProjection, group: int = 16, component: int = 0
) -> tuple:
    """(|mean difference|, pooled std) of a PCA coordinate between the
    first ``group`` and last ``group`` positions."""
    coords = projection.coords[:, component]
    if coords.size < 2 * group:
        raise ValueError(f"need at least {2 * group} positions, got {coords.size}")
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
    mode: str | None = None,
    pca_layer: int | None = None,
) -> DiagnosticsReport:
    """logit_profile, entropy_curve and position_projection from one traced
    forward pass; equal to the three separate calls."""
    cfg = model.config
    pca_layer = layer if pca_layer is None else pca_layer
    _check_layer_head(cfg, layer, head)
    _check_layer(cfg, pca_layer)
    tokens = _check_tokens(tokens, 3, "run_diagnostics")
    mode = mode or cfg.mode
    _, trace = forward_traced(model, tokens, mode=mode)
    profile = _profile_from_trace(trace, cfg, mode, layer, head)
    return DiagnosticsReport(
        logit_stats=profile,
        entropy_curve=_entropy_from_trace(trace),
        logit_bound=profile.bound,
        pca_projection=project_states(trace.hidden[pca_layer]),
    )


def write_entropy_csv(curve: EntropyCurve, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["length", "layer", "head", "entropy"])
        n_layers, n_heads, _ = curve.entropy.shape
        for layer in range(n_layers):
            for head in range(n_heads):
                for n, e in zip(curve.lengths, curve.entropy[layer, head]):
                    w.writerow([int(n), layer, head, repr(float(e))])


def write_logits_csv(profile: LogitProfile, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bucket_lo", "bucket_hi", "min", "max", "mean", "absmax"])
        for b in profile.buckets:
            w.writerow([b.lo, b.hi, repr(b.min), repr(b.max), repr(b.mean), repr(b.absmax)])


def write_pca_csv(projection: PcaProjection, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["position", "pc1", "pc2"])
        for pos, (c1, c2) in zip(projection.positions, projection.coords):
            w.writerow([int(pos), repr(float(c1)), repr(float(c2))])
