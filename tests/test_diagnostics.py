"""Diagnostics: entropy, logit buckets, PCA projection, all from run_diagnostics."""

import csv
import math

import numpy as np
import pytest

from lm_infinite.diagnostics import (
    position_separation,
    project_states,
    run_diagnostics,
    write_entropy_csv,
    write_logits_csv,
    write_pca_csv,
)
from lm_infinite.model import ToyModelConfig, init
from lm_infinite.rng import SplitMix64


def small_model(**over):
    base = dict(
        vocab_size=23,
        d_model=16,
        n_layers=2,
        n_heads=2,
        train_len=16,
        n_global=2,
        n_local=8,
        l_pretrain=8,
        seed=3,
    )
    base.update(over)
    return init(ToyModelConfig(**base))


# ---------------------------------------------------------------------------
# Entropy curve
# ---------------------------------------------------------------------------


def entropy_of(model, tokens, mode):
    return run_diagnostics(model, tokens, mode=mode).entropy_curve


def test_entropy_curve_shape_and_first_point():
    model = small_model()
    tokens = np.arange(20) % 23
    curve = entropy_of(model, tokens, "vanilla_causal")
    assert curve.entropy.shape == (2, 2, 20)
    assert curve.lengths[0] == 1 and curve.lengths[-1] == 20
    np.testing.assert_allclose(curve.entropy[:, :, 0], 0.0, atol=1e-12)


def test_entropy_curve_matches_prefix_forward():
    # Causality: the curve entry at length n equals the last-row entropy of
    # a fresh forward over just the first n tokens.
    model = small_model()
    tokens = (np.arange(30) * 5 + 1) % 23
    curve = entropy_of(model, tokens, "lambda")
    for n in (3, 7, 19, 30):
        sub = entropy_of(model, tokens[:n], "lambda")
        np.testing.assert_allclose(
            curve.entropy[:, :, n - 1], sub.entropy[:, :, n - 1], atol=1e-10
        )


def test_entropy_curve_lambda_cap():
    model = small_model()
    cap = math.log(model.config.n_global + model.config.n_local)
    tokens = np.arange(16 * model.config.n_local) % 23
    curve = entropy_of(model, tokens, "lambda")
    assert curve.entropy.max() <= cap + 1e-9


# ---------------------------------------------------------------------------
# Logit stats
# ---------------------------------------------------------------------------


def test_logit_profile_validation():
    model = small_model()
    tokens = np.arange(10) % 23
    with pytest.raises(ValueError, match="layer 5"):
        run_diagnostics(model, tokens, layer=5, head=0)
    with pytest.raises(ValueError, match="head 9"):
        run_diagnostics(model, tokens, layer=0, head=9)
    with pytest.raises(ValueError):
        run_diagnostics(model, [1], layer=0, head=0)


def test_logit_profile_buckets_cover_without_gaps():
    model = small_model()
    tokens = (np.arange(200) * 3) % 23
    prof = run_diagnostics(model, tokens, 0, 0, mode="vanilla_causal").logit_stats
    assert prof.buckets[0].lo == 0
    for a, b in zip(prof.buckets, prof.buckets[1:]):
        assert a.hi == b.lo
    assert all(b.hi - b.lo == 64 for b in prof.buckets)  # the default width
    assert prof.buckets[-1].hi > 199  # covers the max distance
    assert sum(b.count for b in prof.buckets) == 200  # every key bucketed


def test_logit_profile_degenerate_rows():
    # Zero query projections: every logit is identical (zero), so absmax
    # equals mean in every bucket.
    model = small_model()
    for i in range(model.config.n_layers):
        model.params[f"layer{i}/attn/wq"][:] = 0.0
    report = run_diagnostics(model, np.arange(40) % 23, 1, 1, mode="vanilla_causal")
    prof = report.logit_stats
    for b in prof.buckets:
        if b.count:
            assert b.absmax == pytest.approx(b.mean, abs=1e-12) == pytest.approx(0.0)
    assert prof.bound == 0.0


def test_logit_profile_lambda_distances_clamped():
    model = small_model()
    tokens = (np.arange(100) * 7 + 2) % 23
    prof = run_diagnostics(model, tokens, 0, 0, mode="lambda").logit_stats
    # far branch contributes exactly the clamp distance; buckets past it empty
    top = model.config.l_pretrain
    for b in prof.buckets:
        assert b.lo <= top
    assert math.isfinite(prof.bound)


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------


def test_pca_matches_svd_oracle():
    stream = SplitMix64(11)
    x = stream.normal((40, 9)) @ np.diag([5, 3, 1, 1, 1, 0.5, 0.5, 0.2, 0.2])
    proj = project_states(x)
    xc = x - x.mean(axis=0)
    _, svals, vt = np.linalg.svd(xc, full_matrices=False)
    for ci in range(2):
        assert abs(float(proj.components[ci] @ vt[ci])) == pytest.approx(1.0, abs=1e-10)
    ratios = svals**2 / (svals**2).sum()
    np.testing.assert_allclose(proj.explained_variance, ratios[:2], rtol=0, atol=1e-10)
    assert proj.explained_variance[0] >= proj.explained_variance[1]
    assert not proj.degenerate


def test_pca_components_orthonormal():
    stream = SplitMix64(12)
    proj = project_states(stream.normal((30, 6)))
    g = proj.components @ proj.components.T
    np.testing.assert_allclose(g, np.eye(2), rtol=0, atol=1e-10)


def test_pca_order_invariance_up_to_sign():
    stream = SplitMix64(13)
    x = stream.normal((25, 5))
    perm = np.argsort(stream.uniform(25))
    a = project_states(x)
    b = project_states(x[perm])
    # components identical (sign fixed deterministically), coords permuted
    np.testing.assert_allclose(a.components, b.components, rtol=0, atol=1e-10)
    np.testing.assert_allclose(a.coords[perm], b.coords, rtol=0, atol=1e-10)


def test_pca_collinear_is_degenerate_rank_one():
    t = np.linspace(-1, 1, 20)[:, None]
    x = t @ np.array([[1.0, 2.0, -1.0]])  # rank 1
    proj = project_states(x)
    assert proj.degenerate
    assert proj.explained_variance[0] == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(proj.coords[:, 1], 0.0, atol=1e-12)


def test_pca_constant_input_degenerate():
    proj = project_states(np.ones((10, 4)))
    assert proj.degenerate
    np.testing.assert_allclose(proj.coords, 0.0)


def test_position_projection_validation():
    model = small_model()
    with pytest.raises(ValueError, match="layer 7"):
        run_diagnostics(model, np.arange(10) % 23, layer=7)
    with pytest.raises(ValueError, match="at least 3 tokens"):
        run_diagnostics(model, [1, 2], layer=0)


def test_position_separation_helper():
    proj = project_states(np.vstack([np.zeros((16, 3)), np.ones((16, 3)) * 4]))
    sep, pooled = position_separation(proj, group=16)
    assert sep > 0 and pooled >= 0
    for group in (20, 0, 1, -3):
        with pytest.raises(ValueError):
            position_separation(proj, group=group)


# ---------------------------------------------------------------------------
# Report + CSV
# ---------------------------------------------------------------------------


def test_run_diagnostics_and_csv_round_trip(tmp_path):
    model = small_model()
    tokens = (np.arange(48) * 11 + 3) % 23
    report = run_diagnostics(model, tokens, layer=0, head=0, mode="vanilla_causal")
    assert report.logit_bound == report.logit_stats.bound

    e_path, l_path, p_path = (
        tmp_path / "entropy.csv",
        tmp_path / "logits.csv",
        tmp_path / "pca.csv",
    )
    write_entropy_csv(report.entropy_curve, e_path)
    write_logits_csv(report.logit_stats, l_path)
    write_pca_csv(report.pca_projection, p_path)

    with open(e_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["length", "layer", "head", "entropy"]
    assert len(rows) - 1 == 2 * 2 * 48
    # entropies round-trip exactly through repr
    assert float(rows[1][3]) == report.entropy_curve.entropy[0, 0, 0]

    with open(l_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bucket_lo", "bucket_hi", "min", "max", "mean", "absmax"]
    assert len(rows) - 1 == len(report.logit_stats.buckets)

    with open(p_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["position", "pc1", "pc2"]
    assert len(rows) - 1 == 48
    assert float(rows[1][1]) == report.pca_projection.coords[0, 0]


@pytest.mark.parametrize("mode", ["lambda", "vanilla_causal"])
def test_run_diagnostics_equals_separate_calls(monkeypatch, mode):
    # One traced pass, and the report holds exactly what each measurement
    # computed on its own from that pass's trace gives.
    import lm_infinite.diagnostics as diagnostics

    model = small_model()
    tokens = (np.arange(150) * 5 + 1) % 23
    traces = []
    real = diagnostics.forward_traced

    def recording(*args, **kwargs):
        logits, trace = real(*args, **kwargs)
        traces.append(trace)
        return logits, trace

    monkeypatch.setattr(diagnostics, "forward_traced", recording)
    report = run_diagnostics(model, tokens, layer=1, head=1, mode=mode)
    assert len(traces) == 1
    trace = traces[0]

    entropy = np.stack(trace.entropy)
    assert np.array_equal(report.entropy_curve.entropy, entropy)
    assert np.array_equal(report.entropy_curve.lengths, np.arange(1, 151))

    logits, dist = trace.last_logits[1][1], trace.last_distances[1]
    assert report.logit_bound == report.logit_stats.bound == np.abs(logits).max()
    buckets = report.logit_stats.buckets
    assert [b.lo for b in buckets] == list(range(0, int(dist.max()) + 1, 64))
    for b in buckets:
        sel = logits[(dist >= b.lo) & (dist < b.hi)]
        assert b.count == sel.size
        if sel.size:
            assert (b.min, b.max, b.mean, b.absmax) == (
                sel.min(), sel.max(), sel.mean(), np.abs(sel).max()
            )

    proj = report.pca_projection
    states = trace.hidden[1]
    assert np.array_equal(proj.coords, project_states(states).coords)
    centered = states - states.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    signs = np.sign(np.sum(vt[:2] * proj.components, axis=1))
    np.testing.assert_allclose(proj.components, vt[:2] * signs[:, None], rtol=0, atol=1e-10)
    np.testing.assert_allclose(
        proj.explained_variance, svals[:2] ** 2 / (svals**2).sum(), rtol=0, atol=1e-10
    )
    assert not proj.degenerate
