"""Tests of the benchmark itself: span arithmetic, percentile selection,
and that a wrong output is counted as a failed operation.

    python3 -m pytest benchmark/test_bench.py
"""

import math
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import lm_infinite as lmi  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["model.a", 0.0, 10.0, -1],
        ["attention.b", 1.0, 4.0, 0],
        ["encoding.c", 2.0, 3.0, 1],
        ["kv_cache.d", 5.0, 9.0, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    totals = tracing.self_time_by_name(spans)
    assert sum(totals.values()) == 10.0  # self times partition the root span
    assert tracing.layer_self_time(totals, "model") == 3.0


def test_covered_time_merges_overlaps_and_clips_to_parent():
    assert tracing.covered_time([(1.0, 4.0), (3.0, 6.0)], 0.0, 10.0) == 5.0
    assert tracing.covered_time([(9.0, 12.0), (-2.0, 1.0)], 0.0, 10.0) == 2.0
    assert tracing.covered_time([(2.0, 3.0), (2.0, 3.0)], 0.0, 10.0) == 1.0
    assert tracing.covered_time([], 0.0, 10.0) == 0.0


def test_recorder_nests_wrapped_calls_and_counts():
    ticks = iter(range(100))
    rec = tracing.SpanRecorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("encoding.inner", lambda x: x + 1)
    outer = rec.wrap(
        "attention.outer",
        lambda x: inner(inner(x)),
        on_return=lambda r, result, args, kwargs: r.count("cells", result),
    )
    assert outer(1) == 3  # inactive: nothing recorded
    assert rec.spans == []
    rec.active = True
    assert outer(1) == 3
    names = [s[0] for s in rec.spans]
    parents = [s[3] for s in rec.spans]
    assert names == ["attention.outer", "encoding.inner", "encoding.inner"]
    assert parents == [-1, 0, 0]
    assert tracing.self_times(rec.spans) == [3.0, 1.0, 1.0]
    assert rec.counters["cells"] == 3
    assert tracing.child_count(rec.spans, "attention", "encoding.inner") == 2


def test_patches_restore_and_skip_missing_names():
    ns = types.SimpleNamespace(f=lambda: 1)
    ns.__name__ = "ns"
    original = ns.f
    rec = tracing.SpanRecorder()
    patches = tracing.Patches(lambda fn, name: rec.wrap(name, fn))
    patches.add(ns, "f", "model.f")
    patches.add(ns, "gone", "model.gone")
    assert patches.missing == ["ns.gone"]
    with patches:
        assert ns.f is not original
        rec.active = True
        assert ns.f() == 1
    assert ns.f is original
    assert [s[0] for s in rec.spans] == ["model.f"]


def test_timer_leaves_probes_out_of_calls(monkeypatch):
    monkeypatch.setattr(workloads, "PROBE_INTERVAL", 0.0)
    runs = iter([0.01, 0.04, 0.03])  # block start, probe inside the call, next block

    def reference():
        time.sleep(0.05)
        small = next(runs)
        return {"small": small, "bulk": 2 * small}

    timer = workloads.Timer(reference=reference)
    log = workloads.RoundLog()
    with timer.block(log, "op", "bulk"):
        timer.timed(timer.probe)
    (raw,) = log.samples["op"]
    assert raw < 0.04  # the 50 ms probe is not part of the call
    timer.run_reference()
    assert [r["small"] for _, r in timer.references] == [0.01, 0.04, 0.03]
    (scaled,) = timer.scaled(log)["op"]
    # median of the three bulk runs
    assert scaled == pytest.approx(raw * workloads.REFERENCE_SECONDS["bulk"] / 0.06)


def test_scale_uses_only_its_kind_near_the_call():
    timer = workloads.Timer()
    w = workloads.SCALE_WINDOW

    def run(small):
        return {"small": small, "bulk": 1.0}

    timer.references = [(0.0, run(1.0)), (10.0, run(0.02)), (10.5, run(0.04)),
                        (11.0, run(0.03)), (20.0, run(9.0))]
    log = workloads.RoundLog()
    log.samples["op"] = [0.5]
    log.windows["op"] = [(10.0 + w / 4, 10.0 + w / 2)]
    log.kinds["op"] = "small"
    assert timer.scaled(log)["op"] == [0.5 * workloads.REFERENCE_SECONDS["small"] / 0.03]


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    samples = [float(v) for v in range(100, 0, -1)]
    assert stats.percentile(samples, 90) == 90.0  # nearest rank, 10 above it
    assert stats.percentile(samples, 50) == 50.0
    with pytest.raises(ValueError, match="9 beyond"):
        stats.percentile(samples[:99], 90)
    with pytest.raises(ValueError):
        stats.percentile(samples[:19], 50)
    assert stats.percentile(samples[:20], 50) == 90.0


def test_highest_percentile_selection():
    assert stats.highest_percentile(19) is None
    assert stats.highest_percentile(20) == 50.0
    assert stats.highest_percentile(99) == 50.0
    assert stats.highest_percentile(100) == 90.0
    assert stats.highest_percentile(999) == 90.0
    assert stats.highest_percentile(1000) == 99.0
    assert stats.highest_percentile(10000) == 99.9


# ---------------------------------------------------------------------------
# Checks count failed operations
# ---------------------------------------------------------------------------

TINY = workloads.Sizes(
    config=lmi.ToyModelConfig(
        vocab_size=32, d_model=16, n_layers=1, n_heads=2, train_len=16,
        n_global=2, n_local=16, l_pretrain=16,
    ),
    train_batch=2,
    train_calls=1,
    train_sequences=2,
    train_seq_len=64,
    held_out=2,
    encode_multiple=4,
    probe_multiple=2,
    decode_steps=20,  # one full chunk and one short one per stream
    trunc_gen=3,
)


def _one_round(tmp_path, encoding="rope"):
    inputs, ok = workloads.setup(encoding, 3, tmp_path, TINY)
    assert ok
    log = workloads.RoundLog()
    workloads.run_round(inputs, TINY, 0, workloads.Timer(), log)
    return log


@pytest.mark.parametrize("encoding", ["rope", "alibi"])
def test_clean_round_has_no_failures(tmp_path, encoding):
    log = _one_round(tmp_path, encoding)
    # train calls + encode 2 + diag 1 + per mode (generate 1 + steps) + truncation 1
    assert log.tally.attempted == TINY.train_calls + 2 + 1 + 2 * (1 + TINY.decode_steps) + 1
    assert log.tally.failed == 0
    assert len(log.samples["decode_s_lambda"]) == TINY.decode_steps
    assert all(v > 0 for values in log.samples.values() for v in values)


def test_digest_repeats_for_a_seed(tmp_path):
    assert _one_round(tmp_path).digest() == _one_round(tmp_path).digest()


def test_wrong_decode_logits_are_counted(tmp_path, monkeypatch):
    clean = _one_round(tmp_path)
    real_step = lmi.DecodeSession.step

    def skewed_step(self, token):
        out = real_step(self, token)
        return out + 1e-6 if self.mode == "lambda" else out

    monkeypatch.setattr(lmi.DecodeSession, "step", skewed_step)
    broken = _one_round(tmp_path)
    assert broken.tally.attempted == clean.tally.attempted
    # the lambda generate call and each of its greedy steps
    assert broken.tally.failed == 1 + TINY.decode_steps


def test_non_finite_loss_is_counted(tmp_path, monkeypatch):
    real_train = lmi.train

    def nan_train(*args, **kwargs):
        result = real_train(*args, **kwargs)
        result.loss_trace[-1] = math.nan
        return result

    monkeypatch.setattr(lmi, "train", nan_train)
    log = _one_round(tmp_path)
    assert log.tally.failed == 1


# ---------------------------------------------------------------------------
# The entry point without a package next to it
# ---------------------------------------------------------------------------


def test_run_fails_without_printing_a_result_when_source_is_missing(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "benchmark")
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "rope", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
