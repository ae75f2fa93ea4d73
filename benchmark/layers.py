"""Which package entry points the traced run wraps, and the per-layer
metrics computed from the spans and counters it records.

Every function is wrapped where its callers look it up: attention calls
made by the model are wrapped in ``lm_infinite.model``, mask and encoding
calls made by attention in ``lm_infinite.attention``, and the jobs the
benchmark itself starts on the ``lm_infinite`` package. A name that no
longer exists is skipped and listed, so the benchmark still runs after a
refactor removes it; its metrics then read zero.
"""

from __future__ import annotations

import importlib
import weakref

import numpy as np

import lm_infinite as lmi
from tracing import LAYERS, Patches, child_count, layer_self_time, self_time_by_name


def _full_cells(rec, result, args, kwargs):
    """Query-key pairs scored by a full-sequence attention call."""
    q = args[0] if args else kwargs["q_seq"]
    config = args[3] if len(args) > 3 else kwargs["config"]
    *batch, seq_len, n_heads, _ = np.shape(q)
    if config.mode == "lambda":
        mp = config.mask_params
        rows = np.arange(1, seq_len + 1)
        local = np.minimum(rows, mp.n_local)
        pinned = np.minimum(mp.n_global, np.maximum(0, rows - mp.n_local))
        per_head = int((local + pinned).sum())
    else:
        per_head = seq_len * (seq_len + 1) // 2
    rec.count("attention.cells", int(np.prod(batch, dtype=np.int64)) * n_heads * per_head)


def _single_cells(rec, result, args, kwargs):
    weights = getattr(result, "weights", None)
    positions = getattr(result, "positions", None)
    if weights is not None:
        rec.count("attention.cells", int(np.size(weights)))
    if positions is not None:
        rec.count("kv_cache.attended", len(positions) - 1)  # minus the query itself


def _visible(rec, result, args, kwargs):
    rec.count("kv_cache.returned", len(result))


def _make_push_hook():
    lengths = weakref.WeakKeyDictionary()

    def push(rec, result, args, kwargs):
        cache = args[0]
        size = len(cache)
        if size == lengths.get(cache, 0):
            rec.count("kv_cache.evictions")
        lengths[cache] = size
        rec.peak("kv_cache.peak_entries", size)

    return push


def _trunc_cells(rec, result, args, kwargs):
    rec.count("evaluation.trunc_cells", int(result.op_count))


def build_patches(recorder):
    """The wrapped entry points of every layer (``cli`` is not timed)."""
    model = importlib.import_module("lm_infinite.model")
    attention = importlib.import_module("lm_infinite.attention")
    evaluation = importlib.import_module("lm_infinite.evaluation")
    diagnostics = importlib.import_module("lm_infinite.diagnostics")
    patches = Patches(lambda fn, name, hook=None: recorder.wrap(name, fn, hook))
    add = patches.add
    add(model, "attend", "attention.attend", _full_cells)
    add(model, "attend_with_stash", "attention.attend_with_stash", _full_cells)
    add(model, "attend_backward", "attention.attend_backward")
    add(model, "attend_single", "attention.attend_single", _single_cells)
    add(lmi.KvCache, "push", "kv_cache.push", _make_push_hook())
    add(lmi.KvCache, "visible_entries", "kv_cache.visible_entries", _visible)
    add(attention, "build_mask", "masking.build_mask")
    for owner in (attention, model):
        add(owner, "rope_cos_sin", "encoding.rope_cos_sin")
        add(owner, "apply_rotation_f64", "encoding.apply_rotation")
    add(lmi, "train", "model.train")
    add(lmi, "generate", "model.generate")
    add(lmi.DecodeSession, "step", "model.step")
    add(evaluation, "forward", "model.forward")
    add(diagnostics, "forward_traced", "model.forward")
    add(lmi, "save_model", "model.save_model")
    add(lmi, "load_model", "model.load_model")
    add(lmi, "nll_curve", "evaluation.nll_curve")
    add(lmi, "truncation_baseline", "evaluation.truncation_baseline", _trunc_cells)
    add(lmi, "run_diagnostics", "diagnostics.run_diagnostics")
    add(evaluation, "bleu", "metrics.bleu")
    add(evaluation, "rouge_lsum", "metrics.rouge_lsum")
    add(lmi.SyntheticLanguage, "sample", "corpus.sample")
    add(lmi, "save_corpus", "corpus.save")
    add(lmi, "load_corpus", "corpus.load")
    return patches


# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "attention.attend_with_stash_s": "s",
    "attention.attend_backward_s": "s",
    "attention.attend_s": "s",
    "attention.attend_single_s": "s",
    "attention.cells": "count",
    "attention.calls": "count",
    "kv_cache.push_s": "s",
    "kv_cache.visible_entries_s": "s",
    "kv_cache.calls": "count",
    "kv_cache.peak_entries": "count",
    "kv_cache.evictions": "count",
    "kv_cache.used_ratio": "ratio",
    "masking.build_mask_s": "s",
    "masking.calls": "count",
    "encoding.rope_cos_sin_s": "s",
    "encoding.apply_rotation_s": "s",
    "encoding.calls": "count",
    "model.self_s": "s",
    "model.step_s": "s",
    "model.forward_s": "s",
    "model.save_model_s": "s",
    "model.load_model_s": "s",
    "diagnostics.self_s": "s",
    "diagnostics.forward_passes": "count",
    "evaluation.self_s": "s",
    "evaluation.trunc_cells": "count",
    "metrics.bleu_s": "s",
    "metrics.rouge_lsum_s": "s",
    "corpus.sample_s": "s",
    "corpus.save_s": "s",
    "corpus.load_s": "s",
    "trace.overhead_pct": "%",
}

# Metrics taken from the traced set-up (once per run) instead of per round.
_SETUP_SPANS = {
    "model.save_model_s": "model.save_model",
    "model.load_model_s": "model.load_model",
    "corpus.sample_s": "corpus.sample",
    "corpus.save_s": "corpus.save",
    "corpus.load_s": "corpus.load",
}


def per_layer_metrics(rounds, n_rounds, setup, overhead_pct):
    """Per-layer metrics: span self times and counts per traced round, the
    set-up spans once, peaks and ratios over the whole run.

    A ``<layer>.<function>_s`` metric is that function's self time: its
    spans minus the time their child spans cover. ``<layer>.self_s`` sums
    every span of the layer the same way.
    """
    totals = self_time_by_name(rounds.spans)
    setup_totals = self_time_by_name(setup.spans)
    names = [span[0] for span in rounds.spans]
    counters = rounds.counters

    def per_round(value):
        return value / n_rounds

    def calls(prefix):
        return per_round(sum(1 for n in names if n.startswith(prefix)))

    def own(name):
        return per_round(totals.get(name, 0.0))

    diag_calls = names.count("diagnostics.run_diagnostics")
    returned = counters["kv_cache.returned"]
    out = {
        "attention.attend_with_stash_s": own("attention.attend_with_stash"),
        "attention.attend_backward_s": own("attention.attend_backward"),
        "attention.attend_s": own("attention.attend"),
        "attention.attend_single_s": own("attention.attend_single"),
        "attention.cells": per_round(counters["attention.cells"]),
        "attention.calls": calls("attention."),
        "kv_cache.push_s": own("kv_cache.push"),
        "kv_cache.visible_entries_s": own("kv_cache.visible_entries"),
        "kv_cache.calls": calls("kv_cache."),
        "kv_cache.peak_entries": rounds.maxima["kv_cache.peak_entries"],
        "kv_cache.evictions": per_round(counters["kv_cache.evictions"]),
        "kv_cache.used_ratio": counters["kv_cache.attended"] / returned if returned else 0.0,
        "masking.build_mask_s": own("masking.build_mask"),
        "masking.calls": calls("masking."),
        "encoding.rope_cos_sin_s": own("encoding.rope_cos_sin"),
        "encoding.apply_rotation_s": own("encoding.apply_rotation"),
        "encoding.calls": calls("encoding."),
        "model.self_s": per_round(layer_self_time(totals, "model")),
        "model.step_s": own("model.step"),
        "model.forward_s": own("model.forward"),
        "diagnostics.self_s": per_round(layer_self_time(totals, "diagnostics")),
        "diagnostics.forward_passes": (
            child_count(rounds.spans, "diagnostics", "model.forward") / diag_calls
            if diag_calls
            else 0.0
        ),
        "evaluation.self_s": per_round(layer_self_time(totals, "evaluation")),
        "evaluation.trunc_cells": per_round(counters["evaluation.trunc_cells"]),
        "metrics.bleu_s": own("metrics.bleu"),
        "metrics.rouge_lsum_s": own("metrics.rouge_lsum"),
        "trace.overhead_pct": overhead_pct,
    }
    for metric, span in _SETUP_SPANS.items():
        out[metric] = setup_totals.get(span, 0.0)
    return {name: (out[name], unit) for name, unit in PER_LAYER.items()}


def layer_table(rounds, n_rounds):
    """Self seconds per traced round for every layer, for the summary."""
    totals = self_time_by_name(rounds.spans)
    return {layer: layer_self_time(totals, layer) / n_rounds for layer in LAYERS}
