"""Length-generalization toolkit: lambda-shaped attention masking, clamped
positional encodings, a bounded streaming KV cache, a small trainable
decoder-only transformer, and evaluation/diagnostics utilities."""

from lm_infinite.attention import AttentionConfig, attend
from lm_infinite.corpus import (
    SENTENCE_SEP,
    SyntheticLanguage,
    load_corpus,
    save_corpus,
)
from lm_infinite.diagnostics import (
    DiagnosticsReport,
    position_separation,
    project_states,
    run_diagnostics,
)
from lm_infinite.encoding import AlibiParams, RopeParams, default_alibi_slopes
from lm_infinite.errors import (
    CacheStateError,
    CorpusFormatError,
    NanDetectedError,
    TrainingDivergedError,
)
from lm_infinite.evaluation import (
    EvalReport,
    MilestoneSpec,
    bench,
    continuation_eval,
    nll_curve,
    parse_milestones,
    run_eval,
    truncation_baseline,
    write_eval_csv,
)
from lm_infinite.kv_cache import KvCache
from lm_infinite.masking import (
    LambdaMask,
    MaskParams,
    build_mask,
    effective_distance,
    mask_density,
)
from lm_infinite.metrics import bleu, rouge_lsum
from lm_infinite.model import (
    DecodeSession,
    ToyModel,
    ToyModelConfig,
    TrainResult,
    forward,
    forward_traced,
    generate,
    init,
    load_model,
    loss_and_grads,
    save_model,
    train,
)

__all__ = [
    "AlibiParams",
    "AttentionConfig",
    "CacheStateError",
    "CorpusFormatError",
    "DecodeSession",
    "DiagnosticsReport",
    "EvalReport",
    "KvCache",
    "LambdaMask",
    "MaskParams",
    "MilestoneSpec",
    "NanDetectedError",
    "RopeParams",
    "SENTENCE_SEP",
    "SyntheticLanguage",
    "ToyModel",
    "ToyModelConfig",
    "TrainingDivergedError",
    "TrainResult",
    "attend",
    "bench",
    "bleu",
    "build_mask",
    "continuation_eval",
    "default_alibi_slopes",
    "effective_distance",
    "forward",
    "forward_traced",
    "generate",
    "init",
    "load_corpus",
    "load_model",
    "loss_and_grads",
    "mask_density",
    "nll_curve",
    "parse_milestones",
    "position_separation",
    "project_states",
    "rouge_lsum",
    "run_diagnostics",
    "run_eval",
    "save_corpus",
    "save_model",
    "train",
    "truncation_baseline",
    "write_eval_csv",
]

__version__ = "0.1.0"
