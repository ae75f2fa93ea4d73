"""Command-line entry point: mask inspection, training, generation,
diagnostics, evaluation, benchmarks.

Configuration precedence: explicit flags > --config file (flat key=value
lines) > built-in defaults. Subcommands that write artifacts echo the
fully-resolved settings to effective_config.txt in the output directory.
Exit codes: 0 success, 1 runtime/I-O failure (message names the path),
2 usage errors (argparse).

The LMINF_THREADS environment variable caps numerical parallelism; it is
applied before numpy is first imported, which is why all heavy imports in
this module are deferred into the subcommand bodies.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

_MODE_NAMES = {"vanilla": "vanilla_causal", "lambda": "lambda"}


def _setup_threads() -> None:
    cap = os.environ.get("LMINF_THREADS")
    if not cap:
        return  # default: whatever the BLAS picks (hardware count)
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(var, cap)


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

_MODEL_DEFAULTS = {
    "vocab_size": 256,
    "d_model": 128,
    "n_layers": 4,
    "n_heads": 4,
    "train_len": 128,
    "n_global": 16,
    "n_local": 128,
    "l_pretrain": 128,
    "encoding": "rope",
    "rope_base": 10000.0,
    "mode": "lambda",
}

_DEFAULTS = {
    "mask": {"seq_len": None, "n_global": 1, "n_local": 2, "format": "ranges"},
    "train": {
        **_MODEL_DEFAULTS,
        "corpus": None,
        "steps": 600,
        "lr": 1e-3,
        "batch": 16,
        "seed": 0,
        "out": "runs/train",
        "synthetic_sequences": 24,
        "synthetic_length": None,
    },
    "generate": {
        "model": None,
        "prompt": None,
        "n_new": 100,
        "mode": None,
    },
    "diag": {
        "model": None,
        "corpus": None,
        "layer": 0,
        "head": 0,
        "mode": None,
        "probe_len": None,
        "out": "runs/diag",
        "seed": 0,
    },
    "eval": {
        "model": None,
        "corpus": None,
        "mode": "both",
        "milestones": "1x,2x,4x,8x,16x",
        "gen_len": 100,
        "out": "runs/eval",
        "n_global": None,
        "n_local": None,
        "l_pretrain": None,
        "skip_continuation": False,
    },
    "bench": {
        "model": None,
        "seq_len": 512,
        "mode": "lambda",
        "repeats": 5,
        "decode_tokens": 32,
        "out": None,
        "seed": 0,
    },
}


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"{path}: line {lineno}: expected key=value, got {line!r}")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _coerce(value, template):
    if isinstance(value, str):
        if isinstance(template, bool):
            low = value.lower()
            if low in ("1", "true", "yes"):
                return True
            if low in ("0", "false", "no"):
                return False
            raise ValueError(f"not a boolean: {value!r}")
        if isinstance(template, int):
            return int(value)
        if isinstance(template, float):
            return float(value)
    return value


def _resolve(sub: str, args: argparse.Namespace) -> dict:
    """flags > config file > defaults, with config-file strings coerced."""
    defaults = _DEFAULTS[sub]
    from_file = {}
    if getattr(args, "config", None):
        raw = _read_config_file(args.config)
        unknown = set(raw) - set(defaults)
        if unknown:
            raise ValueError(
                f"{args.config}: unknown keys for {sub}: {', '.join(sorted(unknown))}"
            )
        template = {k: defaults[k] for k in raw}
        from_file = {
            k: _coerce(v, template[k]) if template[k] is not None else v
            for k, v in raw.items()
        }
    resolved = {}
    for key, default in defaults.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in from_file:
            resolved[key] = from_file[key]
        else:
            resolved[key] = default
    return resolved


def _write_effective_config(resolved: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"{k}={resolved[k]}" for k in sorted(resolved)]
    (out_dir / "effective_config.txt").write_text("\n".join(lines) + "\n", "utf-8")


def _internal_mode(name: str | None):
    if name is None:
        return None
    if name in _MODE_NAMES:
        return _MODE_NAMES[name]
    if name in _MODE_NAMES.values() or name == "both":
        return name
    raise ValueError(f"mode must be 'vanilla' or 'lambda', got {name!r}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lm-infinite",
        description="Length-generalization toolkit: lambda-masked attention, "
        "bounded KV cache, toy transformer, diagnostics and evaluation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed):
        p.add_argument("--config", help="flat key=value config file")
        if seed:
            p.add_argument("--seed", type=int, help="master seed (default 0)")

    p = subs.add_parser("mask", help="print a lambda attention mask")
    p.add_argument("--seq-len", dest="seq_len", type=int, required=True)
    p.add_argument("--n-global", dest="n_global", type=int)
    p.add_argument("--n-local", dest="n_local", type=int)
    p.add_argument("--format", choices=("ranges", "dense"))
    add_common(p, seed=False)

    p = subs.add_parser("train", help="train the toy model")
    add_common(p, seed=True)
    p.add_argument("--corpus", help="token corpus (text or LMTS); synthetic if omitted")
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch", type=int)
    p.add_argument("--out", help="output directory")
    p.add_argument("--synthetic-sequences", dest="synthetic_sequences", type=int)
    p.add_argument("--synthetic-length", dest="synthetic_length", type=int)
    for key in ("vocab-size", "d-model", "n-layers", "n-heads", "train-len",
                "n-global", "n-local", "l-pretrain"):
        p.add_argument(f"--{key}", dest=key.replace("-", "_"), type=int)
    p.add_argument("--encoding", choices=("rope", "alibi"))
    p.add_argument("--rope-base", dest="rope_base", type=float)
    p.add_argument("--mode", choices=("vanilla", "lambda"))

    p = subs.add_parser("generate", help="greedy continuation from a prompt")
    add_common(p, seed=False)
    p.add_argument("--model", required=True, help="checkpoint path (.lmtm)")
    p.add_argument("--prompt", required=True,
                   help="space-separated token ids, or @FILE to read them")
    p.add_argument("--n-new", dest="n_new", type=int)
    p.add_argument("--mode", choices=("vanilla", "lambda"))

    p = subs.add_parser("diag", help="OOD diagnostics; writes three CSVs")
    add_common(p, seed=True)
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", help="probe tokens come from its first sequence")
    p.add_argument("--layer", type=int)
    p.add_argument("--head", type=int)
    p.add_argument("--mode", choices=("vanilla", "lambda"))
    p.add_argument("--probe-len", dest="probe_len", type=int)
    p.add_argument("--out")

    p = subs.add_parser("eval", help="NLL/perplexity and continuation scores")
    add_common(p, seed=False)
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", choices=("vanilla", "lambda", "both"))
    p.add_argument("--milestones", help='e.g. "1x,2x,8x" or "128,512"')
    p.add_argument("--gen-len", dest="gen_len", type=int)
    p.add_argument("--out")
    p.add_argument("--skip-continuation", dest="skip_continuation",
                   action="store_const", const=True)
    for key in ("n-global", "n-local", "l-pretrain"):
        p.add_argument(f"--{key}", dest=key.replace("-", "_"), type=int,
                       help="override the checkpoint's mask parameter")

    p = subs.add_parser("bench", help="encode/decode wall-clock timings")
    add_common(p, seed=True)
    p.add_argument("--model", help="checkpoint; a fresh default model if omitted")
    p.add_argument("--seq-len", dest="seq_len", type=int)
    p.add_argument("--mode", choices=("vanilla", "lambda"))
    p.add_argument("--repeats", type=int)
    p.add_argument("--decode-tokens", dest="decode_tokens", type=int)
    p.add_argument("--out")
    return parser


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_mask(args) -> int:
    cfg = _resolve("mask", args)
    from lm_infinite.masking import MaskParams, build_mask

    params = MaskParams(
        n_global=cfg["n_global"],
        n_local=cfg["n_local"],
        l_pretrain=max(cfg["seq_len"], cfg["n_local"]),
    )
    mask = build_mask(cfg["seq_len"], params)
    if cfg["format"] == "ranges":
        for i in range(mask.seq_len):
            g_lo, g_hi, l_lo, l_hi = mask.row_ranges(i)
            print(f"{i}: global=[{g_lo},{g_hi}) local=[{l_lo},{l_hi})")
    else:
        dense = mask.dense()
        for row in dense:
            print("".join("1" if x else "0" for x in row))
    return 0


def _load_model(path):
    from lm_infinite.model import load_model

    if not Path(path).exists():
        raise OSError(f"model checkpoint not found: {path}")
    return load_model(path)


def _load_corpus(path):
    from lm_infinite.corpus import load_corpus

    if not Path(path).exists():
        raise OSError(f"corpus file not found: {path}")
    return load_corpus(path)


def _cmd_train(args) -> int:
    cfg = _resolve("train", args)
    from lm_infinite.corpus import SyntheticLanguage, save_corpus
    from lm_infinite.model import ToyModelConfig, init, save_model, train

    model_config = ToyModelConfig(
        vocab_size=cfg["vocab_size"],
        d_model=cfg["d_model"],
        n_layers=cfg["n_layers"],
        n_heads=cfg["n_heads"],
        train_len=cfg["train_len"],
        n_global=cfg["n_global"],
        n_local=cfg["n_local"],
        l_pretrain=cfg["l_pretrain"],
        encoding=cfg["encoding"],
        rope_base=cfg["rope_base"],
        mode=_internal_mode(cfg["mode"]),
        seed=cfg["seed"],
    )
    out = Path(cfg["out"])
    _write_effective_config(cfg, out)

    if cfg["corpus"]:
        corpus = _load_corpus(cfg["corpus"])
    else:
        length = cfg["synthetic_length"] or 17 * model_config.train_len
        lang = SyntheticLanguage(vocab_size=model_config.vocab_size, seed=cfg["seed"])
        corpus = lang.sample(cfg["synthetic_sequences"], length)
        save_corpus(corpus, out / "corpus.txt")

    model = init(model_config)
    result = train(
        model, corpus, steps=cfg["steps"], lr=cfg["lr"],
        batch_shape=(cfg["batch"], None), seed=cfg["seed"],
    )
    save_model(result.model, out / "model.lmtm")
    with open(out / "loss.csv", "w", encoding="utf-8") as fh:
        fh.write("step,loss\n")
        for i, loss in enumerate(result.loss_trace):
            fh.write(f"{i},{loss!r}\n")
    last = result.loss_trace[-1] if result.loss_trace else float("nan")
    print(f"trained {cfg['steps']} steps; final loss {last:.4f}; "
          f"model -> {out / 'model.lmtm'}")
    return 0


def _cmd_generate(args) -> int:
    cfg = _resolve("generate", args)
    import numpy as np

    from lm_infinite.model import DecodeSession, generate

    model = _load_model(cfg["model"])
    raw = cfg["prompt"]
    if raw.startswith("@"):
        path = raw[1:]
        if not Path(path).exists():
            raise OSError(f"prompt file not found: {path}")
        raw = Path(path).read_text(encoding="utf-8")
    prompt = np.asarray([int(t) for t in raw.split()], dtype=np.int64)
    if prompt.size == 0:
        raise ValueError("prompt must contain at least one token id")
    mode = _internal_mode(cfg["mode"]) or model.config.mode
    session = DecodeSession(model, mode)
    out = generate(model, prompt, cfg["n_new"], mode=mode, cache=session)
    print(" ".join(str(int(t)) for t in out))
    return 0


def _cmd_diag(args) -> int:
    cfg = _resolve("diag", args)
    import numpy as np

    from lm_infinite.diagnostics import (
        run_diagnostics,
        write_entropy_csv,
        write_logits_csv,
        write_pca_csv,
    )

    model = _load_model(cfg["model"])
    if cfg["corpus"]:
        corpus = _load_corpus(cfg["corpus"])
        if not corpus:
            raise ValueError(f"{cfg['corpus']}: empty corpus, nothing to probe")
        probe = corpus[0]
    else:
        from lm_infinite.corpus import SyntheticLanguage

        lang = SyntheticLanguage(vocab_size=model.config.vocab_size, seed=cfg["seed"])
        probe = lang.sample(1, 8 * model.config.train_len)[0]
    if cfg["probe_len"]:
        probe = probe[: cfg["probe_len"]]
    probe = np.asarray(probe)

    mode = _internal_mode(cfg["mode"]) or model.config.mode
    report = run_diagnostics(
        model, probe, layer=cfg["layer"], head=cfg["head"], mode=mode
    )
    out = Path(cfg["out"])
    _write_effective_config(cfg, out)
    write_entropy_csv(report.entropy_curve, out / "entropy.csv")
    write_logits_csv(report.logit_stats, out / "logits.csv")
    write_pca_csv(report.pca_projection, out / "pca.csv")
    print(f"probe length {probe.size}, mode {mode}; "
          f"logit bound B = {report.logit_bound:.4f}; reports -> {out}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _resolve("eval", args)
    from dataclasses import replace

    from lm_infinite.evaluation import parse_milestones, run_eval, write_eval_csv
    from lm_infinite.model import ToyModel

    model = _load_model(cfg["model"])
    overrides = {
        k: cfg[k] for k in ("n_global", "n_local", "l_pretrain") if cfg[k] is not None
    }
    if overrides:
        model = ToyModel(replace(model.config, **overrides), model.params)
    corpus = _load_corpus(cfg["corpus"])
    spec = parse_milestones(cfg["milestones"], model.config.train_len)
    mode = _internal_mode(cfg["mode"])
    modes = ("lambda", "vanilla_causal") if mode == "both" else (mode,)

    report = run_eval(
        model, corpus, spec, modes=modes, gen_len=cfg["gen_len"],
        with_continuation=not cfg["skip_continuation"],
    )
    out = Path(cfg["out"])
    _write_effective_config(cfg, out)
    write_eval_csv(report, out / "eval.csv")
    for mode_name, points in report.nll.items():
        for p in points:
            print(f"{mode_name} @ {p.milestone}: nll={p.nll:.4f} "
                  f"ppl={p.perplexity:.2f} (n={p.n_sequences}, skipped={p.n_skipped})")
    print(f"report -> {out / 'eval.csv'}")
    return 0


def _cmd_bench(args) -> int:
    cfg = _resolve("bench", args)
    from lm_infinite.evaluation import bench
    from lm_infinite.model import ToyModelConfig, init

    if cfg["model"]:
        model = _load_model(cfg["model"])
    else:
        model = init(ToyModelConfig(seed=cfg["seed"]))
    mode = _internal_mode(cfg["mode"])
    res = bench(model, cfg["seq_len"], mode=mode, repeats=cfg["repeats"],
                decode_tokens=cfg["decode_tokens"])
    line = (f"mode={res.mode} seq_len={res.seq_len} "
            f"encode_s={res.encode_seconds:.4f} "
            f"decode_s_per_token={res.decode_seconds_per_token:.6f} "
            f"peak_cache_entries={res.peak_cache_entries}")
    print(line)
    if cfg["out"]:
        out = Path(cfg["out"])
        _write_effective_config(cfg, out)
        with open(out / "bench.csv", "w", encoding="utf-8") as fh:
            fh.write("mode,seq_len,encode_seconds,decode_seconds_per_token,"
                     "peak_cache_entries,repeats\n")
            fh.write(f"{res.mode},{res.seq_len},{res.encode_seconds!r},"
                     f"{res.decode_seconds_per_token!r},{res.peak_cache_entries},"
                     f"{res.repeats}\n")
    return 0


_COMMANDS = {
    "mask": _cmd_mask,
    "train": _cmd_train,
    "generate": _cmd_generate,
    "diag": _cmd_diag,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    _setup_threads()
    parser = build_parser()
    args = parser.parse_args(argv)
    from lm_infinite.errors import CorpusFormatError  # light import

    try:
        return _COMMANDS[args.command](args)
    except (OSError, CorpusFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
