"""Command-line entry point: mask inspection, training, generation,
diagnostics, evaluation, benchmarks.

Each setting of a subcommand is declared once, as an ``Option``: its name
(the ``--flag`` and the config-file key), type, choices and default. The
model settings of ``train`` are derived from ``ToyModelConfig``'s fields.
argparse and the ``--config`` reader both parse through that declaration,
so a config-file value is accepted exactly when the same text is accepted
by its flag, and becomes the same value.

Configuration precedence: explicit flags > --config file (flat key=value
lines) > built-in defaults. Subcommands that write artifacts echo the
fully-resolved settings to effective_config.txt in the output directory.
Exit codes: 0 success, 1 runtime/I-O failure (the message names the path,
and the line for a config file), 2 usage errors (argparse).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from lm_infinite.corpus import SyntheticLanguage, load_corpus, parse_text_line, save_corpus
from lm_infinite.diagnostics import (
    run_diagnostics,
    write_entropy_csv,
    write_logits_csv,
    write_pca_csv,
)
from lm_infinite.errors import CorpusFormatError, NanDetectedError, TrainingDivergedError
from lm_infinite.evaluation import bench, parse_milestones, run_eval, write_eval_csv
from lm_infinite.masking import MaskParams, build_mask
from lm_infinite.model import (
    ENCODINGS,
    ToyModel,
    ToyModelConfig,
    _check_ids,
    generate,
    init,
    load_model,
    save_model,
    train,
)

_MODE_NAMES = {"vanilla": "vanilla_causal", "lambda": "lambda"}


# ---------------------------------------------------------------------------
# Settings
# ---------------------------------------------------------------------------


def _switch(text: str) -> bool:
    """Config-file value of an on/off flag (the flag itself takes no value)."""
    low = text.lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class Option:
    """One setting: ``--name`` on the command line, ``name=`` in a config
    file, both converted by ``type`` and checked against ``choices``."""

    name: str
    type: Callable = str
    default: object = None
    choices: tuple | None = None
    required: bool = False
    help: str | None = None

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        help_text = self.help
        if self.default is not None:
            help_text = f"{help_text or ''} (default {self.default})".lstrip()
        kwargs = dict(dest=self.name, required=self.required, help=help_text)
        if self.type is _switch:
            kwargs.update(action="store_const", const=True)
        else:
            kwargs.update(type=self.type, choices=self.choices)
        parser.add_argument("--" + self.name.replace("_", "-"), **kwargs)

    def parse(self, text: str):
        """Convert config-file text as argparse converts the flag's."""
        value = self.type(text)
        if self.choices is not None and value not in self.choices:
            raise ValueError(
                f"invalid choice {value!r} (choose from {', '.join(self.choices)})"
            )
        return value


def _options(*options: Option) -> dict:
    return {opt.name: opt for opt in options}


_MODEL = _options(*(
    Option(f.name, type(f.default), f.default,
           choices=ENCODINGS if f.name == "encoding" else None,
           help="master seed" if f.name == "seed" else None)
    for f in fields(ToyModelConfig)
))
_MODE = Option("mode", default="lambda", choices=tuple(_MODE_NAMES))


def _read_config_file(path: str, options: dict) -> dict:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from None
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise ValueError(
            f"{path}: line {line}: not UTF-8 (byte {exc.start})"
        ) from None
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"{path}: line {lineno}: expected key=value, got {line!r}")
        key = key.strip().replace("-", "_")
        if key not in options:
            raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{path}: line {lineno}: repeated key {key!r}")
        try:
            values[key] = options[key].parse(value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {key}: {exc}") from None
    return values


def _resolve(options: dict, args: argparse.Namespace) -> dict:
    """flags > config file > defaults."""
    from_file = _read_config_file(args.config, options) if args.config else {}
    resolved = {}
    for name, opt in options.items():
        value = getattr(args, name)
        resolved[name] = from_file.get(name, opt.default) if value is None else value
    return resolved


def _write_effective_config(resolved: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"{k}={resolved[k]}" for k in sorted(resolved)]
    (out_dir / "effective_config.txt").write_text("\n".join(lines) + "\n", "utf-8")


def _internal_mode(name: str | None):
    return _MODE_NAMES.get(name, name)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_mask(cfg) -> int:
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
    if not Path(path).exists():
        raise OSError(f"model checkpoint not found: {path}")
    return load_model(path)


def _load_corpus(path):
    if not Path(path).exists():
        raise OSError(f"corpus file not found: {path}")
    return load_corpus(path)


def _check_corpus_ids(path, sequences, vocab_size) -> None:
    """Name the path and sequence of an id outside the vocabulary, as train does."""
    for i, seq in enumerate(sequences):
        if len(seq):  # an empty sequence is skipped and counted, not rejected
            try:
                _check_ids(seq, vocab_size)
            except ValueError as exc:
                raise CorpusFormatError(f"{path}: corpus sequence {i}: {exc}") from None


def _cmd_train(cfg) -> int:
    if cfg["steps"] < 1:
        raise ValueError(f"--steps must be >= 1, got {cfg['steps']}")
    if cfg["synthetic_length"] is not None and cfg["synthetic_length"] < 1:
        raise ValueError(
            f"--synthetic-length must be >= 1, got {cfg['synthetic_length']}"
        )
    model_config = ToyModelConfig(**{name: cfg[name] for name in _MODEL})
    if cfg["corpus"]:
        corpus, source = _load_corpus(cfg["corpus"]), cfg["corpus"]
    else:
        length = cfg["synthetic_length"]
        if length is None:
            length = 17 * model_config.train_len
        lang = SyntheticLanguage(vocab_size=model_config.vocab_size, seed=cfg["seed"])
        corpus = lang.sample(cfg["synthetic_sequences"], length)
        source = f"synthetic corpus ({len(corpus)} x {length} tokens)"

    model = init(model_config)
    try:
        result = train(
            model, corpus, steps=cfg["steps"], lr=cfg["lr"],
            batch_shape=(cfg["batch"], None), seed=cfg["seed"],
        )
    except CorpusFormatError as exc:
        raise CorpusFormatError(f"{source}: {exc}") from None
    # Written only after training, so rejected inputs leave no --out directory.
    out = Path(cfg["out"])
    _write_effective_config(cfg, out)
    if not cfg["corpus"]:
        save_corpus(corpus, out / "corpus.txt")
    save_model(result.model, out / "model.lmtm")
    with open(out / "loss.csv", "w", encoding="utf-8") as fh:
        fh.write("step,loss,step_seconds,grad_norm,update_norm\n")
        rows = zip(result.loss_trace, result.step_seconds, result.grad_norm,
                   result.update_norm)
        for i, (loss, seconds, grad, update) in enumerate(rows):
            fh.write(f"{i},{loss!r},{seconds!r},{grad!r},{update!r}\n")
    print(f"trained {cfg['steps']} steps; final loss {result.loss_trace[-1]:.4f}; "
          f"model -> {out / 'model.lmtm'}")
    return 0


def _cmd_generate(cfg) -> int:
    model = _load_model(cfg["model"])
    raw, source = cfg["prompt"], "--prompt"
    if raw.startswith("@"):
        source = raw[1:]
        if not Path(source).exists():
            raise OSError(f"prompt file not found: {source}")
        try:
            raw = Path(source).read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{source}: prompt file is not UTF-8 text") from None
    ids = parse_text_line(raw, source)
    try:
        _check_ids(ids, model.config.vocab_size)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    out = generate(model, ids, cfg["n_new"], mode=_internal_mode(cfg["mode"]))
    print(" ".join(str(int(t)) for t in out))
    return 0


def _cmd_diag(cfg) -> int:
    model = _load_model(cfg["model"])
    if cfg["corpus"]:
        corpus = _load_corpus(cfg["corpus"])
        if not corpus:
            raise ValueError(f"{cfg['corpus']}: empty corpus, nothing to probe")
        probe = corpus[0]
    else:
        lang = SyntheticLanguage(vocab_size=model.config.vocab_size, seed=cfg["seed"])
        probe = lang.sample(1, 8 * model.config.train_len)[0]
    if cfg["probe_len"] is not None:
        if cfg["probe_len"] < 1:
            raise ValueError(f"probe_len must be >= 1, got {cfg['probe_len']}")
        probe = probe[: cfg["probe_len"]]
    probe = np.asarray(probe)
    if cfg["corpus"]:  # the probe is the corpus's sequence 0
        _check_corpus_ids(cfg["corpus"], [probe], model.config.vocab_size)

    mode = _internal_mode(cfg["mode"])
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


def _cmd_eval(cfg) -> int:
    model = _load_model(cfg["model"])
    overrides = {
        k: cfg[k] for k in ("n_global", "n_local", "l_pretrain") if cfg[k] is not None
    }
    if overrides:
        model = ToyModel(replace(model.config, **overrides), model.params)
    corpus = _load_corpus(cfg["corpus"])
    _check_corpus_ids(cfg["corpus"], corpus, model.config.vocab_size)
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


def _cmd_bench(cfg) -> int:
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


@dataclass(frozen=True)
class _Subcommand:
    help: str
    run: Callable[[dict], int]
    options: dict


_SUBCOMMANDS = {
    "mask": _Subcommand("print a lambda attention mask", _cmd_mask, _options(
        Option("seq_len", int, required=True),
        Option("n_global", int, 1),
        Option("n_local", int, 2),
        Option("format", default="ranges", choices=("ranges", "dense")),
    )),
    "train": _Subcommand("train the toy model", _cmd_train, _options(
        Option("corpus", help="token corpus (text or LMTS); synthetic if omitted"),
        Option("steps", int, 600),
        Option("lr", float, 1e-3),
        Option("batch", int, 16),
        Option("out", default="runs/train", help="output directory"),
        Option("synthetic_sequences", int, 24),
        Option("synthetic_length", int),
        *_MODEL.values(),
    )),
    "generate": _Subcommand("greedy continuation from a prompt", _cmd_generate, _options(
        Option("model", required=True, help="checkpoint path (.lmtm)"),
        Option("prompt", required=True,
               help="space-separated token ids, or @FILE to read them"),
        Option("n_new", int, 100),
        _MODE,
    )),
    "diag": _Subcommand("OOD diagnostics; writes three CSVs", _cmd_diag, _options(
        _MODEL["seed"],
        Option("model", required=True),
        Option("corpus", help="probe tokens come from its first sequence"),
        Option("layer", int, 0),
        Option("head", int, 0),
        _MODE,
        Option("probe_len", int),
        Option("out", default="runs/diag"),
    )),
    "eval": _Subcommand("NLL/perplexity and continuation scores", _cmd_eval, _options(
        Option("model", required=True),
        Option("corpus", required=True),
        replace(_MODE, default="both", choices=(*_MODE_NAMES, "both")),
        Option("milestones", default="1x,2x,4x,8x,16x",
               help='e.g. "1x,2x,8x" or "128,512"'),
        Option("gen_len", int, 100),
        Option("out", default="runs/eval"),
        Option("skip_continuation", _switch, False),
        *(replace(_MODEL[name], default=None,
                  help="override the checkpoint's mask parameter")
          for name in ("n_global", "n_local", "l_pretrain")),
    )),
    "bench": _Subcommand("encode/decode wall-clock timings", _cmd_bench, _options(
        _MODEL["seed"],
        Option("model", help="checkpoint; a fresh default model if omitted"),
        Option("seq_len", int, 512),
        _MODE,
        Option("repeats", int, 5),
        Option("decode_tokens", int, 32),
        Option("out"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lm-infinite",
        description="Length-generalization toolkit: lambda-masked attention, "
        "bounded KV cache, toy transformer, diagnostics and evaluation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in _SUBCOMMANDS.items():
        p = subs.add_parser(name, help=command.help)
        p.add_argument("--config", help="flat key=value config file")
        for opt in command.options.values():
            opt.add_to(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = _SUBCOMMANDS[args.command]
    try:
        return command.run(_resolve(command.options, args))
    except (OSError, ValueError, NanDetectedError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
