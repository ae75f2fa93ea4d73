"""CLI contract tests: run main() in-process, assert on files and exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import rewrite_config

from lm_infinite import cli
from lm_infinite.corpus import save_corpus
from lm_infinite.errors import NanDetectedError
from lm_infinite.masking import MaskParams, build_mask
from lm_infinite.model import load_model, save_model

TINY = [
    "--vocab-size", "31", "--d-model", "16", "--n-layers", "2",
    "--n-heads", "2", "--train-len", "16", "--n-global", "2",
    "--n-local", "8", "--l-pretrain", "16",
]


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    """One tiny training run shared by the generate/diag/eval/bench tests."""
    out = tmp_path_factory.mktemp("cli_train")
    rc = cli.main(
        ["train", *TINY, "--steps", "3", "--batch", "2", "--lr", "1e-3",
         "--seed", "7", "--synthetic-sequences", "4",
         "--synthetic-length", "48", "--out", str(out)]
    )
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# mask
# ---------------------------------------------------------------------------


def test_mask_ranges_five_rows(capsys):
    # Hand-enumerable 5-token case: one sticky head token, local width 2.
    rc = cli.main(["mask", "--seq-len", "5", "--n-global", "1",
                   "--n-local", "2", "--format", "ranges"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [
        "0: global=[0,0) local=[0,1)",
        "1: global=[0,0) local=[0,2)",
        "2: global=[0,1) local=[1,3)",
        "3: global=[0,1) local=[2,4)",
        "4: global=[0,1) local=[3,5)",
    ]


def test_mask_dense_matches_library(capsys):
    rc = cli.main(["mask", "--seq-len", "9", "--n-global", "2",
                   "--n-local", "3", "--format", "dense"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    grid = np.array([[c == "1" for c in line] for line in lines])
    mask = build_mask(9, MaskParams(n_global=2, n_local=3, l_pretrain=9))
    assert grid.shape == (9, 9)
    assert np.array_equal(grid, mask.dense())


def test_mask_defaults_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "mask.cfg"
    cfg.write_text("n-global=1\nn_local=2\nformat=ranges\n")
    rc = cli.main(["mask", "--seq-len", "5", "--config", str(cfg)])
    assert rc == 0
    assert "4: global=[0,1) local=[3,5)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# argparse contracts
# ---------------------------------------------------------------------------


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--help"])
    assert exc.value.code == 0


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["mask", "--seq-len", "5", "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args", [["eval", "--corpus", "c.txt"],
                                  ["generate", "--prompt", "1"]])
def test_seed_flag_only_where_read(args, capsys):
    # eval and generate draw no random numbers, so they take no --seed.
    with pytest.raises(SystemExit) as exc:
        cli.main([*args, "--model", "m.lmtm", "--seed", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_missing_required_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["generate", "--n-new", "3"])  # no --model/--prompt
    assert exc.value.code == 2


def test_missing_model_file_exit_one_names_path(capsys):
    rc = cli.main(["generate", "--model", "/no/such/model.lmtm",
                   "--prompt", "1 2 3"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "/no/such/model.lmtm" in err


def test_truncated_model_exit_one_names_path_and_byte(trained_dir, tmp_path, capsys):
    blob = (trained_dir / "model.lmtm").read_bytes()
    cut = tmp_path / "cut.lmtm"
    cut.write_bytes(blob[: len(blob) // 2 + 1])
    rc = cli.main(["generate", "--model", str(cut), "--prompt", "1 2 3"])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(cut) in err and f"byte {len(blob) // 2 + 1}" in err


@pytest.mark.parametrize("edits, tensors, message", [
    ({b"d_model=16\n": b"d_model=1000000000000\n"}, False, "tensors need"),
    ({b"n_layers=2\n": b"n_layers=3000000\n"}, False, "tensors need"),
    ({b"n_global=2\n": b"n_global=2\nn_global=3\n"}, True, "repeated config key"),
])
def test_forged_model_header_exit_one(edits, tensors, message, trained_dir, tmp_path,
                                      capsys):
    blob = (trained_dir / "model.lmtm").read_bytes()
    forged = tmp_path / "forged.lmtm"
    forged.write_bytes(rewrite_config(blob, edits, tensors))
    rc = cli.main(["generate", "--model", str(forged), "--prompt", "1 2 3"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {forged}: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_generate_with_huge_forged_window_allocates_what_it_uses(trained_dir, tmp_path,
                                                                  capsys):
    # A valid header whose window sizes no stream reaches: the cache grows
    # with the tokens it holds, so generate runs, and with every key pinned
    # and no distance clamped the lambda mask is the causal one.
    huge = b"100000000000"
    edits = {b"n_global=2\n": b"n_global=" + huge + b"\n",
             b"n_local=8\n": b"n_local=" + huge + b"\n",
             b"l_pretrain=16\n": b"l_pretrain=" + huge + b"\n"}
    forged = tmp_path / "huge.lmtm"
    forged.write_bytes(rewrite_config((trained_dir / "model.lmtm").read_bytes(), edits))
    args = ["generate", "--model", str(forged), "--prompt", "1 2 3 4", "--n-new", "6"]
    tokens = {}
    for mode in ("lambda", "vanilla"):
        rc = cli.main([*args, "--mode", mode])
        out = capsys.readouterr()
        assert rc == 0 and "Traceback" not in out.err, out.err
        tokens[mode] = [int(t) for t in out.out.split()]
    assert len(tokens["lambda"]) == 6
    assert tokens["lambda"] == tokens["vanilla"]
    assert load_model(forged).config.n_local == int(huge)


def test_missing_corpus_file_exit_one_names_path(trained_dir, capsys):
    rc = cli.main(["eval", "--model", str(trained_dir / "model.lmtm"),
                   "--corpus", "/no/such/corpus.txt"])
    assert rc == 1
    assert "/no/such/corpus.txt" in capsys.readouterr().err


def test_truncated_corpus_exit_one_names_path(trained_dir, tmp_path, capsys):
    cut = tmp_path / "cut.lmts"
    save_corpus([np.arange(10, dtype=np.uint32)], cut, binary=True)
    cut.write_bytes(cut.read_bytes()[:6])  # inside the version field
    rc = cli.main(["eval", "--model", str(trained_dir / "model.lmtm"),
                   "--corpus", str(cut)])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(cut) in err and "byte 6" in err


def test_bad_config_key_exit_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("steps=2\nbananas=9\n")
    rc = cli.main(["train", *TINY, "--config", str(cfg), "--out",
                   str(tmp_path / "out")])
    assert rc == 1
    assert "bananas" in capsys.readouterr().err


@pytest.mark.parametrize("sub, text, line", [
    ("mask", "n_global=1\nformat=grid\n", 2),
    ("train", "# steps below\n\nsteps=abc\n", 3),
    ("train", "steps=2\n\xff\n", 2),
    ("train", "steps=1\n# again\nsteps=2\n", 3),
])
def test_bad_config_value_names_path_and_line(sub, text, line, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(text.encode("latin-1"))
    args = ["--seq-len", "5"] if sub == "mask" else [*TINY, "--out", str(tmp_path)]
    rc = cli.main([sub, *args, "--config", str(cfg)])
    assert rc == 1
    assert f"{cfg}: line {line}:" in capsys.readouterr().err


def test_config_every_truncation_exits_cleanly(tmp_path, capsys):
    # Each cut must run (exit 0) or exit 1 naming the file and the line;
    # a cut inside the two-byte UTF-8 characters makes the text invalid.
    blob = "# Λ-mask défaut\nn-global=1\nn_local=2\nformat=ranges\n".encode()
    cfg = tmp_path / "cut.cfg"
    for cut in range(len(blob) + 1):
        cfg.write_bytes(blob[:cut])
        rc = cli.main(["mask", "--seq-len", "5", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc in (0, 1), cut
        if rc == 1:
            assert f"{cfg}: line " in err, (cut, err)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_artifacts(trained_dir):
    assert (trained_dir / "model.lmtm").exists()
    assert (trained_dir / "corpus.txt").exists()
    model = load_model(trained_dir / "model.lmtm")
    assert model.config.vocab_size == 31
    assert model.config.train_len == 16
    loss_lines = (trained_dir / "loss.csv").read_text().strip().splitlines()
    assert loss_lines[0] == "step,loss,step_seconds,grad_norm,update_norm"
    assert len(loss_lines) == 1 + 3  # header + one row per step
    for i, line in enumerate(loss_lines[1:]):
        step, *values = line.split(",")
        assert int(step) == i
        assert len(values) == 4 and all(float(x) > 0 for x in values)
    eff = (trained_dir / "effective_config.txt").read_text()
    assert "steps=3" in eff
    assert "seed=7" in eff


@pytest.mark.parametrize("flag, value", [
    ("--steps", "0"), ("--steps", "-1"),
    ("--synthetic-length", "0"), ("--synthetic-length", "-5"),
])
def test_train_rejects_nonpositive_counts(flag, value, tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["train", *TINY, "--steps", "1", "--batch", "2",
            "--synthetic-sequences", "3", "--out", str(out)]
    rc = cli.main([*argv, flag, value])
    assert rc == 1
    assert f"{flag} must be >= 1, got {value}" in capsys.readouterr().err
    assert not out.exists()  # nothing written, not even an untrained model


@pytest.mark.parametrize("flag, value, message", [
    ("--n-heads", "0", "n_heads must be >= 1, got 0"),
    ("--n-layers", "0", "n_layers must be >= 1, got 0"),
    ("--rope-base", "nan", "base must be positive and finite, got nan"),
])
def test_train_rejects_broken_model_config(flag, value, message, tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["train", *TINY, "--steps", "1", "--out", str(out), flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("sub", ["train", "diag", "bench"])
def test_seed_outside_u64_exits_one(sub, seed, trained_dir, tmp_path, capsys):
    out = tmp_path / "run"
    argv = {
        "train": ["train", *TINY, "--steps", "1", "--out", str(out)],
        "diag": ["diag", "--model", str(trained_dir / "model.lmtm"), "--out", str(out)],
        "bench": ["bench", "--seq-len", "16"],
    }[sub]
    rc = cli.main([*argv, "--seed", seed])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: seed must be in [0, 2**64), got {seed}\n"
    assert not out.exists()


def test_train_rejects_out_of_vocabulary_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(" ".join(["300"] * 40) + "\n")
    rc = cli.main(["train", *TINY, "--steps", "1", "--batch", "2",
                   "--corpus", str(corpus), "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    # The message names the corpus file and the sequence within it.
    assert f"{corpus}: corpus sequence 0: token id 300 outside vocabulary of size 31" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_train_rejects_synthetic_corpus_too_short_writing_nothing(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["train", *TINY, "--steps", "1", "--batch", "2",
                   "--synthetic-sequences", "3", "--synthetic-length", "5",
                   "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: synthetic corpus (3 x 5 tokens): corpus has no sequence" in err
    assert "corpus.txt" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "0", "-1"])
def test_train_rejects_bad_lr_writing_nothing(value, tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["train", *TINY, "--steps", "1", "--batch", "2",
                   "--synthetic-sequences", "3", f"--lr={value}", "--out", str(out)])
    assert rc == 1
    assert f"lr must be positive and finite, got {float(value)}" in capsys.readouterr().err
    assert not out.exists()


def test_train_divergence_exits_one_naming_the_step(tmp_path, capsys):
    with np.errstate(all="ignore"):
        rc = cli.main(["train", *TINY, "--steps", "5", "--batch", "2",
                       "--synthetic-sequences", "3", "--lr", "1e80",
                       "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and " at step " in err
    assert "Traceback" not in err


def test_train_batch_error_does_not_name_the_corpus(tmp_path, capsys):
    # Only corpus faults carry the corpus path; a bad --batch is train's own.
    rc = cli.main(["train", *TINY, "--steps", "1", "--batch", "0",
                   "--synthetic-sequences", "3", "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "bad batch_shape (0, None)" in err and "corpus" not in err


def test_train_takes_no_mode(tmp_path, capsys):
    # The attention mode is an argument of generate, diag, eval and bench;
    # training always runs vanilla_causal and saves no mode.
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", *TINY, "--mode", "lambda"])
    assert exc.value.code == 2
    cfg = tmp_path / "train.cfg"
    cfg.write_text("steps=1\nmode=lambda\n")
    out = tmp_path / "run"
    rc = cli.main(["train", *TINY, "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert f"{cfg}: line 2: unknown key 'mode'" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("steps=5\nlr=0.01\nd-model=16\n")
    out = tmp_path / "run"
    rc = cli.main(
        ["train", "--config", str(cfg), "--steps", "2", "--vocab-size", "31",
         "--n-layers", "1", "--n-heads", "2", "--train-len", "16",
         "--n-global", "2", "--n-local", "8", "--l-pretrain", "16",
         "--batch", "2", "--synthetic-sequences", "3",
         "--synthetic-length", "40", "--out", str(out)]
    )
    assert rc == 0
    eff = (out / "effective_config.txt").read_text()
    assert "steps=2" in eff       # flag beats config file
    assert "lr=0.01" in eff       # config file beats default
    assert "d_model=16" in eff    # dashed config key normalized


def _run_in(out, argv, capsys):
    """Run argv into ``out`` and return its exit code, stdout and files."""
    rc = cli.main([*argv, "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    if "loss.csv" in files:  # drop step_seconds, the one wall-clock column
        rows = [line.split(b",") for line in files["loss.csv"].splitlines()]
        files["loss.csv"] = [row[:2] + row[3:] for row in rows]
    return rc, capsys.readouterr().out, files


@pytest.mark.parametrize("sub, setting", [
    ("train", {"synthetic_length": "60"}),
    ("diag", {"probe_len": "40"}),
    ("eval", {"n_global": "4", "n_local": "4", "l_pretrain": "8"}),
])
def test_config_value_equals_flag(sub, setting, trained_dir, tmp_path, capsys):
    model = str(trained_dir / "model.lmtm")
    corpus = str(trained_dir / "corpus.txt")
    base = {
        "train": [*TINY, "--steps", "1", "--batch", "2",
                  "--synthetic-sequences", "3"],
        "diag": ["--model", model, "--corpus", corpus],
        "eval": ["--model", model, "--corpus", corpus, "--milestones", "16,32",
                 "--skip-continuation"],
    }[sub]
    flags = [x for k, v in setting.items() for x in (f"--{k.replace('_', '-')}", v)]
    cfg = tmp_path / "c.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in setting.items()))
    out = tmp_path / "out"
    by_flag = _run_in(out, [sub, *base, *flags], capsys)
    by_file = _run_in(out, [sub, *base, "--config", str(cfg)], capsys)
    assert by_flag[0] == 0
    assert by_file == by_flag
    eff = by_flag[2]["effective_config.txt"].decode()
    for k, v in setting.items():
        assert f"{k}={v}\n" in eff


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_matches_library(trained_dir, greedy_oracle, capsys):
    rc = cli.main(["generate", "--model", str(trained_dir / "model.lmtm"),
                   "--prompt", "1 2 3 4", "--n-new", "6", "--mode", "lambda"])
    assert rc == 0
    got = [int(t) for t in capsys.readouterr().out.split()]
    model = load_model(trained_dir / "model.lmtm")
    want = greedy_oracle(model, [1, 2, 3, 4], 6, mode="lambda")
    assert got == [int(t) for t in want]


def test_generate_prompt_file(trained_dir, tmp_path, capsys):
    pf = tmp_path / "prompt.txt"
    pf.write_text("1 2 3 4\n")
    rc = cli.main(["generate", "--model", str(trained_dir / "model.lmtm"),
                   "--prompt", f"@{pf}", "--n-new", "6", "--mode", "lambda"])
    assert rc == 0
    first = capsys.readouterr().out
    rc = cli.main(["generate", "--model", str(trained_dir / "model.lmtm"),
                   "--prompt", "1 2 3 4", "--n-new", "6", "--mode", "lambda"])
    assert rc == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("file_bytes, culprit", [
    (None, "'x'"), (b"1 2\n3 x\n", "'x'"), (b"1 2\n\xff\n", "UTF-8"),
])
def test_generate_bad_prompt_names_source(file_bytes, culprit, trained_dir,
                                          tmp_path, capsys):
    prompt, source = "1 x 3", "--prompt"
    if file_bytes is not None:
        source = str(tmp_path / "prompt.txt")
        (tmp_path / "prompt.txt").write_bytes(file_bytes)
        prompt = f"@{source}"
    rc = cli.main(["generate", "--model", str(trained_dir / "model.lmtm"),
                   "--prompt", prompt])
    assert rc == 1
    err = capsys.readouterr().err
    assert source in err and culprit in err, err


@pytest.mark.parametrize("via_file", [False, True])
@pytest.mark.parametrize("token", ["\u0661", "1_0", "+5"])
def test_generate_prompt_takes_ascii_decimal_ids_only(token, via_file, trained_dir,
                                                      tmp_path, capsys):
    # int() reads these as 1, 10 and 5; the corpus text rule rejects them.
    prompt, source = f"1 {token} 3", "--prompt"
    if via_file:
        source = str(tmp_path / "prompt.txt")
        (tmp_path / "prompt.txt").write_text(prompt + "\n", encoding="utf-8")
        prompt = f"@{source}"
    rc = cli.main(["generate", "--model", str(trained_dir / "model.lmtm"),
                   "--prompt", prompt])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{source}: bad token {token!r}" in err, err


@pytest.mark.parametrize("via_file", [False, True])
@pytest.mark.parametrize("prompt, message", [
    ("1 2 300", "token id 300 outside vocabulary of size 31"),
    ("", "empty token sequence"),
])
def test_generate_prompt_id_error_names_source(prompt, message, via_file,
                                               trained_dir, tmp_path, capsys):
    source = "--prompt"
    if via_file:
        source = str(tmp_path / "prompt.txt")
        (tmp_path / "prompt.txt").write_text(prompt + "\n", encoding="utf-8")
        prompt = f"@{source}"
    rc = cli.main(["generate", "--model", str(trained_dir / "model.lmtm"),
                   "--prompt", prompt])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {source}: {message}\n"


def test_generate_n_new_zero_keeps_its_message(trained_dir, capsys):
    rc = cli.main(["generate", "--model", str(trained_dir / "model.lmtm"),
                   "--prompt", "1 2 3", "--n-new", "0"])
    assert rc == 1
    assert capsys.readouterr().err == "error: n_new must be >= 1, got 0\n"


def test_generate_and_diag_default_to_lambda(trained_dir, tmp_path, capsys):
    model = str(trained_dir / "model.lmtm")
    generate = ["generate", "--model", model, "--prompt", "1 2 3 4", "--n-new", "30"]
    diag = ["diag", "--model", model, "--corpus", str(trained_dir / "corpus.txt")]
    runs = []
    for mode in ([], ["--mode", "lambda"], ["--mode", "vanilla"]):
        assert cli.main([*generate, *mode]) == 0
        runs.append(_run_in(tmp_path / "diag", [*diag, *mode], capsys))
    assert runs[0] == runs[1]  # generate's tokens, diag's line and reports
    assert runs[0] != runs[2]


def test_generate_reports_nan_as_user_error(trained_dir, monkeypatch, capsys):
    def diverge(*args, **kwargs):
        raise NanDetectedError("NaN after attention in layer 0, position 3")

    monkeypatch.setattr(cli, "generate", diverge)
    rc = cli.main(["generate", "--model", str(trained_dir / "model.lmtm"),
                   "--prompt", "1 2 3"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: NaN after attention in layer 0, position 3\n"
    )


# ---------------------------------------------------------------------------
# checkpoint holding a NaN
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sub, args", [
    ("generate", ["--prompt", "1 2 3", "--n-new", "2"]),
    ("diag", ["--probe-len", "16"]),
    ("eval", ["--milestones", "16", "--gen-len", "4"]),
    ("bench", ["--seq-len", "24", "--repeats", "3", "--decode-tokens", "2"]),
])
def test_nan_checkpoint_exits_one_naming_the_tensor(sub, args, trained_dir,
                                                    tmp_path, capsys):
    model = load_model(trained_dir / "model.lmtm")
    model.params["layer1/mlp/w1"][3, 4] = np.nan
    path = tmp_path / "nan.lmtm"
    save_model(model, path)
    if sub in ("diag", "eval"):
        args = [*args, "--out", str(tmp_path / "out")]
    if sub == "eval":
        args = [*args, "--corpus", str(trained_dir / "corpus.txt")]
    rc = cli.main([sub, "--model", str(path), *args])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: tensor layer1/mlp/w1 holds non-finite value nan")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# diag
# ---------------------------------------------------------------------------


def test_diag_writes_reports(trained_dir, tmp_path, capsys):
    out = tmp_path / "diag"
    rc = cli.main(["diag", "--model", str(trained_dir / "model.lmtm"),
                   "--corpus", str(trained_dir / "corpus.txt"),
                   "--probe-len", "32", "--layer", "1", "--mode", "vanilla",
                   "--out", str(out)])
    assert rc == 0
    for name in ("entropy.csv", "logits.csv", "pca.csv", "effective_config.txt"):
        assert (out / name).exists(), name
    header = (out / "entropy.csv").read_text().splitlines()[0]
    assert header == "length,layer,head,entropy"
    assert "logit bound" in capsys.readouterr().out


@pytest.mark.parametrize("probe_len", ["0", "-5"])
def test_diag_rejects_nonpositive_probe_len(probe_len, trained_dir, tmp_path, capsys):
    rc = cli.main(["diag", "--model", str(trained_dir / "model.lmtm"),
                   "--corpus", str(trained_dir / "corpus.txt"),
                   "--probe-len", probe_len, "--out", str(tmp_path / "d")])
    assert rc == 1
    assert "probe_len" in capsys.readouterr().err


def test_diag_names_corpus_path_and_sequence_of_bad_id(trained_dir, tmp_path, capsys):
    corpus = tmp_path / "probe.txt"
    corpus.write_text("1 2 400 3\n")
    rc = cli.main(["diag", "--model", str(trained_dir / "model.lmtm"),
                   "--corpus", str(corpus), "--out", str(tmp_path / "d")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{corpus}: corpus sequence 0: token id 400 outside vocabulary of size 31" in err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_csv_and_mode_mapping(trained_dir, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = cli.main(["eval", "--model", str(trained_dir / "model.lmtm"),
                   "--corpus", str(trained_dir / "corpus.txt"),
                   "--milestones", "1x,2x", "--gen-len", "4",
                   "--mode", "vanilla", "--out", str(out)])
    assert rc == 0
    rows = (out / "eval.csv").read_text().strip().splitlines()
    assert rows[0].startswith("milestone,mode,")
    assert len(rows) == 3  # header + two milestones, one mode
    assert all(",vanilla_causal," in r for r in rows[1:])
    assert "vanilla_causal @ 16" in capsys.readouterr().out


def test_eval_both_modes_with_mask_override(trained_dir, tmp_path):
    out = tmp_path / "eval_both"
    rc = cli.main(["eval", "--model", str(trained_dir / "model.lmtm"),
                   "--corpus", str(trained_dir / "corpus.txt"),
                   "--milestones", "16,32", "--skip-continuation",
                   "--n-local", "4", "--out", str(out)])
    assert rc == 0
    rows = (out / "eval.csv").read_text().strip().splitlines()
    assert len(rows) == 5  # header + 2 milestones x 2 modes
    eff = (out / "effective_config.txt").read_text()
    assert "n_local=4" in eff


def test_eval_names_corpus_path_and_sequence_of_bad_id(trained_dir, tmp_path, capsys):
    good = np.arange(48, dtype=np.uint32) % 31
    corpus = tmp_path / "corpus.lmts"
    args = ["eval", "--model", str(trained_dir / "model.lmtm"), "--corpus",
            str(corpus), "--milestones", "16", "--skip-continuation",
            "--mode", "lambda", "--out", str(tmp_path / "e")]
    # An empty sequence is still skipped and counted, not rejected.
    save_corpus([good, good[:0]], corpus, binary=True)
    assert cli.main(args) == 0
    assert "(n=1, skipped=1)" in capsys.readouterr().out
    bad = good.copy()
    bad[3] = 400
    save_corpus([good, good[:0], bad], corpus, binary=True)
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert f"{corpus}: corpus sequence 2: token id 400 outside vocabulary of size 31" in err


def test_eval_unreachable_milestone_exit_one(trained_dir, tmp_path, capsys):
    rc = cli.main(["eval", "--model", str(trained_dir / "model.lmtm"),
                   "--corpus", str(trained_dir / "corpus.txt"),
                   "--milestones", "16,47", "--skip-continuation",
                   "--out", str(tmp_path / "e")])
    # corpus sequences are 48 tokens: milestone 47 needs len >= 47, fine;
    # so use one past the end instead
    assert rc == 0
    rc = cli.main(["eval", "--model", str(trained_dir / "model.lmtm"),
                   "--corpus", str(trained_dir / "corpus.txt"),
                   "--milestones", "16,49", "--skip-continuation",
                   "--out", str(tmp_path / "e2")])
    assert rc == 1
    assert "49" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_prints_timings(trained_dir, capsys):
    rc = cli.main(["bench", "--model", str(trained_dir / "model.lmtm"),
                   "--seq-len", "24", "--repeats", "3",
                   "--decode-tokens", "4", "--mode", "lambda"])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert "encode_s=" in line and "decode_s_per_token=" in line
    assert "peak_cache_entries=" in line


def test_bench_out_writes_the_printed_row(trained_dir, tmp_path, capsys):
    out = tmp_path / "bench"
    rc = cli.main(["bench", "--model", str(trained_dir / "model.lmtm"),
                   "--seq-len", "24", "--repeats", "3", "--decode-tokens", "4",
                   "--out", str(out)])
    assert rc == 0
    printed = dict(kv.split("=") for kv in capsys.readouterr().out.split())
    header, row = (out / "bench.csv").read_text().splitlines()
    assert header == ("mode,seq_len,encode_seconds,decode_seconds_per_token,"
                      "peak_cache_entries,repeats")
    mode, seq_len, encode, decode, peak, repeats = row.split(",")
    assert printed == {
        "mode": mode, "seq_len": seq_len, "encode_s": f"{float(encode):.4f}",
        "decode_s_per_token": f"{float(decode):.6f}", "peak_cache_entries": peak,
    }
    assert (mode, seq_len, repeats) == ("lambda", "24", "3")
    eff = (out / "effective_config.txt").read_text().splitlines()
    assert "mode=lambda" in eff and "seq_len=24" in eff and "out=" + str(out) in eff


def test_bench_writes_one_row_per_length(trained_dir, tmp_path, capsys):
    out = tmp_path / "bench"
    rc = cli.main(["bench", "--model", str(trained_dir / "model.lmtm"),
                   "--seq-len", "24,16", "--repeats", "3", "--decode-tokens", "2",
                   "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in printed] == ["seq_len=24", "seq_len=16"]
    header, *rows = (out / "bench.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in rows] == [["lambda", "24"], ["lambda", "16"]]
    assert "seq_len=24,16" in (out / "effective_config.txt").read_text().splitlines()


@pytest.mark.parametrize("text", ["24,x", "24,", "1"])
def test_bench_bad_seq_len_exits_one(text, capsys):
    rc = cli.main(["bench", "--seq-len", text, "--repeats", "3"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seq_len" in err and "Traceback" not in err


def test_written_text_files_end_lines_with_newline_only(trained_dir, tmp_path):
    model, corpus = str(trained_dir / "model.lmtm"), str(trained_dir / "corpus.txt")
    runs = [
        ["diag", "--model", model, "--corpus", corpus, "--probe-len", "32"],
        ["eval", "--model", model, "--corpus", corpus, "--milestones", "16",
         "--gen-len", "4"],
        ["bench", "--model", model, "--seq-len", "24", "--repeats", "3",
         "--decode-tokens", "2"],
    ]
    for i, argv in enumerate(runs):
        assert cli.main([*argv, "--out", str(tmp_path / str(i))]) == 0
    written = [p for p in (*trained_dir.iterdir(), *tmp_path.rglob("*"))
               if p.suffix in (".csv", ".txt")]
    assert {p.name for p in written} >= {
        "loss.csv", "corpus.txt", "effective_config.txt", "entropy.csv",
        "logits.csv", "pca.csv", "eval.csv", "bench.csv",
    }
    for path in written:
        assert b"\r" not in path.read_bytes(), path


# ---------------------------------------------------------------------------
# script entry
# ---------------------------------------------------------------------------


def test_module_entry_subprocess():
    # pytest's own pythonpath setting does not reach a child process.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "lm_infinite.cli", "mask", "--seq-len", "5",
         "--n-global", "1", "--n-local", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[0] == "0: global=[0,0) local=[0,1)"
    proc = subprocess.run(
        [sys.executable, "-m", "lm_infinite.cli", "mask", "--seq-len", "0"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1  # seq_len must be positive -> ValueError
