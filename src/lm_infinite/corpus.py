"""Token-id corpora: file formats and the synthetic training language.

Two interchangeable on-disk formats:

* text — one sequence per line, space-separated unsigned decimal ids
  (blank lines ignored);
* binary — magic "LMTS", u32 version, then per sequence a u64 length
  followed by that many little-endian u32 ids.

The reserved id 0xFFFFFFFE marks sentence boundaries for ROUGE-LSum and
never appears in generated corpora.

The synthetic language is a stochastic regular language: a small bank of
fixed motifs emitted along a cycle, with occasional jumps and per-token
noise. Its statistics do not depend on absolute position, so any
length-generalization failure is the model's fault, not the data's.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from lm_infinite.binary import ByteReader
from lm_infinite.errors import CorpusFormatError
from lm_infinite.rng import SplitMix64, check_seed, derive_stream

SENTENCE_SEP = 0xFFFFFFFE

_MAGIC = b"LMTS"
_VERSION = 1
_U32_MAX = 2**32 - 1


def load_corpus(path) -> list:
    """Read either corpus format, returning a list of uint32 arrays."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] == _MAGIC:
        return _parse_binary(blob, str(path))
    return _parse_text(blob, str(path))


def _parse_text(blob: bytes, path: str) -> list:
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{path}: not valid text and not LMTS: {exc}") from None
    sequences = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            sequences.append(parse_text_line(line, f"{path}: line {lineno}"))
    return sequences


def parse_text_line(line: str, where: str) -> np.ndarray:
    """The uint32 ids of one text-format line: ASCII decimal ids within u32
    range, separated by whitespace. An error message starts with ``where``."""
    ids = []
    for tok in line.split():
        if not (tok.isascii() and tok.isdigit()):
            raise CorpusFormatError(
                f"{where}: bad token {tok!r} (unsigned decimal required)"
            )
        value = int(tok)
        if value > _U32_MAX:
            raise CorpusFormatError(f"{where}: token {value} exceeds u32 range")
        ids.append(value)
    return np.asarray(ids, dtype=np.uint32)


def _parse_binary(blob: bytes, path: str) -> list:
    reader = ByteReader(blob, path, CorpusFormatError, offset=4)
    (version,) = reader.unpack("<I", "version")
    if version != _VERSION:
        raise CorpusFormatError(f"{path}: unsupported LMTS version {version}")
    sequences = []
    while not reader.at_end():
        what = f"sequence {len(sequences)}"
        (length,) = reader.unpack("<Q", f"{what} length")
        ids = reader.take(4 * length, f"{what} ({length} ids)")
        sequences.append(np.frombuffer(ids, dtype="<u4").copy())
    return sequences


def save_corpus(sequences, path, binary: bool = False) -> None:
    if binary:
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<I", _VERSION))
            for seq in sequences:
                arr = np.ascontiguousarray(seq, dtype="<u4")
                fh.write(struct.pack("<Q", arr.size))
                fh.write(arr.tobytes())
        return
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sequences:
            fh.write(" ".join(str(int(t)) for t in seq))
            fh.write("\n")


@dataclass(frozen=True)
class SyntheticLanguage:
    """Cyclic motif language: motif i is usually followed by motif i+1.

    Every position in a sampled sequence sits at a uniformly random phase
    of the cycle, so token statistics are position-stationary. Within a
    motif the next token is deterministic given a few tokens of context;
    boundaries carry H(p_stay) bits — the language is easy for a model
    whose recent-context attention works and miserable for one whose
    attention has fallen apart.
    """

    vocab_size: int = 256
    n_motifs: int = 8
    motif_len: int = 8
    p_stay: float = 0.85
    noise: float = 0.02
    seed: int = 12345

    def __post_init__(self):
        if self.vocab_size < 2 or self.n_motifs < 2 or self.motif_len < 2:
            raise ValueError("degenerate language parameters")
        if not 0.0 <= self.noise < 1.0 or not 0.0 < self.p_stay <= 1.0:
            raise ValueError("p_stay must be in (0,1], noise in [0,1)")
        check_seed(self.seed)

    def motifs(self) -> np.ndarray:
        stream = SplitMix64(derive_stream(self.seed, "synthetic-corpus/motifs"))
        return stream.integers(
            0, self.vocab_size, self.n_motifs * self.motif_len
        ).reshape(self.n_motifs, self.motif_len)

    def sample(self, n_sequences: int, seq_len: int, seed: int | None = None) -> list:
        """Draw sequences of exactly seq_len tokens."""
        if n_sequences < 1 or seq_len < 1:
            raise ValueError("need n_sequences >= 1 and seq_len >= 1")
        motifs = self.motifs()
        base = self.seed if seed is None else seed
        n_steps = seq_len // self.motif_len + 2
        scale = 1.0 / (1 << 53)  # a 53-bit draw as a double in [0, 1)
        sequences = []
        for s in range(n_sequences):
            stream = SplitMix64(derive_stream(base, f"synthetic-corpus/seq{s}"))
            # The stream is counter-based, so one call yields the draws the
            # scalar calls would: the first motif, then per step a stay draw
            # and, on a jump, its target; the noise reads on from there.
            bits = stream.next_u64(1 + 2 * n_steps + 2 * seq_len) >> np.uint64(11)
            walk = bits[: 1 + 2 * n_steps].tolist()
            current = walk[0] % self.n_motifs
            path = []
            at = 1
            for _ in range(n_steps):
                path.append(current)
                if walk[at] * scale < self.p_stay:
                    current = (current + 1) % self.n_motifs
                    at += 1
                else:
                    # Jump anywhere but the default successor.
                    jump = walk[at + 1] % (self.n_motifs - 1)
                    successor = (current + 1) % self.n_motifs
                    current = jump if jump != successor else self.n_motifs - 1
                    at += 2
            clean = motifs[path].reshape(-1)[:seq_len]
            if self.noise > 0.0:
                hit = bits[at : at + seq_len].astype(np.float64) * scale < self.noise
                span = np.uint64(self.vocab_size)
                repl = (bits[at + seq_len : at + 2 * seq_len] % span).astype(np.int64)
                clean = np.where(hit, repl, clean)
            sequences.append(clean.astype(np.uint32))
        return sequences

    def unigram_entropy(self, n_tokens: int = 200_000) -> float:
        """Empirical unigram entropy (nats) of a long sample — the baseline
        a context-free predictor cannot beat."""
        sample = np.concatenate(self.sample(1, n_tokens, seed=self.seed + 999))
        counts = np.bincount(sample, minlength=self.vocab_size).astype(np.float64)
        probs = counts[counts > 0] / counts.sum()
        return float(-(probs * np.log(probs)).sum())
