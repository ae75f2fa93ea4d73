#!/usr/bin/env python3
"""What goes wrong inside a vanilla model on sequences it never saw.

Three views of the same trained model probed at 8x its training length,
all read off one diagnostics pass per mode: attention-logit magnitudes
bucketed by key distance, attention entropy as the context grows, and a
PCA projection of the hidden states, with the gap between its first and
last 8 positions in pooled standard deviations. At this miniature scale
the logit drift beyond the trained range is visible on some heads and mild
on others; the entropy climb is unmistakable — and both stay flat in
lambda mode. Reports land in demo_out/ as CSV.
"""

from pathlib import Path

import numpy as np

from lm_infinite.corpus import SyntheticLanguage
from lm_infinite.diagnostics import (
    position_separation,
    run_diagnostics,
    write_entropy_csv,
    write_logits_csv,
    write_pca_csv,
)
from lm_infinite.model import ToyModelConfig, init, train

config = ToyModelConfig(
    vocab_size=64, d_model=32, n_layers=2, n_heads=2,
    train_len=32, n_global=4, n_local=32, l_pretrain=32, seed=1,
)
lang = SyntheticLanguage(vocab_size=64, seed=99)
model = init(config)
train(model, lang.sample(12, 400), steps=200, lr=2e-3, batch_shape=(8, None))

probe = np.asarray(lang.sample(1, 8 * config.train_len, seed=77)[0])
print(f"probing a {len(probe)}-token stream (training length was "
      f"{config.train_len})\n")

reports = {
    mode: run_diagnostics(model, probe, layer=1, head=1, mode=mode)
    for mode in ("vanilla_causal", "lambda")
}
vanilla = reports["vanilla_causal"]

# --- attention logits by key distance, vanilla mode -------------------------
print("layer 1 head 1, last-row |logit| by key distance (vanilla):")
for b in vanilla.logit_stats.buckets:
    if b.count:
        marker = " <- beyond the trained range" if b.lo >= config.train_len else ""
        print(f"    distance [{b.lo:3d},{b.hi:3d}): absmax {b.absmax:6.2f}{marker}")
print(f"    logit bound B: vanilla {vanilla.logit_bound:.2f}, "
      f"lambda {reports['lambda'].logit_bound:.2f}")

# --- attention entropy of the final row as context grows --------------------
print("\nfinal-row attention entropy (mean over layers/heads):")
picks = [config.train_len - 1, 2 * config.train_len - 1, len(probe) - 1]
for mode, report in reports.items():
    entropy = report.entropy_curve.entropy
    cells = [f"len {p + 1:3d}: {entropy[:, :, p].mean():.3f}" for p in picks]
    print(f"    {mode:15s} " + "   ".join(cells))

# --- PCA of hidden states ----------------------------------------------------
proj = vanilla.pca_projection
head = proj.coords[:8, 0]
tail = proj.coords[-8:, 0]
print("\nhidden-state PCA, first component (layer 1, vanilla):")
print("    first 8 positions:", " ".join(f"{x:6.2f}" for x in head))
print("    last  8 positions:", " ".join(f"{x:6.2f}" for x in tail))
diff, pooled = position_separation(proj, group=8)
print(f"    first-8 vs last-8 mean gap: {diff:.2f} ({diff / pooled:.2f} pooled std)")
print(f"    explained variance: {proj.explained_variance[0]:.2f} / "
      f"{proj.explained_variance[1]:.2f}")

# --- CSV reports from the vanilla pass ---------------------------------------
out = Path("demo_out")
out.mkdir(exist_ok=True)
write_entropy_csv(vanilla.entropy_curve, out / "entropy.csv")
write_logits_csv(vanilla.logit_stats, out / "logits.csv")
write_pca_csv(proj, out / "pca.csv")
print(f"\nwrote entropy.csv, logits.csv, pca.csv to {out}/")
