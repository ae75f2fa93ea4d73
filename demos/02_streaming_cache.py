#!/usr/bin/env python3
"""Streaming decode with a bounded KV cache.

A DecodeSession feeds tokens one at a time. In lambda mode its cache
holds at most n_global + n_local entries per layer no matter how long the
stream runs, and every step reproduces exactly what a full forward pass
over the whole history would produce at that position.
"""

import numpy as np

from lm_infinite.model import DecodeSession, ToyModelConfig, forward, init

config = ToyModelConfig(
    vocab_size=64, d_model=32, n_layers=2, n_heads=2,
    train_len=16, n_global=4, n_local=16, l_pretrain=16, seed=3,
)
model = init(config)
rng = np.random.default_rng(0)
stream = rng.integers(0, config.vocab_size, 200)

# --- drive the session and compare against the full forward pass -----------
session = DecodeSession(model, "lambda")
full = forward(model, stream, mode="lambda")

worst = 0.0
peak = 0
for t, token in enumerate(stream):
    logits = session.step(int(token))
    worst = max(worst, float(np.abs(logits - full[t]).max()))
    peak = max(peak, len(session.cache))
    if t in (15, 19, 50, 199):
        print(f"step {t + 1:3d}: cache holds {len(session.cache):2d} "
              f"entries (cap {config.n_global + config.n_local}), "
              f"max |streamed - full| so far = {worst:.2e}")

print(f"\n200 steps done. The cache never grew past "
      f"{peak} entries, and the streamed logits")
print(f"match the full-sequence forward pass to {worst:.2e}.")

# --- contrast: a vanilla session keeps everything ---------------------------
vanilla = DecodeSession(model, "vanilla_causal")
for token in stream:
    vanilla.step(int(token))
print(f"\nA vanilla session after the same stream holds "
      f"{len(vanilla.cache)} entries — one per token seen.")
