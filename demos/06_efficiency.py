#!/usr/bin/env python3
"""Wall-clock and operation-count costs of bounded vs unbounded attention.

Encoding with a dense causal mask is quadratic in sequence length and each
decode step touches the whole history. With the lambda mask the per-row
work is capped at n_global + n_local keys, so encoding grows linearly and
per-token decode cost is flat. The second half counts attention cells for
the classic fallback — re-encoding a truncated window every step — which
keeps quality local but pays quadratically per token for it.
"""

from lm_infinite.corpus import SyntheticLanguage
from lm_infinite.evaluation import bench, truncation_baseline, vanilla_op_count
from lm_infinite.model import ToyModelConfig, init, train

config = ToyModelConfig(
    vocab_size=64, d_model=32, n_layers=2, n_heads=2,
    train_len=32, n_global=4, n_local=32, l_pretrain=32, seed=1,
)
model = init(config)

# --- wall clock: encode whole sequences, then stream tokens -----------------
print("encode (full forward) and decode (per token), median of 3:")
print("mode             seq_len   encode_s   decode_ms/tok   cache")
for mode in ("lambda", "vanilla_causal"):
    for r in bench(model, (256, 1024), mode=mode, repeats=3, decode_tokens=8):
        print(f"{mode:15s}  {r.seq_len:6d}   {r.encode_seconds:8.4f}"
              f"   {1e3 * r.decode_seconds_per_token:10.3f}"
              f"   {r.peak_cache_entries:5d}")

print("\nVanilla encode scores 12x the attention cells for 4x the length (its")
print("128-row blocks cover the causal triangle) and its decode slows as the")
print("cache grows; lambda stays near-linear and flat.")

# --- operation counts: truncation fallback vs bounded cache ----------------
lang = SyntheticLanguage(vocab_size=64, seed=99)
corpus = lang.sample(2, 128)
train(model, corpus, steps=30, lr=2e-3, batch_shape=(4, None))  # warm weights

window, total_gen = 32, 24
trunc = truncation_baseline(model, corpus, window_w=window, total_gen=total_gen)
naive = vanilla_op_count(model, context_len=window, total_gen=total_gen,
                         n_sequences=trunc.n_sequences)

print(f"\ngenerating {total_gen} tokens from {trunc.n_sequences} prompts:")
print(f"    re-encode a {window}-token window each step: "
      f"{trunc.op_count:10d} attention cells")
print(f"    re-encode the whole context each step:       "
      f"{naive:10d} attention cells")
print(f"    lambda bounded cache:                        "
      f"{trunc.lambda_op_count:10d} attention cells")
print(f"\ntruncation also rebuilds its cache {total_gen} times per prompt, "
      f"and its window restarts positions from zero — the bounded cache "
      f"keeps the stream intact at lower cost (quality comparison in "
      f"demo 04).")
