"""Run the suite's numpy on one BLAS thread, as the benchmark harness does,
and share the greedy decoding oracle (``greedy_oracle``) and the small model
config (``tiny_config``, imported as ``from conftest import tiny_config``)
between test files.

The acceptance gates time how cost grows with length (criterion 7: encode
time at 4x the length, per-token decode time at 4x the context). With two
BLAS threads on a machine that other processes also load, a thread that is
preempted stalls its peer inside every matrix product. That stall is a fixed
delay per call, so it inflates a 30 ms forward far more than a 400 ms one:
the vanilla 512 -> 2048 encode growth then reads 3-7x instead of the
9.8-10.9x it reads on one thread (2 vCPUs, 20 runs, half of them next to
one busy process), which is the scheduler, not the attention. One thread
keeps the timings to the work done.

OpenBLAS reads these variables once, when numpy is first imported, which is
why this runs before any test module imports numpy. A value already set in
the environment is kept.
"""

import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def greedy_oracle():
    """Greedy decoding by one full forward pass per new token: the slow,
    obviously correct reference that ``generate`` must reproduce."""
    import numpy as np

    from lm_infinite.model import forward

    def decode(model, prompt, n_new, mode="lambda"):
        context = [int(t) for t in prompt]
        for _ in range(n_new):
            logits = forward(model, np.asarray(context), mode=mode)
            context.append(int(np.argmax(logits[-1])))
        return np.asarray(context[len(prompt):])

    return decode


def tiny_config(**over):
    """A two-layer d16 model over 31 tokens; keyword arguments override."""
    from lm_infinite.model import ToyModelConfig

    base = dict(
        vocab_size=31,
        d_model=16,
        n_layers=2,
        n_heads=2,
        train_len=16,
        n_global=2,
        n_local=16,
        l_pretrain=16,
        seed=11,
    )
    base.update(over)
    return ToyModelConfig(**base)
