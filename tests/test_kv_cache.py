"""Cache policy against a reference simulation of the retained-set formula,
read through the cache's array views. The policy tests step a one-layer
cache under Alibi, which stores keys unrotated, so each stored key reads
back as the key that was stepped."""

import numpy as np
import pytest

from lm_infinite.attention import BLOCK, AttentionConfig, attend
from lm_infinite.encoding import AlibiParams, RopeParams, default_alibi_slopes
from lm_infinite.errors import CacheStateError
from lm_infinite.kv_cache import _MIN_CAPACITY, KvCache
from lm_infinite.masking import MaskParams


def reference_positions(n_pushed, n_global, n_local):
    """Brute-force simulation: pinned prefix plus the n_local newest others."""
    pinned = [p for p in range(n_pushed) if p < n_global]
    rest = [p for p in range(n_pushed) if p >= n_global]
    return pinned + rest[-n_local:]


ALIBI = AlibiParams(default_alibi_slopes(2))


def make_cache(params, mode="lambda", encoding=ALIBI):
    return KvCache(AttentionConfig(2, 4, params, encoding, mode), 1)


def store(cache, k, v):
    """One step of a one-layer cache: store (k, v) at next_position."""
    cache.begin()
    cache.attend(0, np.zeros(8), k, v)
    cache.advance()


def fill(params, n):
    cache = make_cache(params)
    for t in range(n):
        store(cache, np.full(8, float(t)), np.full(8, float(-t)))
    return cache


def stored(cache):
    return sorted(cache.positions.tolist())


def test_thousand_push_example():
    params = MaskParams(n_global=1, n_local=2, l_pretrain=512)
    cache = fill(params, 1000)
    assert stored(cache) == [0, 998, 999]
    # Stored vectors really are the ones pushed at those positions.
    by_pos = {int(p): i for i, p in enumerate(cache.positions)}
    assert cache.keys[0, by_pos[998], 0, 0] == 998.0
    assert cache.values[0, by_pos[999], 0, 0] == -999.0
    assert cache.keys[0, by_pos[0], 0, 0] == 0.0


def test_exactly_at_capacity_nothing_evicted():
    params = MaskParams(n_global=4, n_local=8, l_pretrain=32)
    cache = fill(params, 12)
    assert stored(cache) == list(range(12))


def test_no_global_branch():
    params = MaskParams(n_global=0, n_local=5, l_pretrain=16)
    cache = fill(params, 100)
    assert stored(cache) == [95, 96, 97, 98, 99]


def test_positions_match_reference_simulation():
    for n_global in (0, 1, 3):
        for n_local in (1, 2, 7):
            params = MaskParams(n_global, n_local, 64)
            for n in (0, 1, 2, 5, 9, 40):
                cache = fill(params, n)
                assert stored(cache) == reference_positions(
                    n, n_global, n_local
                ), (n_global, n_local, n)
                # Every view holds exactly the retained entries.
                assert len(cache) == cache.keys.shape[1] == cache.values.shape[1]
                for i, p in enumerate(cache.positions):
                    assert cache.keys[0, i, 0, 0] == p and cache.values[0, i, 0, 0] == -p


def test_slot_layout_pinned_then_ring():
    # Position p < n_global sits in slot p; later ones in
    # n_global + (p - n_global) % n_local.
    params = MaskParams(n_global=2, n_local=3, l_pretrain=8)
    cache = fill(params, 9)
    assert cache.positions.tolist() == [0, 1, 8, 6, 7]
    assert cache.keys.shape == (1, 5, 2, 4)


def test_attend_outside_a_step_raises():
    # attend() belongs between begin() and advance(): on a fresh cache and
    # after a step has ended it refuses instead of writing some slot.
    cache = make_cache(MaskParams(n_global=2, n_local=3, l_pretrain=8))
    qkv = (np.zeros(8),) * 3
    with pytest.raises(CacheStateError, match="call begin"):
        cache.attend(0, *qkv)
    store(cache, np.ones(8), np.ones(8))
    with pytest.raises(CacheStateError, match="call begin"):
        cache.attend(0, *qkv)
    assert cache.positions.tolist() == [0] and cache.next_position == 1


@pytest.mark.parametrize("layer", [-1, 2])
def test_attend_rejects_a_layer_out_of_range(layer):
    # On a 2-layer cache, -1 would index layer 1's slots: it is refused
    # before anything is stored, and the step can still be finished.
    config = AttentionConfig(2, 4, MaskParams(n_global=2, n_local=3, l_pretrain=8), ALIBI)
    cache = KvCache(config, 2)
    cache.begin()
    cache.attend(1, np.zeros(8), np.full(8, 7.0), np.full(8, 7.0))
    with pytest.raises(ValueError, match=f"layer {layer} "):
        cache.attend(layer, np.zeros(8), np.ones(8), np.ones(8))
    cache.attend(0, np.zeros(8), np.ones(8), np.ones(8))
    cache.advance()
    assert cache.keys[:, 0].tolist() == [[[1.0] * 4] * 2, [[7.0] * 4] * 2]
    assert cache.values[:, 0].tolist() == [[[1.0] * 4] * 2, [[7.0] * 4] * 2]


def test_empty_cache_visible_is_empty():
    params = MaskParams(n_global=2, n_local=3, l_pretrain=8)
    cache = make_cache(params)
    assert len(cache) == 0
    assert cache.positions.size == 0
    assert cache.keys.shape[1] == 0 and cache.values.shape[1] == 0


def test_query_inside_pinned_prefix_sees_everything_once():
    params = MaskParams(n_global=6, n_local=3, l_pretrain=16)
    cache = make_cache(params, encoding=RopeParams(head_dim=4))
    rng = np.random.default_rng(0)
    qkv = [rng.normal(size=(3, 2, 4)) for _ in range(5)]
    for q, k, v in qkv:
        cache.begin()
        step = cache.attend(0, q, k, v)
        cache.advance()
    assert np.sort(cache.positions).tolist() == [0, 1, 2, 3, 4]
    full, _ = attend(*np.stack(qkv, axis=1), cache.config)
    assert np.allclose(step, full[4].reshape(-1), atol=1e-10)


def test_memory_bound_over_long_fuzz():
    params = MaskParams(n_global=3, n_local=7, l_pretrain=64)
    cache = make_cache(params)
    cap = params.n_global + params.n_local
    for t in range(100_000):
        store(cache, np.full(8, float(t)), np.full(8, float(t)))
        assert len(cache) <= cap
    assert stored(cache) == [0, 1, 2] + list(range(99_993, 100_000))
    # Head-major (layers, heads, slots, head_dim). Single steps use no
    # scratch slots, so the cap of 10 fits the first allocation, which is
    # never regrown.
    assert cache.keys.base.shape == (1, 2, _MIN_CAPACITY, 4)


@pytest.mark.parametrize("n_global", [0, 5, 40])
def test_lambda_arrays_grow_on_demand_up_to_the_ring_and_one_chunk(n_global):
    # Full chunks double the arrays from their first allocation and stop at
    # the ring plus one chunk's scratch; the far keys stop at n_global rows.
    params = MaskParams(n_global=n_global, n_local=60, l_pretrain=64)
    cache = make_cache(params, encoding=RopeParams(head_dim=4))
    bound = n_global + 60 + BLOCK - 1
    sizes = []
    for _ in range(6):
        cache.begin(BLOCK)
        cache.attend(0, np.zeros(8 * BLOCK), np.ones(8 * BLOCK), np.ones(8 * BLOCK))
        cache.advance()
        sizes.append(cache.keys.base.shape[2])
        assert cache.values.base.shape == cache.keys.base.shape
    assert sizes[0] == BLOCK and max(sizes) == sizes[-1] == bound
    assert len(cache) == n_global + 60
    if n_global:
        assert cache._kf.shape == (1, 2, n_global, 4)


def test_vanilla_cache_grows_and_never_evicts():
    cache = make_cache(MaskParams(n_global=2, n_local=3, l_pretrain=8), "vanilla_causal")
    for t in range(100):
        store(cache, np.full(8, float(t)), np.full(8, float(-t)))
        assert len(cache) == t + 1
    assert cache.positions.tolist() == list(range(100))
    assert cache.keys[0, :, 0, 0].tolist() == [float(t) for t in range(100)]
    assert cache.values[0, :, 0, 0].tolist() == [float(-t) for t in range(100)]


def test_eviction_determinism():
    params = MaskParams(n_global=2, n_local=4, l_pretrain=32)
    a = fill(params, 77)
    b = fill(params, 77)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.keys, b.keys) and np.array_equal(a.values, b.values)


def test_shape_mismatch_rejected():
    params = MaskParams(n_global=1, n_local=2, l_pretrain=8)
    cache = make_cache(params)
    # attend reshapes q, k and v to (n_heads, head_dim) = (2, 4).
    with pytest.raises(ValueError):
        store(cache, np.zeros(8), np.zeros(7))
    store(cache, np.zeros(8), np.zeros(8))
    with pytest.raises(ValueError):
        store(cache, np.zeros(5), np.zeros(5))


def test_skip_moves_past_positions_only_in_a_full_lambda_ring():
    # G2 + W3: the ring is full from position 5. A skip stores nothing: the
    # slots keep their positions and entries, and the next position moves.
    params = MaskParams(n_global=2, n_local=3, l_pretrain=8)
    cache = fill(params, 4)
    with pytest.raises(CacheStateError, match="needs a full lambda ring"):
        cache.skip(1)
    store(cache, np.ones(8), np.ones(8))
    assert cache.can_skip
    keys, positions = cache.keys.copy(), cache.positions.copy()
    cache.skip(2)
    assert cache.next_position == 7 and len(cache) == 5
    assert np.array_equal(cache.keys, keys) and np.array_equal(cache.positions, positions)
    for n in (0, BLOCK + 1):
        with pytest.raises(ValueError, match=f"got {n}"):
            cache.skip(n)
    cache.begin()  # a chunk that raised is never ended
    assert not cache.can_skip
    with pytest.raises(CacheStateError, match="after a chunk that raised"):
        cache.skip(1)
    cache.attend(0, np.zeros(8), np.ones(8), np.ones(8))
    cache.advance()
    assert cache.can_skip and cache.next_position == 8
    vanilla = make_cache(params, "vanilla_causal")
    for t in range(20):
        store(vanilla, np.ones(8), np.ones(8))
    assert not vanilla.can_skip
    with pytest.raises(CacheStateError, match="vanilla mode"):
        vanilla.skip(1)


def test_alibi_prefill_holds_no_bias_beyond_its_rope_twin():
    # Alibi's slopes meet the distances only inside the scoring of a chunk,
    # so a vanilla Alibi prefill may peak at most one (BLOCK, keys) float64
    # array above a RoPE prefill with the same weights (which holds no
    # distances at all), not an (n_heads, BLOCK, keys) bias per chunk.
    import dataclasses
    import tracemalloc

    from lm_infinite.model import DecodeSession, ToyModel, ToyModelConfig, init

    rope = init(ToyModelConfig())
    alibi = ToyModel(dataclasses.replace(rope.config, encoding="alibi"), rope.params)
    ids = np.arange(3 * BLOCK) % rope.config.vocab_size

    def peak(model):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            DecodeSession(model, "vanilla_causal").prefill(ids)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    one_array = BLOCK * len(ids) * 8
    assert peak(alibi) - peak(rope) <= one_array
