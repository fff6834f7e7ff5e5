"""The super-net's eval cache: shared stem and first-cell node outputs.

evaluate_path reuses, across architectures, the stem output of each eval
batch and the outputs of first-cell nodes 1..n-1. Every logit must stay
bit for bit what a cold forward computes, and any change to the eval set
or to a stem or first-cell store array must empty the cache.
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from wsnaslab import supernet
from wsnaslab.config import load_config
from wsnaslab.data import generate_dataset
from wsnaslab.nncore import named_rng
from wsnaslab.searchspace import SearchSpaceSpec, enumerate_space
from wsnaslab.supernet import (
    MacroParams,
    SuperNetConfig,
    _eval_spans,
    build_standalone,
    build_supernet,
    evaluate_path,
    forward_path,
    mean_path_loss,
    path_loss,
)

MACRO = MacroParams(init_channels=4, num_layers=2, num_classes=3, in_channels=1)
NODE2 = SearchSpaceSpec()
NODE3 = SearchSpaceSpec(n_nodes=3)
EDGE2 = SearchSpaceSpec(
    n_nodes=2, ops=("conv3x3", "conv1x1"), op_placement="edge", merge_rule="sum", channel_mode="fixed",
)
BATCH = 4
SPACES = {
    "n2-node-concat": (NODE2, SuperNetConfig()),
    "n3-node-concat": (NODE3, SuperNetConfig()),
    "edge-sum-fixed": (EDGE2, SuperNetConfig()),
    "edge-sum-wsbn": (EDGE2, SuperNetConfig(wsbn=True)),
    "fixed_chunk": (NODE2, SuperNetConfig(channel_strategy="fixed_chunk")),
    "interpolate": (NODE2, SuperNetConfig(channel_strategy="interpolate")),
    "disabled-k2": (NODE2, SuperNetConfig(channel_strategy="disabled", fixed_k=2)),
    "ofa_kernel": (NODE2, SuperNetConfig(ofa_kernel=True)),
}


def eval_sets(seed: int = 0):
    """Two eval sets of different sizes, so their batch spans differ too."""
    rng = named_rng(seed, "eval-cache-sets")
    return [
        (rng.normal(size=(n, 1, 6, 6)).astype(np.float32), rng.integers(0, 3, size=n)) for n in (10, 9)
    ]


def build(spec, config, bn_track=False, seed=3, macro=MACRO):
    sn = build_supernet(spec, macro, config, seed, bn_track=bn_track)
    if bn_track:
        # running buffers away from their (0, 1) start, the same in every build
        for key in sn.store.keys():
            if key.endswith(("/mean", "/var")):
                draw = named_rng(seed, "buffers", key).uniform(0.5, 1.5, size=sn.store.get(key).shape)
                sn.store.set(key, draw if key.endswith("/var") else draw - 1.0)
    return sn


def archs(spec, config):
    index = enumerate_space(spec)
    encs = [index.representatives[h] for h in index.hashes]
    if config.fixed_k is not None:
        encs = [e for e in encs if e.output_in_degree() == config.fixed_k]
    return encs


@pytest.fixture
def logits_seen(monkeypatch):
    """Raw bytes of every eval logit evaluate_path computes, in order."""
    seen: list[bytes] = []
    real = supernet.forward_path

    def recording(*args, **kwargs):
        logits, tape = real(*args, **kwargs)
        seen.append(logits.data.tobytes())
        return logits, tape

    monkeypatch.setattr(supernet, "forward_path", recording)
    return seen


def cached(seen, sn, enc, x, y, bn_mode, rng=None):
    """evaluate_path's logits for one architecture, or its error message."""
    del seen[:]
    try:
        evaluate_path(sn, enc, x, y, BATCH, bn_mode=bn_mode, rng=rng)
    except ValueError as e:
        return str(e)
    return list(seen)


def cold(sn, enc, x, bn_mode, rng=None):
    """The same logits from forward_path without a memo, which never reads or
    fills the cache."""
    out = []
    try:
        for start, stop in _eval_spans(len(x), BATCH, fold_singleton=bn_mode == "batch"):
            logits, _ = forward_path(sn, enc, x[start:stop], train=False, bn_mode=bn_mode, rng=rng)
            out.append(logits.data.tobytes())
    except ValueError as e:
        return str(e)
    return out


def cache_bytes(sn) -> int:
    if sn._eval_cache is None:
        return 0
    arrays = {id(a): a for memo in sn._eval_cache[1].values() for a in memo.values()}
    return sum(a.nbytes for a in arrays.values())


# ---------------------------------------------------------- bit identity

@pytest.mark.parametrize("bn_mode", ["batch", "tracked"])
@pytest.mark.parametrize("name", list(SPACES))
def test_cached_logits_equal_a_cold_net_bit_for_bit(name, bn_mode, logits_seen):
    spec, config = SPACES[name]
    sn = build(spec, config, bn_track=bn_mode == "tracked")
    ref = build(spec, config, bn_track=bn_mode == "tracked")
    sets = eval_sets()
    encs = archs(spec, config)
    # shuffled architectures in blocks that alternate between the two eval
    # sets; the second round swaps the sets, so each pair is seen once
    blocks = np.array_split(named_rng(1, "eval-cache-order").permutation(len(encs)), 6)
    checked = 0
    for i, block in enumerate(blocks + blocks):
        x, y = sets[(i + i // len(blocks)) % 2]
        for j in block:
            assert cached(logits_seen, sn, encs[j], x, y, bn_mode) == cold(ref, encs[j], x, bn_mode), encs[j]
            checked += 1
    assert checked == 2 * len(encs)
    assert ref._eval_cache is None
    # the cache holds the spans of the last eval set only
    assert set(sn._eval_cache[1]) == set(_eval_spans(len(x), BATCH, fold_singleton=bn_mode == "batch"))


def test_only_the_first_of_repeated_cells_is_cached(logits_seen):
    macro = dataclasses.replace(MACRO, repeated_cells=2)
    sn, ref = build(NODE2, SuperNetConfig(), macro=macro), build(NODE2, SuperNetConfig(), macro=macro)
    x, y = eval_sets()[0]
    for enc in archs(NODE2, SuperNetConfig()):
        assert cached(logits_seen, sn, enc, x, y, "batch") == cold(ref, enc, x, "batch"), enc


def test_mean_path_loss_through_the_cache_is_bit_for_bit():
    sn = build(NODE3, SuperNetConfig())
    ref = build(NODE3, SuperNetConfig())
    x, y = eval_sets()[0]
    encs = archs(NODE3, SuperNetConfig())[::7]
    encs = [e for e in encs if isinstance(cold(ref, e, x, "batch"), list)]
    total = sum(float(path_loss(ref, e, x, y, train=False)[0].data) for e in encs)
    assert mean_path_loss(sn, encs, x, y) == total / len(encs)
    assert cache_bytes(sn) > 0


def test_shuffle_results_and_rng_stream_are_unchanged(logits_seen):
    config = SuperNetConfig(channel_strategy="shuffle")
    sn = build(NODE2, config)
    ref = build(NODE2, config)
    x, y = eval_sets()[0]
    rng, ref_rng = named_rng(4, "shuffle-eval"), named_rng(4, "shuffle-eval")
    for enc in archs(NODE2, config):
        assert cached(logits_seen, sn, enc, x, y, "batch", rng) == cold(ref, enc, x, "batch", ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert sn._eval_cache is None


def test_standalone_nets_and_train_forwards_bypass_the_cache():
    x, y = eval_sets()[0]
    enc = archs(NODE2, SuperNetConfig())[5]
    alone = build_standalone(NODE2, enc, MACRO, seed=3)
    evaluate_path(alone, enc, x, y, BATCH, bn_mode="tracked")
    assert alone._eval_cache is None
    sn = build(NODE2, SuperNetConfig())
    forward_path(sn, enc, x, train=True)
    forward_path(sn, enc, x, train=False)
    assert sn._eval_cache is None


# ------------------------------------------------------------ invalidation

def warm_then_compare(logits_seen, sn, ref, edit, bn_mode="batch"):
    """Fill the cache, apply edit to both nets, and compare with cold logits.

    Returns how many architectures' logits the edit changed, so a test can
    show that its edit reaches the cached nodes at all."""
    x, y = eval_sets()[0]
    encs = archs(NODE3, SuperNetConfig())[::5]
    before = [cached(logits_seen, sn, e, x, y, bn_mode) for e in encs]
    edit(sn)
    edit(ref)
    changed = 0
    for enc, old in zip(encs, before):
        now = cached(logits_seen, sn, enc, x, y, bn_mode)
        assert now == cold(ref, enc, x, bn_mode), enc
        changed += now != old
    return changed


def test_in_place_edit_of_a_first_cell_weight_empties_the_cache(logits_seen):
    def edit(net):
        net.store.get("stack0/node1/conv3x3/weight")[0, 0, 1, 1] += 0.5

    sn, ref = build(NODE3, SuperNetConfig()), build(NODE3, SuperNetConfig())
    assert warm_then_compare(logits_seen, sn, ref, edit) > 0


def test_store_set_of_a_stem_array_empties_the_cache(logits_seen):
    def edit(net):
        net.store.set("stem/bn/shift", np.linspace(-0.5, 0.5, MACRO.init_channels).astype(np.float32))

    sn, ref = build(NODE3, SuperNetConfig()), build(NODE3, SuperNetConfig())
    assert warm_then_compare(logits_seen, sn, ref, edit) > 0


def test_bn_track_training_forward_empties_the_cache(logits_seen):
    # a train forward updates the running buffers in place and nothing else
    x, _ = eval_sets(seed=9)[0]
    enc = archs(NODE3, SuperNetConfig())[-1]

    def edit(net):
        forward_path(net, enc, x, train=True)

    sn, ref = build(NODE3, SuperNetConfig(), bn_track=True), build(NODE3, SuperNetConfig(), bn_track=True)
    assert warm_then_compare(logits_seen, sn, ref, edit, bn_mode="tracked") > 0


def test_in_place_edit_of_the_eval_set_empties_the_cache(logits_seen):
    sn, ref = build(NODE3, SuperNetConfig()), build(NODE3, SuperNetConfig())
    x, y = eval_sets()[0]
    encs = archs(NODE3, SuperNetConfig())[::5]
    for enc in encs:
        cached(logits_seen, sn, enc, x, y, "batch")
    x[-1, 0, 2, 2] += 1.0  # same array, same shape, other bytes
    for enc in encs:
        assert cached(logits_seen, sn, enc, x, y, "batch") == cold(ref, enc, x, "batch"), enc


def test_switch_from_batch_to_tracked_on_the_same_net(logits_seen):
    sn, ref = build(NODE3, SuperNetConfig(), bn_track=True), build(NODE3, SuperNetConfig(), bn_track=True)
    x, y = eval_sets()[0]
    encs = archs(NODE3, SuperNetConfig())[::5]
    for bn_mode in ("batch", "tracked", "batch"):
        for enc in encs:
            assert cached(logits_seen, sn, enc, x, y, bn_mode) == cold(ref, enc, x, bn_mode), (bn_mode, enc)


# ----------------------------------------------------------------- memory

def test_a_second_eval_set_replaces_the_first(logits_seen):
    sn = build(NODE3, SuperNetConfig())
    (xa, ya), (xb, yb) = eval_sets()
    encs = archs(NODE3, SuperNetConfig())[::3]
    for enc in encs:
        cached(logits_seen, sn, enc, xa, ya, "batch")
    full = cache_bytes(sn)
    cached(logits_seen, sn, encs[0], xb, yb, "batch")
    one = cache_bytes(sn)
    assert set(sn._eval_cache[1]) == set(_eval_spans(len(xb), BATCH, fold_singleton=True))
    assert 0 < one < full
    fresh = build(NODE3, SuperNetConfig())
    cached(logits_seen, fresh, encs[0], xb, yb, "batch")
    assert one == cache_bytes(fresh)


def test_ranking_the_n3_space_caches_under_8_mb():
    """The preset's eval set and macro, over all 1234 n=3 architectures."""
    cfg = load_config(resources.files("wsnaslab") / "presets" / "micro-node-concat.json")
    spec = dataclasses.replace(cfg.space, n_nodes=3)
    index = enumerate_space(spec)
    assert index.unique_count == 1234
    _, _, x_val, y_val = generate_dataset(cfg.dataset, 0).split(cfg.protocol.train_portion)
    p = cfg.protocol
    sn = build_supernet(spec, cfg.macro, cfg.supernet, 0, bn_affine=p.bn_affine, bn_track=p.bn_track)
    tracemalloc.start()
    try:
        for h in index.hashes:
            try:
                evaluate_path(sn, index.representatives[h], x_val, y_val, p.batch_size, bn_mode="batch")
            except ValueError:
                pass
        gc.collect()
        with_cache = tracemalloc.get_traced_memory()[0]
        sn._eval_cache = None
        gc.collect()
        held = with_cache - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 1 << 20 < held < 8 << 20, held
