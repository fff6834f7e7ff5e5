"""Shared-weight super-net: allocation, path selection, forward semantics."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from wsnaslab import nncore as nn
from wsnaslab.nncore import Tape, named_rng
from wsnaslab.searchspace import CellEncoding, SearchSpaceSpec, enumerate_space
from wsnaslab.supernet import (
    MacroParams,
    SuperNetConfig,
    build_standalone,
    build_supernet,
    checkpoint_header,
    forward_path,
    interpolation_matrix,
    mean_path_loss,
    path_loss,
    path_param_count,
    path_width,
    select_path,
)

MICRO = SearchSpaceSpec()
EDGE2 = SearchSpaceSpec(
    n_nodes=2, ops=("conv3x3", "conv1x1"), op_placement="edge",
    merge_rule="sum", channel_mode="fixed",
)
MACRO = MacroParams(init_channels=4, num_layers=2, num_classes=3, in_channels=1)

CHAIN = CellEncoding(2, ((0, 1), (1, 2), (2, 3)), (0, 1))        # in-degree 1
PARALLEL = CellEncoding(2, ((0, 1), (0, 2), (1, 3), (2, 3)), (0, 1))  # in-degree 2
FULL = CellEncoding(2, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)), (1, 0))


def batch(seed=0, n=4):
    rng = named_rng(seed, "sn-batch")
    x = rng.normal(size=(n, 1, 6, 6)).astype(np.float32)
    y = rng.integers(0, 3, size=n)
    return x, y


# ------------------------------------------------------------- allocation

def test_default_build_allocates_all_sites():
    sn = build_supernet(MICRO, MACRO, SuperNetConfig(), seed=0)
    # one BN per parametric op per node site per stack, plus the stem
    assert len(sn.bn_states) == 1 + 2 * 2 * 2
    for stack in range(2):
        for node in (1, 2):
            for op in ("conv3x3", "conv1x1"):
                assert f"stack{stack}/node{node}/{op}/weight" in sn.store.keys()


def test_init_is_keyed_by_seed_and_name():
    full = build_supernet(MICRO, MACRO, SuperNetConfig(), seed=7)
    alone = build_standalone(MICRO, CHAIN, MACRO, seed=7)
    np.testing.assert_array_equal(
        full.store.get("stem/conv/weight"), alone.store.get("stem/conv/weight")
    )
    other = build_supernet(MICRO, MACRO, SuperNetConfig(), seed=8)
    assert not np.array_equal(
        full.store.get("stem/conv/weight"), other.store.get("stem/conv/weight")
    )


def test_wsbn_allocates_one_bn_per_possible_edge():
    sn = build_supernet(MICRO, MACRO, SuperNetConfig(wsbn=True), seed=0)
    # stem + one state per (destination, source) pair per stack
    assert len(sn.bn_states) == 1 + MACRO.num_layers * len(MICRO.possible_edges())
    assert not any("/conv3x3/bn" in k or "/conv1x1/bn" in k for k in sn.store.keys())
    assert "stack0/wsbn/node3/from1/bn/scale" in sn.store.keys()


def test_wsbn_standalone_restricts_to_arch_edges():
    sa = build_standalone(
        SearchSpaceSpec(), PARALLEL, MACRO, seed=0
    )
    # standalone builds share the machinery; flip wsbn on via the shared builder
    sn = build_supernet(
        MICRO, MACRO,
        SuperNetConfig(channel_strategy="disabled", fixed_k=2, wsbn=True,
                       dynamic_channel_train=False, dynamic_channel_test=False),
        seed=0, restrict_to=PARALLEL,
    )
    assert len(sn.bn_states) == 1 + MACRO.num_layers * len(PARALLEL.edges)
    del sa


# ----------------------------------------------------------- path queries

def test_select_path_matches_forward_touched_keys():
    sn = build_supernet(MICRO, MACRO, SuperNetConfig(), seed=1)
    x, y = batch()
    index = enumerate_space(MICRO)
    for enc in index.representatives.values():
        loss, tape = path_loss(sn, enc, x, y, train=True)
        assert tuple(sorted(tape.param_keys())) == select_path(sn, enc), enc
        assert np.isfinite(float(loss.data))


def test_select_path_matches_touched_keys_edge_space():
    sn = build_supernet(EDGE2, MACRO, SuperNetConfig(
        channel_strategy="fixed_chunk"), seed=1)
    x, y = batch()
    index = enumerate_space(EDGE2)
    for enc in list(index.representatives.values())[:24]:
        _, tape = path_loss(sn, enc, x, y, train=True)
        assert tuple(sorted(tape.param_keys())) == select_path(sn, enc), enc


def test_select_path_matches_touched_keys_wsbn():
    sn = build_supernet(MICRO, MACRO, SuperNetConfig(wsbn=True), seed=1)
    x, y = batch()
    for enc in (CHAIN, PARALLEL, FULL):
        _, tape = path_loss(sn, enc, x, y, train=True)
        assert tuple(sorted(tape.param_keys())) == select_path(sn, enc)


def test_path_param_count_exact():
    sn = build_supernet(MICRO, MACRO, SuperNetConfig(), seed=0)
    stem = 4 * 1 * 9 + 8              # conv + affine bn
    head = 4 * 3 + 3
    conv3 = CellEncoding(2, CHAIN.edges, (0, 0))
    conv1 = CellEncoding(2, CHAIN.edges, (1, 1))
    pool = CellEncoding(2, CHAIN.edges, (2, 2))
    assert path_param_count(sn, conv3) == stem + head + 4 * (4 * 4 * 9 + 8)
    assert path_param_count(sn, conv1) == stem + head + 4 * (4 * 4 + 8)
    assert path_param_count(sn, pool) == stem + head


# Frozen copy of the allocation and path selection that predate the one
# layout table: the builder's store key order (shapes only) and BN state keys,
# and select_path. The layout table must reproduce them, except that under
# ofa_kernel a site's ofa_proj now follows its conv3x3 BN entries.

def reference_build(spec, macro, config, restrict_to=None, bn_affine=True, bn_track=False):
    """(store key -> shape in creation order, BN state keys in order)."""
    shapes: dict[str, tuple] = {}
    bn_keys: list[str] = []
    c = macro.init_channels
    width = max(1, c // config.fixed_k) if config.channel_strategy == "disabled" else c

    def site_name(stack, where):
        if spec.op_placement == "node":
            return f"stack{stack}/node{where}"
        return f"stack{stack}/edge{where[0]}-{where[1]}"

    def new_bn(key, channels):
        names = (["/scale", "/shift"] if bn_affine else []) + (["/mean", "/var"] if bn_track else [])
        for name in names:
            shapes.setdefault(key + name, (channels,))
        bn_keys.append(key)

    def active_ops(where):
        if restrict_to is None:
            return list(spec.ops)
        if spec.op_placement == "node":
            return [spec.ops[restrict_to.ops[where - 1]]]
        return [spec.ops[restrict_to.edge_op(where)]] if where in restrict_to.edges else []

    if spec.op_placement == "node":
        wheres = list(range(1, spec.n_nodes + 1))
    else:
        wheres = list(spec.possible_edges() if restrict_to is None else restrict_to.edges)
    shapes["stem/conv/weight"] = (c, macro.in_channels, 3, 3)
    new_bn("stem/bn", c)
    for stack in range(macro.num_layers):
        for where in wheres:
            site = site_name(stack, where)
            ops_here = active_ops(where)
            if config.ofa_kernel and any(op in ("conv3x3", "conv1x1") for op in ops_here):
                shapes.setdefault(f"{site}/conv3x3/weight", (width, width, 3, 3))
                shapes.setdefault(f"{site}/ofa_proj", (width, width))
                if not config.wsbn:
                    for op in ops_here:
                        if op in ("conv3x3", "conv1x1"):
                            new_bn(f"{site}/{op}/bn", width)
            else:
                for op in ops_here:
                    if op == "conv3x3":
                        shapes.setdefault(f"{site}/conv3x3/weight", (width, width, 3, 3))
                    elif op == "conv1x1":
                        shapes.setdefault(f"{site}/conv1x1/weight", (width, width))
                    if op in ("conv3x3", "conv1x1") and not config.wsbn:
                        new_bn(f"{site}/{op}/bn", width)
        if config.wsbn:
            for v in range(1, spec.output_node + 1):
                preds = [u for u in range(v) if not (v == spec.output_node and u == 0)]
                if restrict_to is not None:
                    preds = [u for u in preds if (u, v) in restrict_to.edges]
                for u in preds:
                    new_bn(f"stack{stack}/wsbn/node{v}/from{u}/bn", c)
    shapes["classifier/weight"] = (c, macro.num_classes)
    shapes["classifier/bias"] = (macro.num_classes,)
    return shapes, bn_keys


def reference_select_path(spec, macro, config, bn_affine, enc):
    keys = {"stem/conv/weight", "classifier/weight", "classifier/bias"}
    if bn_affine:
        keys.update({"stem/bn/scale", "stem/bn/shift"})

    def add_bn(key):
        if bn_affine:
            keys.update({key + "/scale", key + "/shift"})

    for stack in range(macro.num_layers):
        if spec.op_placement == "node":
            actives = [(f"stack{stack}/node{v}", spec.ops[enc.ops[v - 1]]) for v in range(1, spec.n_nodes + 1)]
        else:
            actives = [(f"stack{stack}/edge{u}-{v}", spec.ops[enc.edge_op((u, v))]) for u, v in enc.edges]
        for site, op in actives:
            if op == "conv3x3":
                keys.add(f"{site}/conv3x3/weight")
            elif op == "conv1x1":
                if config.ofa_kernel:
                    keys.update({f"{site}/conv3x3/weight", f"{site}/ofa_proj"})
                else:
                    keys.add(f"{site}/conv1x1/weight")
            if op in ("conv3x3", "conv1x1") and not config.wsbn:
                add_bn(f"{site}/{op}/bn")
        if config.wsbn:
            for u, v in enc.edges:
                add_bn(f"stack{stack}/wsbn/node{v}/from{u}/bn")
    return tuple(sorted(keys))


LAYOUT_SPACES = {
    "node-concat-n2": SearchSpaceSpec(),
    "node-concat-n3": SearchSpaceSpec(n_nodes=3),
    "edge-sum-n2": EDGE2,
}
LAYOUT_MACRO = MacroParams(init_channels=8, num_layers=2, num_classes=3, in_channels=1)


def layout_configs(spec):
    for wsbn, ofa in itertools.product((False, True), repeat=2):
        yield SuperNetConfig(wsbn=wsbn, ofa_kernel=ofa)
        if spec.channel_mode == "dynamic":
            for k in range(1, spec.n_nodes + 1):
                yield SuperNetConfig(channel_strategy="disabled", fixed_k=k, wsbn=wsbn, ofa_kernel=ofa)


def assert_matches_reference(sn, ref_shapes, ref_bn_keys):
    shapes = {key: value.shape for key, value in sn.store.items()}
    assert shapes == ref_shapes  # same entries and shapes, in any order
    if not sn.config.ofa_kernel:
        assert list(shapes) == list(ref_shapes)
        assert list(sn.bn_states) == ref_bn_keys


@pytest.mark.parametrize("name", list(LAYOUT_SPACES))
def test_layout_matches_the_reference_builder_and_select_path(name):
    """Every config of the grid (plain, WSBN, OFA, both, each disabled
    fixed_k) with BN affine and tracking each on and off, every architecture
    of the space, and every stand-alone net."""
    spec = LAYOUT_SPACES[name]
    encs = list(enumerate_space(spec).representatives.values())
    checked = 0
    for affine, track in itertools.product((False, True), repeat=2):
        for config in layout_configs(spec):
            sn = build_supernet(spec, LAYOUT_MACRO, config, seed=0, bn_affine=affine, bn_track=track)
            ref_shapes, ref_bn_keys = reference_build(spec, LAYOUT_MACRO, config, None, affine, track)
            assert_matches_reference(sn, ref_shapes, ref_bn_keys)
            for enc in encs:
                if config.fixed_k not in (None, enc.output_in_degree()):
                    continue
                keys = reference_select_path(spec, LAYOUT_MACRO, config, affine, enc)
                assert select_path(sn, enc) == keys, (config, enc)
                assert path_param_count(sn, enc) == sum(math.prod(ref_shapes[k]) for k in keys), (config, enc)
                checked += 1
        for enc in encs:
            alone = build_standalone(spec, enc, LAYOUT_MACRO, seed=0, bn_affine=affine, bn_track=track)
            ref_shapes, ref_bn_keys = reference_build(spec, LAYOUT_MACRO, alone.config, enc, affine, track)
            assert_matches_reference(alone, ref_shapes, ref_bn_keys)
            keys = reference_select_path(spec, LAYOUT_MACRO, alone.config, affine, enc)
            assert select_path(alone, enc) == keys
            assert path_param_count(alone, enc) == sum(math.prod(ref_shapes[k]) for k in keys)
            checked += 1
    # per BN pair: 4 shared configs, as many disabled ones (each architecture
    # lies in one fixed_k sub-space), and the stand-alone nets
    assert checked == 4 * len(encs) * (9 if spec.channel_mode == "dynamic" else 5)


def test_path_width_rules():
    dyn = build_supernet(MICRO, MACRO, SuperNetConfig(), seed=0)
    assert path_width(dyn, CHAIN, train=True) == 4
    assert path_width(dyn, PARALLEL, train=True) == 2
    assert path_width(dyn, PARALLEL, train=False) == 2

    static_eval = build_supernet(
        MICRO, MACRO, SuperNetConfig(dynamic_channel_test=False), seed=0
    )
    assert path_width(static_eval, PARALLEL, train=True) == 2
    assert path_width(static_eval, PARALLEL, train=False) == 4

    sub = build_supernet(
        MICRO, MACRO,
        SuperNetConfig(channel_strategy="disabled", fixed_k=2,
                       dynamic_channel_train=False, dynamic_channel_test=False),
        seed=0,
    )
    assert sub.alloc_width == 2
    assert path_width(sub, PARALLEL, train=True) == 2

    fixed = build_supernet(EDGE2, MACRO, SuperNetConfig(), seed=0)
    edge_enc = CellEncoding(2, ((0, 1), (1, 3)), (0, 1))
    assert path_width(fixed, edge_enc, train=True) == 4

    narrow = build_supernet(MICRO, MacroParams(init_channels=1, num_layers=1), SuperNetConfig(), seed=0)
    assert path_width(narrow, PARALLEL, train=True) == 1  # floors at one channel


# ------------------------------------------------------- forward semantics

def test_forward_is_finite_across_the_whole_space():
    sn = build_supernet(MICRO, MACRO, SuperNetConfig(), seed=2)
    x, _ = batch(1)
    for enc in enumerate_space(MICRO).representatives.values():
        for train in (True, False):
            logits, _ = forward_path(sn, enc, x, train=train)
            assert logits.data.shape == (4, 3)
            assert np.all(np.isfinite(logits.data))


def test_concat_wider_than_its_target_is_cut_by_the_channel_strategy():
    """Node 3 concatenates three 1-channel pieces at width 8 // 3 = 2."""
    n3 = SearchSpaceSpec(n_nodes=3)
    enc = CellEncoding(3, ((0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)), (0, 1, 2))
    macro = MacroParams(init_channels=8, num_layers=2, num_classes=3, in_channels=1)
    x, y = batch(4)
    for strategy in ("interpolate", "fixed_chunk"):
        sn = build_supernet(n3, macro, SuperNetConfig(channel_strategy=strategy), seed=0)
        assert path_width(sn, enc, train=True) == 2
        loss, tape = path_loss(sn, enc, x, y, train=True)
        tape.backward(loss)
        assert np.isfinite(loss.data)
        logits, _ = forward_path(sn, enc, x, train=False)
        assert np.all(np.isfinite(logits.data))


def test_eval_forward_records_nothing_and_cannot_backpropagate():
    sn = build_supernet(MICRO, MACRO, SuperNetConfig(), seed=3)
    x, y = batch(5)
    logits, tape = forward_path(sn, PARALLEL, x, train=False)
    assert np.all(np.isfinite(logits.data))
    assert tape._nodes == []
    assert tuple(sorted(tape.param_keys())) == select_path(sn, PARALLEL)
    loss = nn.cross_entropy(logits, y)
    with pytest.raises(RuntimeError, match="records no nodes"):
        tape.backward(loss)

    loss, tape = path_loss(sn, PARALLEL, x, y, train=True)
    assert tape._nodes
    tape.backward(loss)
    for key in tape.param_keys():
        if not sn.store.is_buffer(key):
            assert sn.store.grad(key) is not None, key


def test_sum_merge_space_forward():
    sn = build_supernet(EDGE2, MACRO, SuperNetConfig(), seed=2)
    x, _ = batch(2)
    for enc in list(enumerate_space(EDGE2).representatives.values())[:16]:
        logits, _ = forward_path(sn, enc, x, train=True)
        assert logits.data.shape == (4, 3)
        assert np.all(np.isfinite(logits.data))


def test_standalone_matches_disabled_subspace_bitwise():
    """A sub-space super-net and a stand-alone net share parameter keys,
    so at the same seed the restricted forward must agree exactly."""
    sub = build_supernet(
        MICRO, MACRO,
        SuperNetConfig(channel_strategy="disabled", fixed_k=2,
                       dynamic_channel_train=False, dynamic_channel_test=False),
        seed=5, bn_track=True,
    )
    alone = build_standalone(MICRO, PARALLEL, MACRO, seed=5)
    x, y = batch(3)
    for train in (False, True):
        a, _ = forward_path(sub, PARALLEL, x, train=train)
        b, _ = forward_path(alone, PARALLEL, x, train=train)
        np.testing.assert_array_equal(a.data, b.data)
    la, _ = path_loss(sub, PARALLEL, x, y, train=False)
    lb, _ = path_loss(alone, PARALLEL, x, y, train=False)
    assert float(la.data) == float(lb.data)


def test_mean_path_loss_is_exact_average():
    sn = build_supernet(MICRO, MACRO, SuperNetConfig(), seed=3)
    x, y = batch(4)
    encs = [CHAIN, PARALLEL, FULL]
    singles = []
    for enc in encs:
        loss, _ = path_loss(sn, enc, x, y, train=False, bn_mode="batch")
        singles.append(float(loss.data))
    assert mean_path_loss(sn, encs, x, y) == sum(singles) / len(singles)
    assert mean_path_loss(sn, [CHAIN], x, y) == singles[0]
    with pytest.raises(ValueError):
        mean_path_loss(sn, [], x, y)


def test_zero_op_paths_emit_classifier_bias():
    spec = SearchSpaceSpec(ops=("zero", "conv3x3", "avgpool3x3"))
    sn = build_supernet(spec, MACRO, SuperNetConfig(), seed=4)
    bias = np.array([0.3, -0.2, 0.1], dtype=np.float32)
    sn.store.set("classifier/bias", bias)
    x, _ = batch(5)
    enc = CellEncoding(2, CHAIN.edges, (0, 0))
    logits, _ = forward_path(sn, enc, x, train=False)
    np.testing.assert_array_equal(logits.data, np.tile(bias, (4, 1)))


def test_identity_chain_reduces_to_stem_and_classifier():
    spec = SearchSpaceSpec(ops=("identity", "conv3x3", "avgpool3x3"))
    sn = build_supernet(spec, MACRO, SuperNetConfig(), seed=6)
    x, _ = batch(6)
    enc = CellEncoding(2, CHAIN.edges, (0, 0))
    logits, _ = forward_path(sn, enc, x, train=False)

    tape = Tape(sn.store)
    h = nn.conv3x3(tape.input(x), tape.param("stem/conv/weight"))
    h = nn.batchnorm(h, sn.bn_states["stem/bn"], train=False, bn_mode="batch")
    h = nn.relu(h)
    expected = nn.linear(
        nn.global_pool(h), tape.param("classifier/weight"), tape.param("classifier/bias")
    )
    np.testing.assert_array_equal(logits.data, expected.data)


# --------------------------------------------------------------- channels

def test_interpolation_matrix_properties():
    m = interpolation_matrix(8, 3)
    assert m.shape == (3, 8)
    np.testing.assert_allclose(m.sum(axis=1), np.ones(3))
    np.testing.assert_array_equal(interpolation_matrix(4, 4), np.eye(4))
    with pytest.raises(ValueError):
        interpolation_matrix(3, 5)


def test_channel_strategy_only_engages_below_alloc_width():
    chunk = build_supernet(MICRO, MACRO, SuperNetConfig(channel_strategy="fixed_chunk"), seed=9)
    interp = build_supernet(MICRO, MACRO, SuperNetConfig(channel_strategy="interpolate"), seed=9)
    x, _ = batch(7)
    # in-degree 1 runs at the full width: strategies cannot differ
    a, _ = forward_path(chunk, CHAIN, x, train=True)
    b, _ = forward_path(interp, CHAIN, x, train=True)
    np.testing.assert_array_equal(a.data, b.data)
    # in-degree 2 halves the width and the slicing rules diverge
    a2, _ = forward_path(chunk, PARALLEL, x, train=True)
    b2, _ = forward_path(interp, PARALLEL, x, train=True)
    assert not np.array_equal(a2.data, b2.data)


def test_shuffle_strategy_requires_rng():
    sn = build_supernet(MICRO, MACRO, SuperNetConfig(channel_strategy="shuffle"), seed=9)
    x, _ = batch(8)
    with pytest.raises(ValueError):
        forward_path(sn, PARALLEL, x, train=False)
    logits, _ = forward_path(sn, PARALLEL, x, train=False, rng=named_rng(0, "shuffle"))
    assert np.all(np.isfinite(logits.data))


def test_ofa_kernel_projects_center_slice():
    """With an identity projection the derived 1x1 kernel is exactly the
    3x3 kernel's center, so logits match a plain build whose 1x1 weights
    were overwritten with those centers."""
    ofa = build_supernet(MICRO, MACRO, SuperNetConfig(ofa_kernel=True), seed=11)
    plain = build_supernet(MICRO, MACRO, SuperNetConfig(), seed=11)
    for stack in range(MACRO.num_layers):
        for node in (1, 2):
            site = f"stack{stack}/node{node}"
            center = ofa.store.get(f"{site}/conv3x3/weight")[:, :, 1, 1]
            plain.store.set(f"{site}/conv1x1/weight", center.copy())
    x, _ = batch(9)
    enc1x1 = CellEncoding(2, CHAIN.edges, (1, 1))
    enc3x3 = CellEncoding(2, CHAIN.edges, (0, 0))
    for enc in (enc1x1, enc3x3):
        a, _ = forward_path(ofa, enc, x, train=False)
        b, _ = forward_path(plain, enc, x, train=False)
        np.testing.assert_array_equal(a.data, b.data)


def test_ofa_select_path_shares_the_3x3_tensor():
    ofa = build_supernet(MICRO, MACRO, SuperNetConfig(ofa_kernel=True), seed=11)
    enc1x1 = CellEncoding(2, CHAIN.edges, (1, 1))
    keys = select_path(ofa, enc1x1)
    assert "stack0/node1/conv3x3/weight" in keys
    assert "stack0/node1/ofa_proj" in keys
    assert not any("conv1x1/weight" in k for k in ofa.store.keys())


# ---------------------------------------------------------------- dropout

def test_dropout_needs_rng_in_train_but_not_eval():
    sn = build_supernet(
        MICRO, MACRO, SuperNetConfig(path_dropout=0.5, global_dropout=0.25), seed=12
    )
    plain = build_supernet(MICRO, MACRO, SuperNetConfig(), seed=12)
    x, _ = batch(10)
    with pytest.raises(ValueError):
        forward_path(sn, CHAIN, x, train=True)
    eval_drop, _ = forward_path(sn, CHAIN, x, train=False)
    eval_plain, _ = forward_path(plain, CHAIN, x, train=False)
    np.testing.assert_array_equal(eval_drop.data, eval_plain.data)
    train_drop, _ = forward_path(sn, CHAIN, x, train=True, rng=named_rng(3, "drop"))
    assert not np.array_equal(train_drop.data, eval_plain.data)


# ------------------------------------------------------------- guard rails

def test_check_arch_rejects_invalid_and_foreign_paths():
    sn = build_supernet(MICRO, MACRO, SuperNetConfig(), seed=0)
    bad = CellEncoding(2, ((0, 3),), (0, 0))
    with pytest.raises(ValueError):
        select_path(sn, bad)

    sub = build_supernet(
        MICRO, MACRO,
        SuperNetConfig(channel_strategy="disabled", fixed_k=2,
                       dynamic_channel_train=False, dynamic_channel_test=False),
        seed=0,
    )
    with pytest.raises(ValueError):
        select_path(sub, CHAIN)  # in-degree 1 path in a k=2 sub-space

    alone = build_standalone(MICRO, CHAIN, MACRO, seed=0)
    other = CellEncoding(2, CHAIN.edges, (1, 0))
    with pytest.raises(ValueError):
        select_path(alone, other)


def test_supernet_config_validation():
    with pytest.raises(ValueError):
        SuperNetConfig(channel_strategy="disabled")  # no fixed_k
    with pytest.raises(ValueError):
        SuperNetConfig(channel_strategy="fixed_chunk", fixed_k=2)
    for k in (0, -1):  # alloc_width divides by fixed_k
        with pytest.raises(ValueError, match="fixed_k must be at least 1"):
            SuperNetConfig(channel_strategy="disabled", fixed_k=k)
    with pytest.raises(ValueError):
        SuperNetConfig(path_dropout=1.0)
    with pytest.raises(ValueError):
        SuperNetConfig(channel_strategy="nope")


def test_checkpoint_header_is_stable_and_discriminating():
    a = build_supernet(MICRO, MACRO, SuperNetConfig(), seed=0)
    b = build_supernet(MICRO, MACRO, SuperNetConfig(), seed=0)
    c = build_supernet(MICRO, MACRO, SuperNetConfig(wsbn=True), seed=0)
    d = build_supernet(MICRO, MACRO, SuperNetConfig(), seed=1)
    assert checkpoint_header(a) == checkpoint_header(b)
    assert checkpoint_header(a) != checkpoint_header(c)
    assert checkpoint_header(a) != checkpoint_header(d)
