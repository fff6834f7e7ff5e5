"""Autodiff engine: per-primitive gradient checks, BN modes, persistence."""

from __future__ import annotations

import gc
import itertools
import tracemalloc
import weakref
from importlib import resources

import numpy as np
import pytest

from wsnaslab import nncore as nn
from wsnaslab.config import load_config
from wsnaslab.nncore import (
    BNState,
    ParamStore,
    Tape,
    finite_diff_check,
    load_checkpoint,
    named_rng,
    save_checkpoint,
    stream_key,
)
from wsnaslab.nncore.engine import _f64
from wsnaslab.protocol import evaluate_path
from wsnaslab.searchspace import enumerate_space
from wsnaslab.supernet import build_standalone, build_supernet, interpolation_matrix, path_loss

TOL = 1e-6  # float64 central differences are tight


def f64_store(seed=0) -> ParamStore:
    return ParamStore(seed=seed, dtype=np.float64)


def weighted_sum(out, rng_seed=3):
    """Scalar readout that is non-uniformly sensitive to every element."""
    r = named_rng(rng_seed, "readout").standard_normal(out.data.shape)
    return nn.reduce_sum(nn.mul_mask(out, r))


def check(builder, store, tol=TOL, **kw):
    result = finite_diff_check(builder, store, **kw)
    assert result["max_rel_err"] < tol, result["per_param"]
    return result


# ---------------------------------------------------- primitive gradients

def test_conv3x3_gradients():
    store = f64_store()
    store.create("x", (2, 3, 5, 5), init="normal", fan_in=1)
    store.create("w", (4, 3, 3, 3), init="normal", fan_in=27)

    def builder(s):
        tape = Tape(s)
        return weighted_sum(nn.conv3x3(tape.param("x"), tape.param("w")))

    check(builder, store)


def test_conv1x1_gradients():
    store = f64_store()
    store.create("x", (2, 3, 4, 4), init="normal", fan_in=1)
    store.create("w", (5, 3), init="normal", fan_in=3)

    def builder(s):
        tape = Tape(s)
        return weighted_sum(nn.conv1x1(tape.param("x"), tape.param("w")))

    check(builder, store)


def test_avgpool_and_global_pool_gradients():
    store = f64_store()
    store.create("x", (2, 3, 5, 5), init="normal", fan_in=1)

    def builder(s):
        tape = Tape(s)
        return weighted_sum(nn.global_pool(nn.avgpool3x3(tape.param("x"))))

    check(builder, store)


def test_linear_relu_gradients():
    store = f64_store()
    store.create("x", (4, 6), init="normal", fan_in=1)
    # keep pre-activations away from the relu kink
    store.set("x", store.get("x") + np.sign(store.get("x")) * 0.5)
    store.create("w", (6, 3), init="normal", fan_in=6)
    store.create("b", (3,), init="normal", fan_in=1)

    def builder(s):
        tape = Tape(s)
        h = nn.relu(tape.param("x"))
        return weighted_sum(nn.linear(h, tape.param("w"), tape.param("b")))

    check(builder, store)


def test_merge_primitives_gradients():
    store = f64_store()
    store.create("a", (2, 3, 4, 4), init="normal", fan_in=1)
    store.create("b", (2, 3, 4, 4), init="normal", fan_in=1)
    store.create("c", (2, 2, 4, 4), init="normal", fan_in=1)

    def builder(s):
        tape = Tape(s)
        a, b, c = tape.param("a"), tape.param("b"), tape.param("c")
        merged = nn.concat_channels([nn.sum_tensors([a, b]), c])
        return weighted_sum(nn.channel_pad(merged, 7))

    check(builder, store)


def test_take_axis_scatter_add_gradients():
    store = f64_store()
    store.create("x", (2, 5, 3, 3), init="normal", fan_in=1)
    # a repeated index exercises the scatter-add, distinct ones the plain
    # assignment; -1 and 4 name the same channel, so they add too
    for idx in (np.array([0, 2, 2, 4]), np.array([4, 0, 1]), np.array([-1, 2, 4])):
        def builder(s, idx=idx):
            tape = Tape(s)
            return weighted_sum(nn.take_axis(tape.param("x"), idx, axis=1))

        check(builder, store)


def test_mix_axis_gradients():
    store = f64_store()
    store.create("x", (2, 6, 3, 3), init="normal", fan_in=1)
    mat = named_rng(1, "mix").standard_normal((4, 6))

    def builder(s):
        tape = Tape(s)
        return weighted_sum(nn.mix_axis(tape.param("x"), mat, axis=1))

    check(builder, store)


def test_reshape_matmul_gradients():
    store = f64_store()
    store.create("x", (3, 4), init="normal", fan_in=1)
    store.create("m", (4, 4), init="normal", fan_in=4)

    def builder(s):
        tape = Tape(s)
        h = nn.matmul2d(tape.param("x"), tape.param("m"))
        return weighted_sum(nn.reshape(h, (2, 6)))

    check(builder, store)


def test_batchnorm_gradients_batch_mode():
    store = f64_store()
    store.create("x", (6, 4, 3, 3), init="normal", fan_in=1)
    state = BNState("bn", channels=4, affine=True, track=False)
    state.create_params(store)
    store.set("bn/scale", 1.0 + 0.3 * named_rng(2, "s").standard_normal(4))
    store.set("bn/shift", 0.2 * named_rng(2, "b").standard_normal(4))

    def builder(s):
        tape = Tape(s)
        return weighted_sum(nn.batchnorm(tape.param("x"), state, train=True))

    check(builder, store, tol=1e-5)


def test_batchnorm_gradients_sliced_channels():
    store = f64_store()
    store.create("x", (5, 3, 3, 3), init="normal", fan_in=1)
    state = BNState("bn", channels=6, affine=True, track=False)
    state.create_params(store)

    def builder(s):
        tape = Tape(s)
        return weighted_sum(nn.batchnorm(tape.param("x"), state, train=True))

    result = finite_diff_check(builder, store)
    assert result["max_rel_err"] < 1e-5


def test_cross_entropy_gradients_and_value():
    store = f64_store()
    store.create("z", (5, 3), init="normal", fan_in=1)
    y = np.array([0, 2, 1, 1, 0])

    def builder(s):
        tape = Tape(s)
        return nn.cross_entropy(tape.param("z"), y)

    check(builder, store)

    z = store.get("z")
    shifted = z - z.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    expected = -logp[np.arange(5), y].mean()
    tape = Tape(store)
    loss = nn.cross_entropy(tape.param("z"), y)
    assert float(loss.data) == pytest.approx(expected, rel=1e-12)


def test_full_composite_path_gradients():
    """Stem -> cell-ish block -> classifier, all primitives chained."""
    store = f64_store(7)
    store.create("x", (4, 1, 6, 6), init="normal", fan_in=1)
    store.create("stem", (4, 1, 3, 3), init="normal", fan_in=9)
    store.create("w1", (4, 4), init="normal", fan_in=4)
    store.create("cls", (4, 3), init="normal", fan_in=4)
    store.create("cls_b", (3,), init="zeros")
    state = BNState("bn", channels=4, affine=True, track=False)
    state.create_params(store)
    y = np.array([0, 1, 2, 0])

    # no relu here: a pre-activation near zero would poison the central
    # difference; the kink itself is covered by the dedicated relu test
    def builder(s):
        tape = Tape(s)
        h = nn.conv3x3(tape.param("x"), tape.param("stem"))
        h = nn.batchnorm(h, state, train=True)
        h = nn.sum_tensors([nn.conv1x1(h, tape.param("w1")), nn.avgpool3x3(h)])
        pooled = nn.global_pool(h)
        logits = nn.linear(pooled, tape.param("cls"), tape.param("cls_b"))
        return nn.cross_entropy(logits, y)

    check(builder, store, tol=1e-5, max_elements_per_param=6)


def nan_masked_store_and_builder():
    store = f64_store()
    store.create("w", (3,), init="ones")

    def builder(s):
        tape = Tape(s)
        return nn.reduce_sum(nn.mul_mask(tape.param("w"), np.array([1.0, np.nan, 2.0])))

    return store, builder


def test_a_non_finite_error_counts_as_infinite():
    store, builder = nan_masked_store_and_builder()
    result = finite_diff_check(builder, store)
    assert result["max_rel_err"] == np.inf
    assert result["per_param"] == {"w": np.inf}


@pytest.mark.parametrize("epsilon", [0.0, -1e-4, np.nan, np.inf])
def test_finite_diff_check_refuses_an_epsilon_that_is_not_positive_and_finite(epsilon):
    store, builder = nan_masked_store_and_builder()
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        finite_diff_check(builder, store, epsilon=epsilon)


# ------------------------------------------------------------ behaviors

def test_conv1x1_identity_weight_is_identity():
    store = f64_store()
    x = named_rng(0, "x").standard_normal((2, 3, 4, 4))
    tape = Tape(store)
    w = tape.constant(np.eye(3))
    out = nn.conv1x1(tape.input(x), w)
    np.testing.assert_allclose(out.data, x)


def test_conv3x3_delta_kernel_is_identity():
    store = f64_store()
    x = named_rng(0, "x").standard_normal((2, 2, 5, 5))
    w = np.zeros((2, 2, 3, 3))
    w[0, 0, 1, 1] = 1.0
    w[1, 1, 1, 1] = 1.0
    tape = Tape(store)
    out = nn.conv3x3(tape.input(x), tape.constant(w))
    np.testing.assert_allclose(out.data, x, atol=1e-12)


def test_avgpool_divides_by_nine_with_zero_padding():
    store = f64_store()
    x = np.ones((1, 1, 4, 4))
    tape = Tape(store)
    out = nn.avgpool3x3(tape.input(x)).data[0, 0]
    assert out[1, 1] == pytest.approx(1.0)          # full 3x3 window
    assert out[0, 0] == pytest.approx(4.0 / 9.0)    # corner window
    assert out[0, 1] == pytest.approx(6.0 / 9.0)    # border window


def test_zero_op_blocks_gradient():
    store = f64_store()
    store.create("x", (2, 2, 3, 3), init="normal", fan_in=1)
    tape = Tape(store)
    x = tape.param("x")
    loss = nn.reduce_sum(nn.zero_op(x))
    tape.backward(loss)
    assert float(loss.data) == 0.0
    assert store.grad("x") is None


def test_dropout_mask_values():
    rng = named_rng(0, "drop")
    mask = nn.dropout_mask(rng, (1000,), 0.25)
    values = np.unique(mask).astype(np.float64)
    assert all(np.isclose(v, 0.0) or np.isclose(v, 1.0 / 0.75) for v in values)
    assert abs(float(mask.mean()) - 1.0) < 0.1
    ones = nn.dropout_mask(rng, (8,), 0.0)
    np.testing.assert_array_equal(ones, np.ones(8, dtype=np.float32))
    with pytest.raises(ValueError):
        nn.dropout_mask(rng, (4,), 1.0)


# ------------------------------------------------------------- tape rules

def test_tape_single_use():
    store = f64_store()
    store.create("x", (3, 3), init="normal", fan_in=1)
    tape = Tape(store)
    loss = nn.reduce_sum(tape.param("x"))
    tape.backward(loss)
    with pytest.raises(RuntimeError, match="reused"):
        nn.reduce_sum(tape.param("x"))
    with pytest.raises(RuntimeError, match="reused"):
        tape.backward(loss)


def test_a_backward_that_raises_consumes_the_tape():
    """A retry must not add the first walk's partial gradients again."""
    store = f64_store()
    store.create("w", (2, 2), init="normal", fan_in=1)
    tape = Tape(store)
    scaled = nn.mul_mask(tape.param("w"), np.full((2, 2), 3.0))
    failures = [MemoryError("once")]

    def flaky(d_out):
        if failures:
            raise failures.pop()
        return (d_out,)

    loss = nn.reduce_sum(tape._push(scaled.data, (scaled,), flaky))
    with pytest.raises(MemoryError):
        tape.backward(loss)
    with pytest.raises(RuntimeError, match="reused"):
        tape.backward(loss)
    assert store.grad("w") is None


def test_backward_frees_each_node_before_the_next_one_runs():
    """A node's closure, and what only it holds, is gone by the time the
    backward of the node before it runs."""
    store = f64_store()
    store.create("w", (2, 2), init="normal", fan_in=1)
    tape = Tape(store)
    w = tape.param("w")
    held = np.ones((2, 2))
    freed = weakref.ref(held)
    seen = []

    def first(d_out):
        seen.append(freed())
        return (d_out,)

    h = tape._push(w.data, (w,), first)
    h = tape._push(h.data, (h,), lambda d_out, held=held: (d_out * held,))
    del held
    tape.backward(nn.reduce_sum(h))
    assert seen == [None]
    np.testing.assert_array_equal(store.grad("w"), np.ones((2, 2)))


def test_tape_param_keys_are_touched_only():
    store = f64_store()
    store.create("used", (2, 2), init="normal", fan_in=1)
    store.create("unused", (2, 2), init="normal", fan_in=1)
    tape = Tape(store)
    loss = nn.reduce_sum(tape.param("used"))
    assert tape.param_keys() == ["used"]
    tape.backward(loss)
    assert store.grad("unused") is None
    np.testing.assert_allclose(store.grad("used"), np.ones((2, 2)))


def test_values_from_different_tapes_refuse_to_mix():
    store = f64_store()
    store.create("x", (2, 2), init="normal", fan_in=1)
    a = Tape(store).param("x")
    b = Tape(store).param("x")
    with pytest.raises(ValueError):
        nn.matmul2d(a, b)


def test_input_grad():
    store = f64_store()
    tape = Tape(store)
    x = tape.input(np.arange(4.0).reshape(2, 2))
    loss = nn.reduce_sum(nn.mul_mask(x, np.full((2, 2), 2.0)))
    tape.backward(loss)
    np.testing.assert_allclose(tape.input_grad(x), np.full((2, 2), 2.0))


def test_constants_and_zero_op_outputs_store_no_gradient():
    """Only values downstream of an input or a parameter carry gradient."""
    store = f64_store()
    store.create("w", (3, 2, 3, 3), init="normal", fan_in=18)
    tape = Tape(store)
    c = tape.constant(named_rng(0, "const").standard_normal((4, 2, 5, 5)))
    h = nn.conv3x3(c, tape.param("w"))
    z = nn.zero_op(h)
    dead = nn.relu(c)
    tape.backward(weighted_sum(nn.sum_tensors([h, z, nn.conv1x1(dead, tape.constant(np.ones((3, 2))))])))
    assert h.needs_grad and not (c.needs_grad or z.needs_grad or dead.needs_grad)
    assert tape.input_grad(c) is None and tape.input_grad(z) is None and tape.input_grad(dead) is None
    assert store.grad("w") is not None
    # h's gradient, like every other non-leaf one, is freed by the walk;
    # the weight's stays, and nothing was stored for z or the dead branch
    assert tape.input_grad(h) is None
    assert list(tape._grads) == [tape._params["w"]]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_constant_batch_leaves_every_parameter_gradient_bit_for_bit(dtype, monkeypatch):
    """forward_path feeds the batch as a constant, so the stem conv skips
    d_x; the parameter gradients are those of an input batch."""
    cfg = load_config(resources.files("wsnaslab") / "presets" / "micro-node-concat.json")
    p = cfg.protocol
    index = enumerate_space(cfg.space)
    rng = named_rng(0, "constant-batch")
    x = rng.standard_normal((32, cfg.macro.in_channels, 8, 8)).astype(np.float32)
    y = rng.integers(0, cfg.macro.num_classes, size=32)
    real_constant = Tape.constant

    def gradients(enc, make_batch):
        batch = []

        def constant(tape, data):
            if data is not x:
                return real_constant(tape, data)
            batch.append(make_batch(tape, data))
            return batch[0]

        monkeypatch.setattr(Tape, "constant", constant)
        sn = build_supernet(cfg.space, cfg.macro, cfg.supernet, 0, bn_affine=p.bn_affine, bn_track=p.bn_track)
        sn.store = sn.store.astype(dtype)
        loss, tape = path_loss(sn, enc, x, y, train=True)
        tape.backward(loss)
        monkeypatch.undo()
        return {k: sn.store.grad(k) for k in sn.store.grad_keys()}, tape.input_grad(batch[0])

    for arch_hash in index.hashes[::7]:
        enc = index.representatives[arch_hash]
        as_input, input_grad = gradients(enc, Tape.input)
        as_constant, constant_grad = gradients(enc, real_constant)
        assert input_grad is not None and input_grad.shape == x.shape
        assert constant_grad is None
        assert as_input.keys() == as_constant.keys() and "stem/conv/weight" in as_input
        for key, g in as_input.items():
            _bits_equal(as_constant[key], g)


def test_forward_and_backward_leave_no_reference_cycles():
    """Tapes are freed by reference counting: the collector finds nothing."""
    cfg = load_config(resources.files("wsnaslab") / "presets" / "micro-node-concat.json")
    p = cfg.protocol
    sn = build_supernet(cfg.space, cfg.macro, cfg.supernet, 0, bn_affine=p.bn_affine, bn_track=p.bn_track)
    index = enumerate_space(cfg.space)
    enc = next(e for e in index.representatives.values() if e.output_in_degree() == 2)
    rng = named_rng(0, "cycle-batch")
    x = rng.standard_normal((8, cfg.macro.in_channels, 8, 8)).astype(np.float32)
    y = rng.integers(0, cfg.macro.num_classes, size=8)
    gc.collect()
    gc.disable()
    try:
        loss, tape = path_loss(sn, enc, x, y, train=True)
        tape.backward(loss)
        del loss, tape
        evaluate_path(sn, enc, x, y, batch_size=4)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _traced(step):
    """Bytes step() leaves allocated, and its peak, as tracemalloc (which
    numpy reports its buffers to) sees them; step's result is kept alive
    while the first figure is taken."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = step()  # noqa: F841
        held, peak = tracemalloc.get_traced_memory()
        return held - base, peak - base
    finally:
        tracemalloc.stop()


def test_a_recording_conv3x3_keeps_its_input_not_its_im2col():
    """It holds less than twice its output (the shape of x, as O == C);
    the float64 im2col (1.2 MB at this shape) is rebuilt in the backward."""
    rng = named_rng(0, "conv-memory")
    tape = Tape(ParamStore(dtype=np.float32))
    x = tape.input(rng.standard_normal((32, 8, 8, 8)).astype(np.float32))
    w = tape.input(rng.standard_normal((8, 8, 3, 3)).astype(np.float32))
    nn.conv3x3(x, w)  # warms the tap-index cache
    held, _ = _traced(lambda: nn.conv3x3(x, w))
    assert held < 2 * x.data.nbytes, held


def test_a_training_step_frees_its_tape_as_backward_walks():
    """One preset training step on the in-degree-1 (conv3x3, conv3x3)
    stand-alone net at batch 32 holds under 2 MB after its forward and
    peaks under 4 MB in its backward (5.9 and 7.3 MB when every conv kept
    its im2col and backward freed nothing until the tape went)."""
    cfg = load_config(resources.files("wsnaslab") / "presets" / "micro-node-concat.json")
    p = cfg.protocol
    index = enumerate_space(cfg.space)
    enc = next(e for e in index.representatives.values() if e.output_in_degree() == 1 and e.ops == (0, 0))
    sn = build_standalone(cfg.space, enc, cfg.macro, 0, bn_affine=p.bn_affine, bn_track=p.bn_track)
    rng = named_rng(0, "step-memory")
    x = rng.standard_normal((32, cfg.macro.in_channels, 8, 8)).astype(np.float32)
    y = rng.integers(0, cfg.macro.num_classes, size=32)

    def step():
        loss, tape = path_loss(sn, enc, x, y, train=True)
        tape.backward(loss)

    step()  # warms the caches and allocates the store's gradients
    held, _ = _traced(lambda: path_loss(sn, enc, x, y, train=True))
    _, peak = _traced(step)
    assert held < 2e6, held
    assert peak < 4e6, peak


def test_backward_keeps_gradients_for_leaves_only():
    """After one preset super-net training step the tape holds one gradient
    per parameter the step touched and none for the loss, the activations
    or the constant batch (it kept 55-61 arrays, 0.80-0.93 MB, while
    non-leaf gradients stayed until the tape went)."""
    cfg = load_config(resources.files("wsnaslab") / "presets" / "micro-node-concat.json")
    p = cfg.protocol
    sn = build_supernet(cfg.space, cfg.macro, cfg.supernet, 0, bn_affine=p.bn_affine, bn_track=p.bn_track)
    index = enumerate_space(cfg.space)
    rng = named_rng(0, "leaf-grads")
    x = rng.standard_normal((32, cfg.macro.in_channels, 8, 8)).astype(np.float32)
    y = rng.integers(0, cfg.macro.num_classes, size=32)
    for arch_hash in index.hashes[::10]:
        loss, tape = path_loss(sn, index.representatives[arch_hash], x, y, train=True)
        tape.backward(loss)
        assert tape.input_grad(loss) is None
        assert sorted(tape._grads) == sorted(tape._params.values()), arch_hash
        sn.store.zero_grads()


# ------------------------------------------- conv parity with einsum

def _oracle_im2col3(x):
    """(N, C, H, W) -> (N, C, 9, H, W) of zero-padded 3x3 neighborhoods."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.empty((n, c, 9, h, w), dtype=x.dtype)
    for k in range(9):
        di, dj = divmod(k, 3)
        cols[:, :, k] = xp[:, :, di : di + h, dj : dj + w]
    return cols


def _oracle_col2im3(dcols):
    """Adjoint of _oracle_im2col3: scatter-add neighborhoods back."""
    n, c, _, h, w = dcols.shape
    dxp = np.zeros((n, c, h + 2, w + 2), dtype=dcols.dtype)
    for k in range(9):
        di, dj = divmod(k, 3)
        dxp[:, :, di : di + h, dj : dj + w] += dcols[:, :, k]
    return dxp[:, :, 1 : h + 1, 1 : w + 1]


def _oracle_conv3x3(x, w, d_out):
    """Forward (float32), d_x and d_w of the einsum formulation."""
    cols = _oracle_im2col3(x).astype(np.float64)
    w_flat = w.reshape(w.shape[0], w.shape[1], 9).astype(np.float64)
    d64 = d_out.astype(np.float64)
    out = np.einsum("ock,nckhw->nohw", w_flat, cols).astype(np.float32)
    d_w = np.einsum("nohw,nckhw->ock", d64, cols).reshape(w.shape)
    d_x = _oracle_col2im3(np.einsum("ock,nohw->nckhw", w_flat, d64))
    return out, d_x, d_w


def _oracle_conv1x1(x, w, d_out):
    x64, w64, d64 = x.astype(np.float64), w.astype(np.float64), d_out.astype(np.float64)
    out = np.einsum("oc,nchw->nohw", w64, x64).astype(np.float32)
    return out, np.einsum("oc,nohw->nchw", w64, d64), np.einsum("nohw,nchw->oc", d64, x64)


def _oracle_avgpool3x3(x, d_out):
    def stencil(a):
        return (_oracle_im2col3(a).astype(np.float64).sum(axis=2) / 9.0).astype(np.float32)
    return stencil(x), stencil(d_out)


@pytest.mark.parametrize("c", [8, 4, 2, 1])
def test_conv_and_pool_match_the_einsum_formulation(c):
    """Forwards are bitwise equal to the einsum + im2col/col2im oracle at
    preset shapes on a float32 tape; gradients agree to rtol 1e-6. N=13 is
    the second evaluation span, C=1 the stem input, and 5x7 a non-square
    grid."""
    rng = named_rng(c, "conv-parity")
    for n, h, w in ((32, 8, 8), (13, 8, 8), (13, 5, 7)):
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        w3 = (rng.standard_normal((c, c, 3, 3)) / 3.0).astype(np.float32)
        w1 = (rng.standard_normal((c, c)) / 2.0).astype(np.float32)
        d_out = rng.standard_normal((n, c, h, w)).astype(np.float32)
        cases = [
            (nn.conv3x3, (x, w3), _oracle_conv3x3(x, w3, d_out)),
            (nn.conv1x1, (x, w1), _oracle_conv1x1(x, w1, d_out)),
            (nn.avgpool3x3, (x,), _oracle_avgpool3x3(x, d_out)),
        ]
        for op, arrays, (want_out, *want_grads) in cases:
            out, grads = _run(op, arrays, d_out)
            assert out.dtype == np.float32
            np.testing.assert_array_equal(out, want_out, err_msg=f"{op.__name__} {x.shape}")
            for got, want in zip(grads, want_grads):
                np.testing.assert_allclose(got, want, rtol=1e-6, err_msg=f"{op.__name__} {x.shape}")


def _run(op, arrays, d_out, dtype=np.float32):
    """op on input leaves of a tape of this dtype; returns its output and
    the leaves' gradients under the readout sum(out * d_out)."""
    tape = Tape(ParamStore(dtype=dtype))
    leaves = [tape.input(a) for a in arrays]
    out = op(*leaves)
    tape.backward(nn.reduce_sum(nn.mul_mask(out, d_out)))
    return out.data, [tape.input_grad(v) for v in leaves]


def _bits_equal(got, want, err_msg=""):
    assert got.dtype == want.dtype and got.dtype.kind == "f" and got.shape == want.shape, err_msg
    bits = np.dtype(f"u{got.dtype.itemsize}")
    np.testing.assert_array_equal(got.view(bits), want.view(bits), err_msg=err_msg)


# ------------------------------------- fast paths against the old formulas

def test_relu_matches_the_where_formulation_bit_for_bit():
    """On a float32 tape and a float64 one (the FD audit's), with d_out
    whole and as the channel slice concat_channels' backward hands on."""
    for dtype, sliced in itertools.product((np.float32, np.float64), (False, True)):
        tiny = np.finfo(dtype).smallest_subnormal
        special = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1.5, -2.5], dtype=dtype)
        x = np.concatenate([special, named_rng(0, "relu").standard_normal(54).astype(dtype)]).reshape(2, 2, 4, 4)
        d_out = np.concatenate([special[::-1], named_rng(1, "relu").standard_normal(54).astype(dtype)])
        d_out = d_out.reshape(x.shape)
        tape = Tape(ParamStore(dtype=dtype))
        leaf = tape.input(x)
        out = nn.relu(leaf)
        top, d_top = out, d_out
        if sliced:
            # relu's d_out is then d_top[:, :2], a non-contiguous view
            other = named_rng(2, "relu").standard_normal((2, 3, 4, 4))
            top = nn.concat_channels([out, tape.input(other)])
            d_top = np.concatenate([d_out, other], axis=1)
        with np.errstate(invalid="ignore"):  # the readout multiplies 0 by inf
            tape.backward(nn.reduce_sum(nn.mul_mask(top, d_top)))
        what = f"{np.dtype(dtype).name} sliced={sliced}"
        _bits_equal(out.data, np.where(x > 0, x, 0).astype(dtype), what)
        # the readout hands relu d_out * 1.0, which keeps every bit of d_out
        _bits_equal(tape.input_grad(leaf), np.where(x > 0, d_out, 0).astype(dtype), what)


@pytest.mark.parametrize("n", [32, 13])
def test_batch_statistics_match_numpy_mean_and_var(n):
    """Bitwise at float32 (the tape dtype) and float64, where a different
    variance formula would show in the last bits."""
    eps = 1e-5
    for dtype, c in itertools.product((np.float32, np.float64), (8, 4, 2)):
        rng = named_rng(10 * n + c, "bn-exact")
        x = (rng.standard_normal((n, c, 8, 8)) * 3.0 + 1.5).astype(dtype)
        store = ParamStore(seed=0, dtype=dtype)
        state = BNState("bn", channels=8, affine=True, track=True, momentum=0.9, eps=eps)
        state.create_params(store)
        store.set("bn/scale", rng.standard_normal(8).astype(dtype))
        store.set("bn/shift", rng.standard_normal(8).astype(dtype))
        x64 = x.astype(np.float64)
        mean, var = x64.mean(axis=(0, 2, 3)), x64.var(axis=(0, 2, 3))
        x_hat = (x64 - mean.reshape(1, c, 1, 1)) * (1.0 / np.sqrt(var + eps)).reshape(1, c, 1, 1)
        scale = store.get("bn/scale")[:c].astype(np.float64).reshape(1, c, 1, 1)
        shift = store.get("bn/shift")[:c].astype(np.float64).reshape(1, c, 1, 1)
        want = (x_hat * scale + shift).astype(dtype)
        mu0, sig0 = store.get("bn/mean").copy(), store.get("bn/var").copy()
        for train in (False, True):
            out = nn.batchnorm(Tape(store).input(x), state, train=train, bn_mode="batch")
            _bits_equal(out.data, want)
        g = state.momentum
        want_mu = (g * mu0[:c].astype(np.float64) + (1 - g) * mean).astype(dtype)
        want_sig = (g * sig0[:c].astype(np.float64) + (1 - g) * var).astype(dtype)
        _bits_equal(store.get("bn/mean")[:c], want_mu)
        _bits_equal(store.get("bn/var")[:c], want_sig)


def test_mix_axis_matches_the_tensordot_formulation_bit_for_bit():
    rng = named_rng(0, "mix-exact")
    weight = (rng.standard_normal((8, 8, 3, 3)) / 3.0).astype(np.float32)
    act = rng.standard_normal((32, 8, 8, 8)).astype(np.float32)
    for x, axis in ((weight, 0), (act, 1)):
        for mat in (interpolation_matrix(8, 3), interpolation_matrix(8, 4),
                    interpolation_matrix(8, 2), rng.standard_normal((5, 8))):
            shape = list(x.shape)
            shape[axis] = mat.shape[0]
            d_out = rng.standard_normal(shape).astype(np.float32)
            out, (grad,) = _run(lambda v: nn.mix_axis(v, mat, axis), (x,), d_out)
            want = np.moveaxis(np.tensordot(mat, x.astype(np.float64), axes=([1], [axis])), 0, axis)
            want_grad = np.moveaxis(
                np.tensordot(mat.T, d_out.astype(np.float64), axes=([1], [axis])), 0, axis
            )
            _bits_equal(out, want.astype(np.float32))
            _bits_equal(grad, want_grad.astype(np.float32))


def test_channel_pad_matches_np_pad():
    x = named_rng(0, "pad").standard_normal((4, 3, 5, 5)).astype(np.float32)
    tape = Tape(ParamStore(dtype=np.float32))
    for target in (3, 8):
        pad = ((0, 0), (0, target - x.shape[1]), (0, 0), (0, 0))
        _bits_equal(nn.channel_pad(tape.input(x), target).data, np.pad(x, pad))


def test_take_axis_gradients_match_the_float64_scatter_bit_for_bit():
    """Distinct indices scatter into zeros of d_out's dtype, repeated ones
    (here -1 and 7 name one channel) still add in float64; both give the
    bits of the float64 scatter cast back to the tape dtype."""
    for dtype, idx in itertools.product((np.float32, np.float64), ([3, 0, 7, 5], [7, 2, -1, 0])):
        rng = named_rng(0, "take-exact", np.dtype(dtype).name)
        x = rng.standard_normal((4, 8, 3, 3)).astype(dtype)
        d_out = rng.standard_normal((4, len(idx), 3, 3)).astype(dtype)
        out, (grad,) = _run(lambda v: nn.take_axis(v, np.array(idx), axis=1), (x,), d_out, dtype)
        want = np.zeros(x.shape)
        if len(set(np.arange(8)[idx])) == len(idx):
            want[:, idx] = d_out
        else:
            np.add.at(want, (slice(None), np.array(idx)), d_out.astype(np.float64))
        _bits_equal(out, x[:, idx])
        _bits_equal(grad, want.astype(dtype), f"{np.dtype(dtype).name} {idx}")


def test_f64_and_params_alias_float64_arrays():
    """The FD audit perturbs store entries in place and relies on a float64
    tape reading them without a copy."""
    a = np.arange(3.0)
    assert _f64(a) is a
    for dtype in (np.float32, np.float64):
        store = ParamStore(dtype=dtype)
        store.create("w", (2, 2), init="normal", fan_in=2)
        tape = Tape(store)
        assert tape.param("w").data is store.get("w")
        assert tape.param("w").data is store.get("w")


@pytest.mark.parametrize("o, c", [(8, 8), (4, 4), (2, 2), (8, 1), (4, 8), (8, 4)])
def test_conv3x3_gradients_with_the_reused_im2col_are_bit_for_bit(o, c):
    """When O == C the backward writes d_out's im2col over the forward's;
    d_w, d_x and the inputs match the allocating formula exactly."""
    for dtype, (n, h, w) in itertools.product((np.float32, np.float64), ((32, 8, 8), (13, 5, 7))):
        rng = named_rng(10 * o + c, "conv-reuse")
        x = rng.standard_normal((n, c, h, w)).astype(dtype)
        d_out = rng.standard_normal((n, o, h, w)).astype(dtype)
        store = ParamStore(dtype=dtype)
        store.create("w", (o, c, 3, 3), init="normal", fan_in=9 * c)
        w3 = store.get("w")
        x0, w0 = x.copy(), w3.copy()
        tape = Tape(store)
        leaf = tape.input(x)
        # the partner's gradient is the very array conv3x3 gets as d_out
        partner = tape.input(np.zeros((n, o, h, w)))
        tape.backward(nn.reduce_sum(nn.mul_mask(nn.sum_tensors([nn.conv3x3(leaf, tape.param("w")), partner]), d_out)))
        cols = _oracle_im2col3(x).astype(np.float64).reshape(n, c * 9, h * w)
        d_flat = d_out.astype(np.float64).reshape(n, o, h * w)
        want_w = (d_flat @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(o, c, 3, 3)
        w_adj = w3[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).astype(np.float64).reshape(c, o * 9)
        d_cols = _oracle_im2col3(d_out).astype(np.float64).reshape(n, o * 9, h * w)
        want_x = (w_adj @ d_cols).reshape(n, c, h, w)
        _bits_equal(store.grad("w"), want_w.astype(dtype))
        _bits_equal(tape.input_grad(leaf), want_x.astype(dtype))
        _bits_equal(tape.input_grad(partner), d_out)
        _bits_equal(x, x0)
        _bits_equal(w3, w0)


def _old_batchnorm(x, scale, shift, mean, var, d_out, batch, eps):
    """The out-of-place forward and backward formulas, float64 throughout."""
    c = x.shape[1]
    axes, shape = (0, 2, 3), (1, c, 1, 1)
    x64 = x.astype(np.float64)
    if batch:
        count = x.size // c
        mean = x64.sum(axis=axes) / count
        centered = x64 - mean.reshape(shape)
        var = (centered * centered).sum(axis=axes) / count
    else:
        centered = x64 - mean.reshape(shape)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_std.reshape(shape)
    out = x_hat * scale.reshape(shape) + shift.reshape(shape) if scale is not None else x_hat
    d64 = d_out.astype(np.float64)
    d_hat = d64 * scale.reshape(shape) if scale is not None else d64
    if batch:
        m1 = d_hat.mean(axis=axes).reshape(shape)
        m2 = (d_hat * x_hat).mean(axis=axes).reshape(shape)
        d_x = inv_std.reshape(shape) * (d_hat - m1 - x_hat * m2)
    else:
        d_x = d_hat * inv_std.reshape(shape)
    return out, (d64 * x_hat).sum(axis=axes), d64.sum(axis=axes), d_x


@pytest.mark.parametrize("n", [32, 13])
def test_in_place_batchnorm_matches_the_out_of_place_formula(n):
    """Forward and d_scale, d_shift, d_x are bitwise those of the old
    formulas in train, eval-batch and tracked modes, on C 8, 4 and 2 of an
    8-channel state, and neither the input nor d_out is written."""
    eps = 1e-5
    modes = (("train", True, "batch"), ("eval-batch", False, "batch"), ("tracked", False, "tracked"))
    for dtype, c, affine, (mode, train, bn_mode) in itertools.product(
        (np.float32, np.float64), (8, 4, 2), (True, False), modes
    ):
        rng = named_rng(10 * n + c, "bn-in-place", mode)
        x = (rng.standard_normal((n, c, 8, 8)) * 3.0 + 1.5).astype(dtype)
        d_out = rng.standard_normal((n, c, 8, 8)).astype(dtype)
        store = ParamStore(seed=0, dtype=dtype)
        state = BNState("bn", channels=8, affine=affine, track=True, momentum=0.9, eps=eps)
        state.create_params(store)
        if affine:
            store.set("bn/scale", rng.standard_normal(8).astype(dtype))
            store.set("bn/shift", rng.standard_normal(8).astype(dtype))
        store.set("bn/mean", rng.standard_normal(8).astype(dtype))
        store.set("bn/var", rng.uniform(0.5, 2.0, 8).astype(dtype))
        mean, var = store.get("bn/mean")[:c].astype(np.float64), store.get("bn/var")[:c].astype(np.float64)
        scale = store.get("bn/scale")[:c].astype(np.float64) if affine else None
        shift = store.get("bn/shift")[:c].astype(np.float64) if affine else None
        x0 = x.copy()
        tape = Tape(store)
        leaf = tape.input(x)
        partner = tape.input(np.zeros(x.shape))
        out = nn.batchnorm(leaf, state, train=train, bn_mode=bn_mode)
        tape.backward(nn.reduce_sum(nn.mul_mask(nn.sum_tensors([out, partner]), d_out)))
        want = _old_batchnorm(x, scale, shift, mean, var, d_out, bn_mode == "batch", eps)
        what = f"{mode} {np.dtype(dtype).name} C={c} affine={affine}"
        _bits_equal(out.data, want[0].astype(dtype), what)
        if affine:
            _bits_equal(store.grad("bn/scale")[:c], want[1].astype(dtype), what)
            _bits_equal(store.grad("bn/shift")[:c], want[2].astype(dtype), what)
        _bits_equal(tape.input_grad(leaf), want[3].astype(dtype), what)
        _bits_equal(tape.input_grad(partner), d_out, what)
        _bits_equal(x, x0, what)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batchnorm_and_linear_on_a_tape_with_spans_equal_one_tape_per_span(dtype):
    """Each span's outputs are bit for bit those of an eval tape over that
    span alone, for 2-d and 4-d BN inputs, affine or not, in both modes. A
    one-row float64 matmul rounds otherwise than the same row in a taller
    one, which the trailing singleton span (tracked BN only) shows."""
    span_sets = (((0, 32), (32, 45)), ((0, 4), (4, 9)), ((0, 2), (2, 4), (4, 7)), ((0, 4), (4, 5)))
    for spans, ndim, affine, bn_mode in itertools.product(span_sets, (2, 4), (True, False), ("batch", "tracked")):
        if bn_mode == "batch" and min(stop - start for start, stop in spans) < 2:
            continue
        n = spans[-1][1]
        rng = named_rng(n, "bn-spans", ndim, affine, bn_mode)
        x = (rng.standard_normal((n, 6) if ndim == 2 else (n, 6, 5, 5)) * 3.0 + 1.5).astype(dtype)
        z = rng.standard_normal((n, 6)).astype(dtype)
        store = ParamStore(seed=0, dtype=dtype)
        state = BNState("bn", channels=8, affine=affine, track=True)
        state.create_params(store)
        for key in store.keys():
            store.set(key, rng.uniform(0.5, 2.0, 8).astype(dtype))
        store.create("w", (6, 3), init="normal", fan_in=6)
        store.create("b", (3,), init="zeros")
        store.set("b", rng.standard_normal(3).astype(dtype))

        def forward(tape, rows):
            out = nn.batchnorm(tape.constant(x[rows]), state, train=False, bn_mode=bn_mode)
            return out.data, nn.linear(tape.constant(z[rows]), tape.param("w"), tape.param("b")).data

        joined = forward(Tape(store, record=False, spans=spans), slice(None))
        alone = [forward(Tape(store, record=False), slice(*span)) for span in spans]
        what = f"{np.dtype(dtype).name} spans={spans} ndim={ndim} affine={affine} {bn_mode}"
        for k in range(2):
            _bits_equal(joined[k], np.concatenate([a[k] for a in alone]), what)


def test_spans_are_for_eval_tapes_and_batch_statistics_need_two_per_span():
    with pytest.raises(ValueError, match="spans"):
        Tape(ParamStore(), spans=((0, 2), (2, 4)))
    store = f64_store()
    state = BNState("bn", channels=2, affine=False, track=False)
    state.create_params(store)
    tape = Tape(store, record=False, spans=((0, 3), (3, 4)))
    with pytest.raises(ValueError, match="batch size"):
        nn.batchnorm(tape.constant(np.ones((4, 2, 2, 2))), state, train=False)


# ------------------------------------------------------------------- BN

def test_bn_train_updates_running_stats_by_momentum():
    store = f64_store()
    state = BNState("bn", channels=2, affine=False, track=True, momentum=0.9)
    state.create_params(store)
    x = named_rng(5, "x").standard_normal((8, 2, 3, 3))
    batch_mean = x.mean(axis=(0, 2, 3))
    batch_var = x.var(axis=(0, 2, 3))

    tape = Tape(store)
    nn.batchnorm(tape.input(x), state, train=True)
    np.testing.assert_allclose(store.get("bn/mean"), 0.1 * batch_mean, rtol=1e-12)
    np.testing.assert_allclose(store.get("bn/var"), 0.9 * 1.0 + 0.1 * batch_var, rtol=1e-12)

    tape = Tape(store)
    nn.batchnorm(tape.input(x), state, train=True)
    np.testing.assert_allclose(store.get("bn/mean"), (0.9 * 0.1 + 0.1) * batch_mean, rtol=1e-12)


def test_bn_eval_batch_mode_does_not_touch_buffers():
    store = f64_store()
    state = BNState("bn", channels=2, affine=False, track=True)
    state.create_params(store)
    x = named_rng(6, "x").standard_normal((8, 2, 3, 3))
    tape = Tape(store)
    out = nn.batchnorm(tape.input(x), state, train=False, bn_mode="batch")
    np.testing.assert_array_equal(store.get("bn/mean"), np.zeros(2))
    np.testing.assert_array_equal(store.get("bn/var"), np.ones(2))
    assert abs(float(out.data.mean())) < 1e-9


def test_bn_eval_tracked_uses_buffers():
    store = f64_store()
    state = BNState("bn", channels=2, affine=False, track=True)
    state.create_params(store)
    store.set("bn/mean", np.array([1.0, -1.0]))
    store.set("bn/var", np.array([4.0, 0.25]))
    x = np.ones((3, 2, 2, 2))
    tape = Tape(store)
    out = nn.batchnorm(tape.input(x), state, train=False, bn_mode="tracked")
    expected_c0 = (1.0 - 1.0) / np.sqrt(4.0 + state.eps)
    expected_c1 = (1.0 + 1.0) / np.sqrt(0.25 + state.eps)
    np.testing.assert_allclose(out.data[:, 0], expected_c0, rtol=1e-6)
    np.testing.assert_allclose(out.data[:, 1], expected_c1, rtol=1e-6)


def test_bn_tracked_requires_tracking_state():
    store = f64_store()
    state = BNState("bn", channels=2, affine=False, track=False)
    state.create_params(store)
    tape = Tape(store)
    with pytest.raises(ValueError, match="track"):
        nn.batchnorm(tape.input(np.ones((3, 2, 2, 2))), state, train=False, bn_mode="tracked")


def test_bn_rejects_singleton_batch():
    store = f64_store()
    state = BNState("bn", channels=2, affine=False, track=False)
    state.create_params(store)
    tape = Tape(store)
    with pytest.raises(ValueError, match="batch size"):
        nn.batchnorm(tape.input(np.ones((1, 2, 2, 2))), state, train=True)


def test_bn_sliced_updates_leading_entries_only():
    store = f64_store()
    state = BNState("bn", channels=4, affine=False, track=True)
    state.create_params(store)
    x = named_rng(7, "x").standard_normal((6, 2, 3, 3))
    tape = Tape(store)
    nn.batchnorm(tape.input(x), state, train=True)
    assert not np.allclose(store.get("bn/mean")[:2], 0.0)
    np.testing.assert_array_equal(store.get("bn/mean")[2:], np.zeros(2))
    np.testing.assert_array_equal(store.get("bn/var")[2:], np.ones(2))


# ------------------------------------------------------------ param store

def test_store_normal_init_is_creation_order_independent():
    a = ParamStore(seed=11)
    a.create("p/one", (3, 3), init="normal", fan_in=3)
    a.create("p/two", (2,), init="normal", fan_in=2)
    b = ParamStore(seed=11)
    b.create("p/two", (2,), init="normal", fan_in=2)
    b.create("p/one", (3, 3), init="normal", fan_in=3)
    np.testing.assert_array_equal(a.get("p/one"), b.get("p/one"))
    np.testing.assert_array_equal(a.get("p/two"), b.get("p/two"))


def test_store_create_is_idempotent_but_shape_checked():
    store = ParamStore()
    first = store.create("w", (2, 2), init="normal", fan_in=2)
    again = store.create("w", (2, 2), init="normal", fan_in=2)
    assert first is again
    with pytest.raises(ValueError):
        store.create("w", (3, 3), init="zeros")


def test_store_identity_init():
    store = ParamStore()
    store.create("proj", (4, 4), init="identity")
    np.testing.assert_array_equal(store.get("proj"), np.eye(4, dtype=np.float32))
    with pytest.raises(ValueError):
        store.create("bad", (4, 3), init="identity")


def test_store_buffers_are_not_trainable():
    store = ParamStore()
    store.create("bn/mean", (4,), init="zeros")
    store.create("bn/var", (4,), init="ones")
    store.create("w", (4,), init="zeros")
    assert store.trainable_keys() == ["w"]
    with pytest.raises(ValueError):
        store.accumulate_grad("bn/mean", np.ones(4))


def test_store_grad_accumulation_adds():
    store = ParamStore()
    store.create("w", (2,), init="zeros")
    store.accumulate_grad("w", np.array([1.0, 2.0]))
    store.accumulate_grad("w", np.array([0.5, 0.5]))
    np.testing.assert_allclose(store.grad("w"), [1.5, 2.5])
    store.scale_grads(0.5)
    np.testing.assert_allclose(store.grad("w"), [0.75, 1.25])
    store.zero_grads()
    assert store.grad("w") is None


def test_named_rng_streams_are_stable_and_distinct():
    a = named_rng(3, "alpha", 1).standard_normal(5)
    b = named_rng(3, "alpha", 1).standard_normal(5)
    c = named_rng(3, "alpha", 2).standard_normal(5)
    d = named_rng(4, "alpha", 1).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert stream_key("x", 1) == stream_key("x", 1)
    assert stream_key("x", 1) != stream_key("x", "1")


# ------------------------------------------------------------ checkpoints

def test_checkpoint_round_trip_bitwise(tmp_path):
    store = ParamStore(seed=5)
    store.create("stem/conv/weight", (4, 1, 3, 3), init="normal", fan_in=9)
    store.create("bn/mean", (4,), init="zeros")
    store.get("bn/mean")[:] = [1, 2, 3, 4]
    store.create("cls/bias", (3,), init="normal", fan_in=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(store, path, header='{"x":1}')
    loaded, header = load_checkpoint(path)
    assert header == '{"x":1}'
    assert loaded.keys() == store.keys()
    for key in store.keys():
        np.testing.assert_array_equal(loaded.get(key), store.get(key))
        assert loaded.get(key).dtype == np.float32


def test_checkpoint_files_are_byte_identical(tmp_path):
    def build():
        s = ParamStore(seed=9)
        s.create("a", (3, 2), init="normal", fan_in=2)
        s.create("b", (5,), init="ones")
        return s

    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(build(), p1, header='{"x":1}')
    save_checkpoint(build(), p2, header='{"x":1}')
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_header_round_trip(tmp_path):
    store = ParamStore()
    store.create("w", (2,), init="ones")
    path = tmp_path / "h.ckpt"
    save_checkpoint(store, path, header='{"spec": "demo"}')
    _, header = load_checkpoint(path)
    assert header == '{"spec": "demo"}'


def test_checkpoint_corruption_errors(tmp_path):
    store = ParamStore()
    store.create("w", (4,), init="ones")
    path = tmp_path / "ok.ckpt"
    save_checkpoint(store, path, header='{"x":1}')
    raw = path.read_bytes()

    bad_magic = tmp_path / "magic.ckpt"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError):
        load_checkpoint(bad_magic)

    bare_store = tmp_path / "bare.ckpt"
    bare_store.write_bytes(raw[raw.index(b"NNPS"):])
    with pytest.raises(ValueError, match="bad checkpoint magic b'NNPS'"):
        load_checkpoint(bare_store)

    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(raw[:-3])
    with pytest.raises(ValueError):
        load_checkpoint(truncated)

    trailing = tmp_path / "trail.ckpt"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError):
        load_checkpoint(trailing)
