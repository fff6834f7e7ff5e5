"""Tape-based reverse-mode autodiff and the micro-net primitives.

The tape is one list of nodes (output index, parent indices, backward).
Each primitive computes its output and pushes one node; backward(d_out)
returns one gradient per parent (or None) and closes over arrays and
shapes only. A Value points at its tape, but the tape holds no Value, so
a forward leaves no reference cycle: the tape and its activations are
freed by reference counting once the last Value and the tape go.
backward() pops each node before it runs the node's backward, so a
closure, and the activations only it holds, are freed as soon as its
gradient has been passed on. It pops the node output's gradient with it,
so once the walk ends the tape holds gradients for leaves only (Tape.input
values and parameters): input_grad() of an intermediate value is None.
The tape is consumed before that walk, so a backward that raises cannot
be retried on half-summed gradients. A tape built with record=False
(forward_path in eval mode) pushes no nodes, so it keeps no activation or
backward closure alive and cannot be differentiated: its backward()
raises.

Only inputs and parameters need gradients; a value needs one only if some
parent does. Constants (the training batch in forward_path, zero_op
outputs) carry none: a primitive whose parents need none records no node,
the backward closures compute nothing for such parents, and backward()
stores nothing for them.

Conventions:
  * activations are (N, C, H, W) or (N, C) arrays at the tape dtype,
  * every reduction (matmul contractions, means, sums) runs in float64 and
    casts back to the tape dtype,
  * convolutions are stride 1, same padding, no bias (batch-norm follows);
    each is one float64 matmul over an im2col (a plain reshape for 1x1),
    and the conv3x3 input gradient is the same im2col + matmul applied to
    d_out with the kernel flipped in space and its channel axes swapped;
    the 3x3 im2col is one np.take of a cached (9, H*W) tap index over the
    flattened zero-padded grid. A conv3x3 node keeps its input at the
    tape dtype, not the float64 im2col: its backward rebuilds the im2col
    for d_w and then writes d_out's over it when the shapes agree,
  * batchnorm centres and scales a private float64 copy of its input in
    place and builds d_x in place, in the same operation order as the
    out-of-place formulas, so the results are bit for bit theirs,
  * relu is np.fmax(x, 0) + 0, bit for bit np.where(x > 0, x, 0): fmax
    maps NaN to 0 and adding +0 turns -0.0 into +0.0; its gradient ANDs
    d_out's bits with a mask of all-ones words where x > 0 and zero words
    elsewhere, bit for bit np.where(x > 0, d_out, 0) without branches,
  * avgpool3x3 divides by 9 including zero padding, so it stays a fixed
    linear stencil (a 3-row then 3-column shifted sum) and is its own
    transpose in the backward pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .params import ParamStore

class Value:
    """A node in the computation graph: array data, a tape position, and
    whether a gradient must flow back to it (needs_grad)."""

    __slots__ = ("data", "tape", "idx", "needs_grad")

    def __init__(self, data: np.ndarray, tape: "Tape", idx: int, needs_grad: bool):
        self.data = data
        self.tape = tape
        self.idx = idx
        self.needs_grad = needs_grad


class Tape:
    """Records forward nodes and walks them once in reverse.

    A tape reads its parameters, and its dtype, from a ParamStore. It is
    single-use: after backward() it is consumed and any further forward or
    backward call raises. A tape built with record=False keeps no nodes,
    so each activation is freed as soon as the next primitive has used
    it; its backward() raises.
    """

    def __init__(self, store: ParamStore, record: bool = True):
        self.store = store
        self.dtype = store.dtype
        self.record = record
        self._nodes: list[tuple[int, tuple[int | None, ...], Callable]] = []
        self._grads: dict[int, np.ndarray] = {}
        self._params: dict[str, int] = {}
        self._next = 0
        self.consumed = False

    def _check_live(self) -> None:
        if self.consumed:
            raise RuntimeError("tape reused after consumption")

    def _new_value(self, data: np.ndarray, needs_grad: bool) -> Value:
        self._check_live()
        v = Value(np.asarray(data, dtype=self.dtype), self, self._next, needs_grad)
        self._next += 1
        return v

    def _push(self, data: np.ndarray, parents: Sequence[Value], backward: Callable) -> Value:
        """Record one primitive; backward(d_out) -> one gradient per parent (or None).

        The output needs a gradient only if some parent does; a node whose
        parents need none is not recorded, and a parent that needs none is
        recorded as None, so backward() stores no gradient for it.
        """
        out = self._new_value(data, any(p.needs_grad for p in parents))
        if self.record and out.needs_grad:
            self._nodes.append((out.idx, tuple(p.idx if p.needs_grad else None for p in parents), backward))
        return out

    def constant(self, data: np.ndarray) -> Value:
        """A leaf that carries no gradient: backward() stores none for it,
        and primitives skip the gradient work for it (input_grad() is None)."""
        return self._new_value(data, False)

    def input(self, data: np.ndarray) -> Value:
        """A leaf that needs a gradient, retrievable via input_grad()."""
        return self._new_value(data, True)

    def param(self, key: str) -> Value:
        """Leaf tied to a store parameter; backward accumulates store grads."""
        self._check_live()
        if key in self._params:
            return Value(np.asarray(self.store.get(key), dtype=self.dtype), self, self._params[key], True)
        v = self._new_value(self.store.get(key), True)
        self._params[key] = v.idx
        return v

    def backward(self, loss: Value) -> None:
        """Walk the nodes in reverse, popping each, and its output's
        gradient, before its backward runs, so its closure, the activations
        only it holds and that gradient are freed once it has been passed
        on; leaf gradients stay. The tape is consumed before the walk:
        a backward that raises leaves no half-filled gradients to retry."""
        self._check_live()
        if not self.record:
            raise RuntimeError("backward on a tape that records no nodes")
        if loss.tape is not self:
            raise ValueError("loss belongs to a different tape")
        self.consumed = True
        grads = self._grads
        grads[loss.idx] = np.ones_like(loss.data)
        nodes = self._nodes
        while nodes:
            idx, parents, node_backward = nodes.pop()
            d_out = grads.pop(idx, None)
            if d_out is None:
                continue
            for parent, contrib in zip(parents, node_backward(d_out)):
                if parent is None or contrib is None:
                    continue
                prev = grads.get(parent)
                if prev is None:
                    grads[parent] = np.asarray(contrib, dtype=self.dtype)
                else:
                    grads[parent] = (prev.astype(np.float64) + contrib).astype(self.dtype)
        for key, idx in reversed(self._params.items()):
            g = grads.get(idx)
            if g is not None:
                self.store.accumulate_grad(key, g)

    def input_grad(self, value: Value) -> np.ndarray | None:
        """The gradient of a Tape.input leaf after backward(); None for
        constants and for intermediate values, whose gradients are freed."""
        return self._grads.get(value.idx)

    def param_keys(self) -> list[str]:
        """Parameters this tape's forward actually touched."""
        return list(self._params)


def _tape_of(*values: Value) -> Tape:
    tape = values[0].tape
    for v in values[1:]:
        if v.tape is not tape:
            raise ValueError("values belong to different tapes")
    tape._check_live()
    return tape


def _f64(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.float64)


# ---------------------------------------------------------------- conv ops

def _pad1(x: np.ndarray) -> np.ndarray:
    """(N, C, H, W) -> float64 (N, C, H+2, W+2) with a one-pixel zero border."""
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2, w + 2), dtype=np.float64)
    xp[:, :, 1 : h + 1, 1 : w + 1] = x
    return xp


@functools.cache
def _taps3(h: int, w: int) -> np.ndarray:
    """Read-only (9, H*W) index into a flattened (H+2, W+2) padded grid:
    entry [3*di + dj, i*W + j] is the flat position of (i + di, j + dj)."""
    d = np.arange(3)
    rows = np.arange(h)[None, :, None] + d[:, None, None]      # (di, i, 1)
    cols = np.arange(w)[None, None, :] + d[:, None, None]      # (dj, 1, j)
    taps = rows[:, None] * (w + 2) + cols[None, :]             # (di, dj, i, j)
    taps = taps.reshape(9, h * w)
    taps.flags.writeable = False
    return taps


def _im2col3(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(N, C, H, W) -> float64 (N, C*9, H*W) of zero-padded 3x3 neighborhoods.

    Row c*9 + 3*di + dj holds channel c shifted by (di - 1, dj - 1), the
    layout of a (O, C, 3, 3) kernel reshaped to (O, C*9). One np.take of
    the cached tap index over the flattened padded grid, written into
    `out` (a C-contiguous float64 array of the result's shape) when given.
    """
    n, c, h, w = x.shape
    xp = _pad1(x).reshape(n, c, (h + 2) * (w + 2))
    if out is None:
        return np.take(xp, _taps3(h, w), axis=2).reshape(n, c * 9, h * w)
    # the indices are in range, so mode="clip" only spares the buffer that
    # mode="raise" takes the result through before copying it into out
    np.take(xp, _taps3(h, w), axis=2, out=out.reshape(n, c, 9, h * w), mode="clip")
    return out


def conv3x3(x: Value, weight: Value) -> Value:
    """Stride-1 same-padding 3x3 convolution, no bias.

    Forward is one (O, C*9) @ (N, C*9, H*W) matmul over the im2col. The
    adjoint of a same-padding stride-1 convolution is the same convolution
    with the kernel flipped in space and its channel axes swapped, so d_x
    reuses the im2col + matmul on d_out. The node keeps the input at the
    tape dtype, not its float64 im2col: the backward rebuilds the im2col
    for d_w, and once d_w is made, writes d_out's im2col over it when
    O == C.
    """
    tape = _tape_of(x, weight)
    if x.data.ndim != 4 or weight.data.ndim != 4 or weight.data.shape[2:] != (3, 3):
        raise ValueError(f"conv3x3 shapes: x {x.data.shape}, weight {weight.data.shape}")
    if weight.data.shape[1] != x.data.shape[1]:
        raise ValueError(f"conv3x3 channel mismatch: x has {x.data.shape[1]}, weight expects {weight.data.shape[1]}")
    x_data, w_data = x.data, weight.data
    n, c, h, w = x_data.shape
    o = w_data.shape[0]
    need_w, need_x = weight.needs_grad, x.needs_grad

    def backward(d_out):
        d_w = d_x = cols = None
        if need_w:
            cols = _im2col3(x_data)
            d_flat = _f64(d_out).reshape(n, o, h * w)
            d_w = (d_flat @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(w_data.shape)
        if need_x:
            w_adj = _f64(w_data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)).reshape(c, o * 9)
            d_x = (w_adj @ _im2col3(d_out, out=cols if o == c else None)).reshape(n, c, h, w)
        return d_w, d_x

    out = (_f64(w_data).reshape(o, c * 9) @ _im2col3(x_data)).reshape(n, o, h, w)
    return tape._push(out, (weight, x), backward)


def conv1x1(x: Value, weight: Value) -> Value:
    """Pointwise convolution, no bias. weight is (C_out, C_in)."""
    tape = _tape_of(x, weight)
    if x.data.ndim != 4 or weight.data.ndim != 2:
        raise ValueError(f"conv1x1 shapes: x {x.data.shape}, weight {weight.data.shape}")
    if weight.data.shape[1] != x.data.shape[1]:
        raise ValueError(f"conv1x1 channel mismatch: x has {x.data.shape[1]}, weight expects {weight.data.shape[1]}")
    n, c, h, w = x.data.shape
    o = weight.data.shape[0]
    x_flat = _f64(x.data).reshape(n, c, h * w)
    w64 = _f64(weight.data)
    need_w, need_x = weight.needs_grad, x.needs_grad

    def backward(d_out):
        d_flat = _f64(d_out).reshape(n, o, h * w)
        d_w = (d_flat @ x_flat.transpose(0, 2, 1)).sum(axis=0) if need_w else None
        d_x = (w64.T @ d_flat).reshape(n, c, h, w) if need_x else None
        return d_w, d_x

    return tape._push((w64 @ x_flat).reshape(n, o, h, w), (weight, x), backward)


def avgpool3x3(x: Value) -> Value:
    """3x3 mean pooling, stride 1, zero padding counted in the mean."""
    tape = _tape_of(x)
    if x.data.ndim != 4:
        raise ValueError(f"avgpool3x3 needs a 4-d input, got {x.data.shape}")
    dtype = tape.dtype
    h, w = x.data.shape[2:]

    def stencil(a: np.ndarray) -> np.ndarray:
        p = _pad1(a)
        rows = p[:, :, 0:h] + p[:, :, 1 : h + 1] + p[:, :, 2 : h + 2]
        return ((rows[..., 0:w] + rows[..., 1 : w + 1] + rows[..., 2 : w + 2]) / 9.0).astype(dtype)

    def backward(d_out):
        return (stencil(d_out),)

    return tape._push(stencil(x.data), (x,), backward)


def zero_op(x: Value) -> Value:
    """Constant zeros with the input's shape; kills gradient flow."""
    tape = _tape_of(x)
    return tape.constant(np.zeros_like(x.data))


def linear(x: Value, weight: Value, bias: Value) -> Value:
    """x (N, C) @ weight (C, K) + bias (K)."""
    tape = _tape_of(x, weight, bias)
    if x.data.ndim != 2 or weight.data.ndim != 2 or x.data.shape[1] != weight.data.shape[0]:
        raise ValueError(f"linear shapes: x {x.data.shape}, weight {weight.data.shape}")
    x_data, w_data = x.data, weight.data
    need_w, need_b, need_x = weight.needs_grad, bias.needs_grad, x.needs_grad

    def backward(d_out):
        d64 = _f64(d_out)
        return (
            _f64(x_data).T @ d64 if need_w else None,
            d64.sum(axis=0) if need_b else None,
            d64 @ _f64(w_data).T if need_x else None,
        )

    return tape._push(_f64(x_data) @ _f64(w_data) + _f64(bias.data), (weight, bias, x), backward)


def relu(x: Value) -> Value:
    """max(x, 0) with NaN -> 0 and -0.0 -> +0.0, bit for bit the same as
    np.where(x > 0, x, 0): fmax drops NaN and `+ 0` turns -0.0 into +0.0."""
    tape = _tape_of(x)
    x_data = x.data

    def backward(d_out):
        # np.where(x > 0, d_out, 0) as a branch-free mask of all-ones or
        # all-zeros words: d_out's bits pass unchanged or become +0.0
        bits = np.dtype(f"i{d_out.dtype.itemsize}")
        return (np.bitwise_and(d_out.view(bits), -(x_data > 0).astype(bits)).view(d_out.dtype),)

    return tape._push(np.fmax(x_data, 0) + 0, (x,), backward)


def global_pool(x: Value) -> Value:
    """Spatial mean: (N, C, H, W) -> (N, C)."""
    tape = _tape_of(x)
    if x.data.ndim != 4:
        raise ValueError(f"global_pool needs a 4-d input, got {x.data.shape}")
    n, c, h, w = x.data.shape

    def backward(d_out):
        return (np.broadcast_to(_f64(d_out)[:, :, None, None] / (h * w), (n, c, h, w)),)

    return tape._push(_f64(x.data).mean(axis=(2, 3)), (x,), backward)


def sum_tensors(xs: list[Value]) -> Value:
    """Elementwise sum of equal-shape tensors."""
    if not xs:
        raise ValueError("sum of no tensors")
    tape = _tape_of(*xs)
    shape = xs[0].data.shape
    for v in xs[1:]:
        if v.data.shape != shape:
            raise ValueError(f"sum shape mismatch: {shape} vs {v.data.shape}")
    acc = np.zeros(shape, dtype=np.float64)
    for v in xs:
        acc += _f64(v.data)
    count = len(xs)

    def backward(d_out):
        return (d_out,) * count

    return tape._push(acc, xs, backward)


def concat_channels(xs: list[Value]) -> Value:
    """Concatenate along the channel axis (axis 1)."""
    if not xs:
        raise ValueError("concat of no tensors")
    tape = _tape_of(*xs)
    widths = [v.data.shape[1] for v in xs]

    def backward(d_out):
        pieces = []
        start = 0
        for width in widths:
            pieces.append(d_out[:, start : start + width])
            start += width
        return pieces

    return tape._push(np.concatenate([v.data for v in xs], axis=1), xs, backward)


def channel_pad(x: Value, target: int) -> Value:
    """Zero-pad the channel axis (axis 1) up to `target` channels."""
    tape = _tape_of(x)
    current = x.data.shape[1]
    if current > target:
        raise ValueError(f"channel_pad cannot shrink {current} -> {target}")
    if current == target:
        return x
    out = np.zeros((x.data.shape[0], target) + x.data.shape[2:], dtype=x.data.dtype)
    out[:, :current] = x.data

    def backward(d_out):
        return (d_out[:, :current],)

    return tape._push(out, (x,), backward)


def take_axis(x: Value, indices: np.ndarray, axis: int) -> Value:
    """Gather along an axis; backward scatter-adds in float64, or assigns
    into zeros of d_out's dtype when the indices are distinct."""
    tape = _tape_of(x)
    idx = np.asarray(indices, dtype=np.intp)
    shape = x.data.shape
    sl = [slice(None)] * x.data.ndim
    sl[axis] = idx
    sl = tuple(sl)

    def backward(d_out):
        # wrap negative indices first, so -1 and n-1 count as one index
        if np.unique(np.arange(shape[axis])[idx]).size == idx.size:
            d_x = np.zeros(shape, dtype=d_out.dtype)
            d_x[sl] = d_out
        else:
            d_x = np.zeros(shape, dtype=np.float64)
            np.add.at(d_x, sl, _f64(d_out))
        return (d_x,)

    return tape._push(np.take(x.data, idx, axis=axis), (x,), backward)


def mix_axis(x: Value, mat: np.ndarray, axis: int) -> Value:
    """Linear map along an axis with a constant matrix (rows = outputs)."""
    tape = _tape_of(x)
    m64 = _f64(mat)
    shape = x.data.shape
    if m64.shape[1] != shape[axis]:
        raise ValueError(f"mix_axis: matrix {m64.shape} does not match axis size {shape[axis]}")
    # (pre, C, post) view: one stacked matmul maps the middle axis
    pre, post = math.prod(shape[:axis]), math.prod(shape[axis + 1 :])
    out_shape = shape[:axis] + (m64.shape[0],) + shape[axis + 1 :]

    def backward(d_out):
        return ((m64.T @ _f64(d_out).reshape(pre, m64.shape[0], post)).reshape(shape),)

    out_data = (m64 @ _f64(x.data).reshape(pre, shape[axis], post)).reshape(out_shape)
    return tape._push(out_data, (x,), backward)


def mul_mask(x: Value, mask: np.ndarray) -> Value:
    """Multiply by a constant mask (dropout / path gating)."""
    tape = _tape_of(x)
    m = np.asarray(mask, dtype=tape.dtype)

    def backward(d_out):
        return (d_out * m,)

    return tape._push(x.data * m, (x,), backward)


def reshape(x: Value, shape: tuple[int, ...]) -> Value:
    tape = _tape_of(x)
    x_shape = x.data.shape

    def backward(d_out):
        return (d_out.reshape(x_shape),)

    return tape._push(x.data.reshape(shape), (x,), backward)


def matmul2d(a: Value, b: Value) -> Value:
    """Plain matrix product of two 2-d Values."""
    tape = _tape_of(a, b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul2d shapes: {a.data.shape} @ {b.data.shape}")
    a_data, b_data = a.data, b.data
    need_a, need_b = a.needs_grad, b.needs_grad

    def backward(d_out):
        d64 = _f64(d_out)
        return d64 @ _f64(b_data).T if need_a else None, _f64(a_data).T @ d64 if need_b else None

    return tape._push(_f64(a_data) @ _f64(b_data), (a, b), backward)


def reduce_sum(x: Value) -> Value:
    """Sum of all elements (float64 accumulation), as a scalar node."""
    tape = _tape_of(x)
    shape = x.data.shape

    def backward(d_out):
        return (np.broadcast_to(_f64(d_out), shape),)

    return tape._push(np.asarray(_f64(x.data).sum()), (x,), backward)


def dropout_mask(rng: np.random.Generator, shape: tuple[int, ...], rate: float) -> np.ndarray:
    """Inverted dropout mask: 0 with probability rate, else 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    if rate == 0.0:
        return np.ones(shape, dtype=np.float32)
    keep = rng.random(shape) >= rate
    return keep.astype(np.float32) / np.float32(1.0 - rate)


# ---------------------------------------------------------------- batchnorm

@dataclass
class BNState:
    """One batch-normalization site backed by store entries.

    Store keys under `key`: "/scale" and "/shift" when affine, "/mean" and
    "/var" running buffers when track. `momentum` is the running-average
    keep rate: mu_hat <- momentum * mu_hat + (1 - momentum) * batch_mean.
    """

    key: str
    channels: int
    affine: bool = True
    track: bool = True
    momentum: float = 0.9
    eps: float = 1e-5

    def create_params(self, store: ParamStore) -> None:
        if self.affine:
            store.create(self.key + "/scale", (self.channels,), init="ones")
            store.create(self.key + "/shift", (self.channels,), init="zeros")
        if self.track:
            store.create(self.key + "/mean", (self.channels,), init="zeros")
            store.create(self.key + "/var", (self.channels,), init="ones")


def batchnorm(x: Value, state: BNState, train: bool, bn_mode: str = "batch") -> Value:
    """Normalize per channel.

    train=True always uses batch statistics and updates running buffers when
    the state tracks them. train=False uses batch statistics when
    bn_mode="batch" (no buffer update) or the running buffers when
    bn_mode="tracked" (requires state.track).

    When x has fewer channels than the state (dynamic slicing), the leading
    [0:C] entries of the affine/running vectors are used and updated.
    """
    tape = _tape_of(x)
    store = tape.store
    if bn_mode not in ("batch", "tracked"):
        raise ValueError(f"unknown bn_mode {bn_mode!r}")
    if x.data.ndim not in (2, 4):
        raise ValueError(f"batchnorm needs a 2-d or 4-d input, got {x.data.shape}")
    c = x.data.shape[1]
    if c > state.channels:
        raise ValueError(f"batchnorm input has {c} channels, state allocates {state.channels}")
    axes = (0,) if x.data.ndim == 2 else (0, 2, 3)
    shape = (1, c) if x.data.ndim == 2 else (1, c, 1, 1)
    use_batch = train or bn_mode == "batch"
    # a private float64 copy of x, centred and then scaled in place into x_hat
    x_hat = x.data.astype(np.float64)
    squares = None

    if use_batch:
        if x.data.shape[0] < 2:
            raise ValueError("batch statistics need batch size >= 2")
        # numpy's own mean and var algorithm, with one centred pass
        count = x.data.size // c
        mean = x_hat.sum(axis=axes) / count
        x_hat -= mean.reshape(shape)
        squares = x_hat * x_hat
        var = squares.sum(axis=axes) / count
        if train and state.track:
            mu = store.get(state.key + "/mean")
            sig = store.get(state.key + "/var")
            g = state.momentum
            mu[:c] = (g * _f64(mu[:c]) + (1 - g) * mean).astype(mu.dtype)
            sig[:c] = (g * _f64(sig[:c]) + (1 - g) * var).astype(sig.dtype)
    else:
        if not state.track:
            raise ValueError(f"tracked evaluation requested but {state.key!r} tracks no statistics")
        mean = _f64(store.get(state.key + "/mean")[:c])
        var = _f64(store.get(state.key + "/var")[:c])
        x_hat -= mean.reshape(shape)

    inv_std = 1.0 / np.sqrt(var + state.eps)
    x_hat *= inv_std.reshape(shape)

    affine = state.affine
    if affine:
        scale_v = tape.param(state.key + "/scale")
        shift_v = tape.param(state.key + "/shift")
        if c < state.channels:
            scale_v = take_axis(scale_v, np.arange(c), 0)
            shift_v = take_axis(shift_v, np.arange(c), 0)
        scale = _f64(scale_v.data).reshape(shape)
        # the affine result goes into the squares buffer, spent once var is made
        out_data = np.multiply(x_hat, scale, out=squares)
        out_data += _f64(shift_v.data).reshape(shape)
        parents = (scale_v, shift_v, x)
    else:
        out_data = x_hat
        parents = (x,)
    need_x = x.needs_grad

    def backward(d_out):
        # d_x = inv_std * (d_hat - m1 - x_hat * m2) is built in place in
        # d_hat, which must not alias d_out; one scratch array holds
        # d64 * x_hat, d_hat * x_hat and x_hat * m2 in turn
        d64 = _f64(d_out)
        scratch = None
        grads = ()
        if affine:
            scratch = d64 * x_hat
            grads = (scratch.sum(axis=axes), d64.sum(axis=axes))
        if not need_x:
            return grads + (None,)
        if affine:
            d_hat = d64 * scale
        else:
            d_hat = np.array(d64) if d64 is d_out else d64
        if use_batch:
            m1 = d_hat.mean(axis=axes).reshape(shape)
            scratch = np.multiply(d_hat, x_hat, out=scratch)
            m2 = scratch.mean(axis=axes).reshape(shape)
            d_hat -= m1
            d_hat -= np.multiply(x_hat, m2, out=scratch)
        d_hat *= inv_std.reshape(shape)
        return grads + (d_hat,)

    return tape._push(out_data, parents, backward)


# ------------------------------------------------------------------- loss

def cross_entropy(logits: Value, labels: np.ndarray) -> Value:
    """Mean softmax cross-entropy over the batch. labels are int class ids."""
    tape = _tape_of(logits)
    y = np.asarray(labels)
    n = logits.data.shape[0]
    if y.shape != (n,):
        raise ValueError(f"labels shape {y.shape} does not match batch {n}")
    z = _f64(logits.data)
    z = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1, keepdims=True))
    log_p = z - log_norm
    loss = -log_p[np.arange(n), y].mean()
    softmax = np.exp(log_p)

    def backward(d_out):
        d = softmax.copy()
        d[np.arange(n), y] -= 1.0
        return (d * (_f64(d_out) / n),)

    return tape._push(np.asarray(loss), (logits,), backward)
