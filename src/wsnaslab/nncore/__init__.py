"""Minimal reverse-mode autodiff on numpy arrays.

Values are float32 by default (float64 available for gradient checking);
every reduction accumulates in float64 before casting back. The engine is
deliberately tiny: a tape that is one list of nodes (output index, parent
indices, backward closure over arrays only), a string-keyed parameter
store with named deterministic init streams, and the dozen primitives the
micro search spaces need. Convolutions are an im2col (one np.take of a
cached tap index over the zero-padded grid) plus one float64 matmul, and
the conv3x3 backward pass is the same convolution with the kernel
flipped; a conv3x3 keeps its input, not the im2col, and rebuilds the
im2col in its backward. relu is np.fmax(x, 0) + 0, the same bits as
np.where(x > 0, x, 0), and its gradient is d_out under a bit mask, the
same bits as np.where(x > 0, d_out, 0). The tape holds no Value, so tapes
and their activations are freed by reference counting, not by the cyclic
collector, and backward() frees each node as it passes it. Only inputs and
parameters carry gradient: constants (such as the training batch) and
everything computed from constants alone get none, and no backward work
is done for them. An evaluation tape (Tape(..., record=False)) records no
nodes at all and cannot be differentiated.
"""

from .engine import (
    BNState,
    Tape,
    Value,
    avgpool3x3,
    batchnorm,
    channel_pad,
    concat_channels,
    conv1x1,
    conv3x3,
    cross_entropy,
    dropout_mask,
    global_pool,
    linear,
    matmul2d,
    mix_axis,
    mul_mask,
    reduce_sum,
    reshape,
    relu,
    sum_tensors,
    take_axis,
    zero_op,
)
from .gradcheck import finite_diff_check
from .params import ParamStore, load_checkpoint, named_rng, save_checkpoint, stream_key

__all__ = [
    "BNState",
    "ParamStore",
    "Tape",
    "Value",
    "avgpool3x3",
    "batchnorm",
    "channel_pad",
    "concat_channels",
    "conv1x1",
    "conv3x3",
    "cross_entropy",
    "dropout_mask",
    "finite_diff_check",
    "global_pool",
    "linear",
    "load_checkpoint",
    "matmul2d",
    "mix_axis",
    "mul_mask",
    "named_rng",
    "reduce_sum",
    "relu",
    "reshape",
    "save_checkpoint",
    "stream_key",
    "sum_tensors",
    "take_axis",
    "zero_op",
]
