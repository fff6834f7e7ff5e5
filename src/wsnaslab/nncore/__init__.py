"""Minimal reverse-mode autodiff on numpy arrays.

A tape of primitive nodes (engine.py), a string-keyed parameter store with
named deterministic init streams and the checkpoint format (params.py),
and a finite-difference gradient audit (gradcheck.py): the dozen
primitives the micro search spaces need and nothing else. Values are
float32 by default, float64 for gradient checks. engine.py's docstring
states the tape, gradient and numeric conventions.
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
