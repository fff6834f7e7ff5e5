"""Central-difference verification of tape gradients.

The builder must be a pure, deterministic function of the store values
(fixed batch, no dropout, batch-statistics BN or frozen buffers); running
buffers are snapshotted and restored around every evaluation so tracked BN
states cannot drift between probes. Checks run on a float64 copy of the
store, since float32 forward noise would swamp the difference quotient.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .engine import Value
from .params import ParamStore, named_rng


def finite_diff_check(
    builder: Callable[[ParamStore], Value],
    store: ParamStore,
    epsilon: float = 1e-4,
    max_elements_per_param: int | None = None,
    seed: int = 0,
) -> dict:
    """Compare tape gradients against central differences.

    Returns {"per_param": {key: max relative error}, "max_rel_err": float,
    "epsilon": epsilon, "elements_checked": int}. Relative error uses
    |fd - analytic| / max(|fd|, |analytic|, 1e-6); a non-finite error
    (a NaN or infinite loss or gradient) counts as infinite.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if max_elements_per_param is not None and max_elements_per_param < 1:
        raise ValueError(f"max_elements_per_param must be at least 1, got {max_elements_per_param}")
    work = store.astype(np.float64)
    buffers = {k: work.get(k).copy() for k in work.keys() if work.is_buffer(k)}

    def restore_buffers() -> None:
        for k, v in buffers.items():
            work.get(k)[...] = v

    loss = builder(work)
    if not isinstance(loss, Value) or loss.data.size != 1:
        raise ValueError("builder must return a scalar loss Value")
    loss.tape.backward(loss)
    restore_buffers()
    analytic = {k: work.grad(k) for k in work.grad_keys()}

    def loss_at() -> float:
        value = float(builder(work).data)
        restore_buffers()
        return value

    per_param: dict[str, float] = {}
    checked = 0
    for key in work.trainable_keys():
        grad = analytic.get(key)
        if grad is None:
            grad = np.zeros_like(work.get(key))
        flat = work.get(key).reshape(-1)
        grad_flat = np.asarray(grad, dtype=np.float64).reshape(-1)
        if max_elements_per_param is not None and flat.size > max_elements_per_param:
            rng = named_rng(seed, "fdcheck", key)
            indices = rng.choice(flat.size, size=max_elements_per_param, replace=False)
        else:
            indices = np.arange(flat.size)
        worst = 0.0
        for i in indices:
            original = flat[i]
            flat[i] = original + epsilon
            plus = loss_at()
            flat[i] = original - epsilon
            minus = loss_at()
            flat[i] = original
            fd = (plus - minus) / (2.0 * epsilon)
            a = grad_flat[i]
            err = abs(fd - a) / max(abs(fd), abs(a), 1e-6)
            worst = max(worst, err if math.isfinite(err) else math.inf)
            checked += 1
        per_param[key] = worst
    return {
        "per_param": per_param,
        "max_rel_err": max(per_param.values()) if per_param else 0.0,
        "epsilon": epsilon,
        "elements_checked": checked,
    }
