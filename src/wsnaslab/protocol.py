"""Training protocols: single-path super-net training and stand-alone runs.

One training step runs a plan of architectures (`sampling.Sampler.step`)
through `fairnas_step`: a forward/backward pass per architecture, then one
update with the mean gradient. A FairNAS plan holds o architectures; a
single-path (SPOS) step, `spos_step`, is the one-architecture plan.

The optimizer is SGD with momentum and coupled weight decay (v <- m*v + g +
d*w; w <- w - lr*v), applied only to the parameters the step's forward
touched, so one single-path step modifies exactly the selected path's
subset. The learning rate follows a half-cosine over epochs and is constant
within an epoch. The last incomplete training batch of an epoch is dropped,
and a training fold smaller than one batch is refused before any step.
Evaluation is supernet.evaluate_path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset
from .files import write_csv
from .nncore import named_rng
from .record import Record
from .sampling import SAMPLER_KINDS, Sampler
from .searchspace import CellEncoding, EnumerationIndex, SearchSpaceSpec
from .supernet import (
    MacroParams,
    SuperNet,
    SuperNetConfig,
    build_standalone,
    build_supernet,
    evaluate_path,
    mean_path_loss,
    path_loss,
    path_param_count,
)


@dataclass(frozen=True)
class ProtocolConfig(Record, label="protocol"):
    """Hyper-parameters of a training protocol."""

    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 0.025
    momentum: float = 0.9
    weight_decay: float = 1e-3
    train_portion: float = 1.0
    sampler: str = "random_nas"
    bn_affine: bool = True
    bn_track: bool = False
    bn_momentum: float = 0.9
    bn_eps: float = 1e-5

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2 (batch statistics)")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if not 0.0 < self.train_portion <= 1.0:
            raise ValueError("train_portion must lie in (0, 1]")
        if self.sampler not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if not 0.0 < self.bn_momentum < 1.0:
            raise ValueError("bn_momentum must lie in (0, 1)")


def cosine_lr(lr0: float, epoch: int, total_epochs: int) -> float:
    """Half-cosine schedule: lr0 * (1 + cos(pi * t / T)) / 2."""
    if total_epochs <= 0:
        raise ValueError("total_epochs must be positive")
    if not 0 <= epoch <= total_epochs:
        raise ValueError(f"epoch {epoch} outside 0..{total_epochs}")
    return lr0 * (1.0 + math.cos(math.pi * epoch / total_epochs)) / 2.0


@dataclass
class TrainLog:
    """Per-epoch record plus step accounting for fairness checks."""

    entries: list[dict] = field(default_factory=list)
    forward_backward_passes: int = 0
    update_steps: int = 0

    def append(self, epoch: int, loss: float, lr: float) -> None:
        self.entries.append({"epoch": epoch, "loss": loss, "lr": lr})

    def save_csv(self, path: str | Path) -> None:
        write_csv(path, [["epoch", "loss", "lr"]] + [
            [e["epoch"], repr(float(e["loss"])), repr(float(e["lr"]))] for e in self.entries
        ])


class SGD:
    """Momentum SGD over a ParamStore, restricted to touched keys."""

    def __init__(self, momentum: float, weight_decay: float):
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: dict[str, np.ndarray] = {}

    def step(self, store, touched_keys, lr: float) -> None:
        for key in sorted(touched_keys):
            if store.is_buffer(key):
                continue
            w = store.get(key).astype(np.float64)
            g = store.grad(key)
            g = np.zeros_like(w) if g is None else g.astype(np.float64)
            if self.weight_decay:
                g = g + self.weight_decay * w
            if self.momentum:
                v = self._velocity.get(key)
                v = g if v is None else self.momentum * v + g
                self._velocity[key] = v
            else:
                v = g
            store.set(key, (w - lr * v).astype(store.dtype))


def _train_batches(n: int, batch_size: int, rng: np.random.Generator):
    """Seeded-permutation batches, dropping the last incomplete one."""
    order = rng.permutation(n)
    for start in range(0, n - batch_size + 1, batch_size):
        yield order[start : start + batch_size]


def spos_step(sn: SuperNet, opt: SGD, enc: CellEncoding, xb, yb, lr: float, rng) -> float:
    """One single-path update; touches only the path's parameters."""
    return fairnas_step(sn, opt, (enc,), xb, yb, lr, rng)[0]


def fairnas_step(sn: SuperNet, opt: SGD, plan, xb, yb, lr: float, rng) -> tuple[float, int]:
    """Run a step plan: one pass per architecture, one update with the mean
    gradient over the touched parameters. Returns (mean loss, passes)."""
    sn.store.zero_grads()
    touched: set[str] = set()
    total = 0.0
    for enc in plan:
        loss, tape = path_loss(sn, enc, xb, yb, train=True, bn_mode="batch", rng=rng)
        tape.backward(loss)
        touched.update(tape.param_keys())
        total += float(loss.data)
    if len(plan) > 1:
        sn.store.scale_grads(1.0 / len(plan))
    opt.step(sn.store, touched, lr)
    sn.store.zero_grads()
    return total / len(plan), len(plan)


def _train(pconfig: ProtocolConfig, x_train, y_train, batch_rng, step) -> TrainLog:
    """Epochs of seeded batches under the cosine schedule.

    step(xb, yb, lr) runs one update and returns (mean loss, passes).
    """
    if len(y_train) < pconfig.batch_size:
        raise ValueError(f"{len(y_train)} training examples cannot fill a batch of {pconfig.batch_size}")
    log = TrainLog()
    for epoch in range(pconfig.epochs):
        lr = cosine_lr(pconfig.learning_rate, epoch, pconfig.epochs)
        losses = []
        for batch in _train_batches(len(y_train), pconfig.batch_size, batch_rng):
            loss, passes = step(x_train[batch], y_train[batch], lr)
            log.forward_backward_passes += passes
            log.update_steps += 1
            losses.append(loss)
        log.append(epoch, float(np.mean(losses)), lr)
    return log


def train_supernet(
    spec: SearchSpaceSpec,
    macro: MacroParams,
    sn_config: SuperNetConfig,
    pconfig: ProtocolConfig,
    dataset: Dataset,
    seed: int,
    index: EnumerationIndex | None = None,
) -> tuple[SuperNet, TrainLog]:
    """Single-path training of a fresh super-net.

    A sub-space super-net (sn_config.fixed_k set) samples only architectures
    whose output in-degree is fixed_k.
    """
    sn = build_supernet(
        spec, macro, sn_config, seed,
        bn_affine=pconfig.bn_affine, bn_track=pconfig.bn_track,
        bn_momentum=pconfig.bn_momentum, bn_eps=pconfig.bn_eps,
    )
    sampler = Sampler(pconfig.sampler, spec, index=index, k_filter=sn_config.fixed_k)
    x_train, y_train, _, _ = dataset.split(pconfig.train_portion)
    opt = SGD(pconfig.momentum, pconfig.weight_decay)
    sampler_rng = named_rng(seed, "sampler")
    forward_rng = named_rng(seed, "forward")

    def step(xb, yb, lr):
        return fairnas_step(sn, opt, sampler.step(sampler_rng), xb, yb, lr, forward_rng)

    return sn, _train(pconfig, x_train, y_train, named_rng(seed, "batches"), step)


@dataclass
class StandaloneResult:
    arch_hash: str
    seed: int
    val_accuracy: float
    test_accuracy: float
    param_count: int
    log: TrainLog


def train_standalone(
    spec: SearchSpaceSpec,
    enc: CellEncoding,
    macro: MacroParams,
    pconfig: ProtocolConfig,
    dataset: Dataset,
    seed: int,
    arch_hash: str = "",
) -> StandaloneResult:
    """Ground-truth training of one fixed-channel architecture."""
    sn = build_standalone(
        spec, enc, macro, seed,
        bn_affine=pconfig.bn_affine, bn_track=pconfig.bn_track,
        bn_momentum=pconfig.bn_momentum, bn_eps=pconfig.bn_eps,
    )
    x_train, y_train, x_val, y_val = dataset.split(pconfig.train_portion)
    opt = SGD(pconfig.momentum, pconfig.weight_decay)
    log = _train(
        pconfig, x_train, y_train, named_rng(seed, "batches", arch_hash),
        lambda xb, yb, lr: (spos_step(sn, opt, enc, xb, yb, lr, None), 1),
    )
    bn_mode = "tracked" if pconfig.bn_track else "batch"
    val_acc = evaluate_path(sn, enc, x_val, y_val, pconfig.batch_size, bn_mode=bn_mode)
    test_acc = evaluate_path(sn, enc, dataset.x_test, dataset.y_test, pconfig.batch_size, bn_mode=bn_mode)
    return StandaloneResult(arch_hash, seed, val_acc, test_acc, path_param_count(sn, enc), log)


# ------------------------------------------------------------ landscape

def filter_normalized_direction(store, seed: int, name: str) -> dict[str, np.ndarray]:
    """Random direction with per-tensor norm matched to the parameters."""
    direction = {}
    for key in store.trainable_keys():
        w = store.get(key).astype(np.float64)
        d = named_rng(seed, "landscape", name, key).standard_normal(w.shape)
        w_norm = np.linalg.norm(w)
        d_norm = np.linalg.norm(d)
        direction[key] = d * (w_norm / d_norm) if d_norm > 0 and w_norm > 0 else np.zeros_like(w)
    return direction


def loss_landscape_grid(
    loss_fn,
    store,
    seed: int,
    radius: float = 1.0,
    half_points: int = 10,
) -> np.ndarray:
    """Loss surface on a (2k+1)^2 grid spanned by two normalized directions.

    loss_fn(store) -> float is evaluated with the parameters displaced to
    theta + (i/k) * radius * d1 + (j/k) * radius * d2 for i, j in -k..k.
    Non-finite losses appear as NaN cells.
    """
    if half_points < 1 or radius <= 0:
        raise ValueError("half_points and radius must be positive")
    d1 = filter_normalized_direction(store, seed, "d1")
    d2 = filter_normalized_direction(store, seed, "d2")
    original = {key: store.get(key).copy() for key in store.trainable_keys()}
    size = 2 * half_points + 1
    grid = np.full((size, size), np.nan)
    try:
        for i in range(-half_points, half_points + 1):
            for j in range(-half_points, half_points + 1):
                a = radius * i / half_points
                b = radius * j / half_points
                for key, w in original.items():
                    store.set(key, (w.astype(np.float64) + a * d1[key] + b * d2[key]).astype(store.dtype))
                value = float(loss_fn(store))
                grid[i + half_points, j + half_points] = value if math.isfinite(value) else np.nan
    finally:
        for key, w in original.items():
            store.set(key, w)
    return grid


def supernet_landscape_loss_fn(
    sn: SuperNet,
    x: np.ndarray,
    y: np.ndarray,
    index: EnumerationIndex,
    num_paths: int = 32,
    seed: int = 0,
):
    """Mean loss over a fixed sample of paths, as a loss_fn for the grid.

    Paths are drawn uniformly over unique architectures (random_a); a
    sub-space super-net draws only paths of its output in-degree.
    """
    sampler = Sampler("random_a", sn.spec, index=index, k_filter=sn.config.fixed_k)
    rng = named_rng(seed, "landscape-paths")
    encs = [sampler.draw(rng) for _ in range(num_paths)]
    return lambda store: mean_path_loss(sn, encs, x, y, rng=named_rng(sn.seed, "landscape-forward"))


def standalone_landscape_loss_fn(sn: SuperNet, enc: CellEncoding, x: np.ndarray, y: np.ndarray):
    return lambda store: mean_path_loss(sn, [enc], x, y, rng=named_rng(sn.seed, "landscape-forward"))
