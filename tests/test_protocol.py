"""Training protocol: schedule, optimizer, loops, evaluation, landscapes."""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wsnaslab.data import SyntheticDatasetSpec, generate_dataset, ninety_ten
from wsnaslab.nncore import ParamStore, named_rng
from wsnaslab.protocol import (
    SGD,
    ProtocolConfig,
    TrainLog,
    cosine_lr,
    evaluate_path,
    fairnas_step,
    filter_normalized_direction,
    loss_landscape_grid,
    spos_step,
    standalone_landscape_loss_fn,
    supernet_landscape_loss_fn,
    train_standalone,
    train_supernet,
)
from wsnaslab.sampling import fairnas_plan
from wsnaslab.searchspace import (
    CellEncoding,
    SearchSpaceSpec,
    canonical_hash,
    enumerate_space,
)
from wsnaslab.supernet import (
    MacroParams,
    SuperNetConfig,
    build_supernet,
    forward_path,
    path_loss,
    path_param_count,
    select_path,
)

MICRO = SearchSpaceSpec()
MACRO = MacroParams(init_channels=4, num_layers=1, num_classes=3, in_channels=1)
CHAIN = CellEncoding(2, ((0, 1), (1, 2), (2, 3)), (0, 1))

TINY_DATA = SyntheticDatasetSpec(samples_per_class=12, image_size=6)
FAST = ProtocolConfig(epochs=2, batch_size=8, learning_rate=0.05)


def batch(seed=0, n=8):
    rng = named_rng(seed, "proto-batch")
    x = rng.normal(size=(n, 1, 6, 6)).astype(np.float32)
    y = rng.integers(0, 3, size=n)
    return x, y


# ---------------------------------------------------------------- schedule

def test_cosine_lr_frozen_values():
    assert cosine_lr(0.1, 0, 10) == pytest.approx(0.1)
    assert cosine_lr(0.1, 10, 10) == pytest.approx(0.0, abs=1e-18)
    assert cosine_lr(0.1, 5, 10) == pytest.approx(0.05)
    assert cosine_lr(0.025, 1, 4) == pytest.approx(0.021338834764831844)
    assert cosine_lr(0.025, 3, 4) == pytest.approx(0.003661165235168156)


def test_cosine_lr_validation():
    with pytest.raises(ValueError):
        cosine_lr(0.1, 11, 10)
    with pytest.raises(ValueError):
        cosine_lr(0.1, -1, 10)
    with pytest.raises(ValueError):
        cosine_lr(0.1, 0, 0)


# --------------------------------------------------------------- optimizer

def test_sgd_plain_step_exact():
    store = ParamStore(seed=0)
    w0 = store.create("w", (5,), init="normal", fan_in=5).copy()
    g = np.linspace(-1.0, 1.0, 5).astype(np.float32)
    store.accumulate_grad("w", g)
    SGD(momentum=0.0, weight_decay=0.0).step(store, ["w"], lr=0.1)
    expected = (w0.astype(np.float64) - 0.1 * g.astype(np.float64)).astype(np.float32)
    np.testing.assert_array_equal(store.get("w"), expected)


def test_sgd_weight_decay_is_coupled():
    store = ParamStore(seed=1)
    w0 = store.create("w", (4,), init="normal", fan_in=4).copy()
    g = np.full(4, 0.5, dtype=np.float32)
    store.accumulate_grad("w", g)
    SGD(momentum=0.0, weight_decay=0.01).step(store, ["w"], lr=0.2)
    g64 = g.astype(np.float64) + 0.01 * w0.astype(np.float64)
    expected = (w0.astype(np.float64) - 0.2 * g64).astype(np.float32)
    np.testing.assert_array_equal(store.get("w"), expected)


def test_sgd_zero_gradient_reduces_to_decay():
    store = ParamStore(seed=2)
    w0 = store.create("w", (3,), init="normal", fan_in=3).copy()
    SGD(momentum=0.0, weight_decay=0.05).step(store, ["w"], lr=0.1)
    w64 = w0.astype(np.float64)
    expected = (w64 - 0.1 * (np.zeros(3) + 0.05 * w64)).astype(np.float32)
    np.testing.assert_array_equal(store.get("w"), expected)


def test_sgd_momentum_velocity_across_steps():
    store = ParamStore(seed=3)
    w0 = store.create("w", (4,), init="normal", fan_in=4).copy()
    opt = SGD(momentum=0.9, weight_decay=0.0)
    g1 = np.full(4, 0.25, dtype=np.float32)
    g2 = np.full(4, -0.5, dtype=np.float32)

    store.accumulate_grad("w", g1)
    opt.step(store, ["w"], lr=0.1)
    store.zero_grads()
    store.accumulate_grad("w", g2)
    opt.step(store, ["w"], lr=0.1)

    v1 = g1.astype(np.float64)
    w1 = (w0.astype(np.float64) - 0.1 * v1).astype(np.float32)
    v2 = 0.9 * v1 + g2.astype(np.float64)
    expected = (w1.astype(np.float64) - 0.1 * v2).astype(np.float32)
    np.testing.assert_array_equal(store.get("w"), expected)


def test_sgd_touches_only_listed_keys_and_skips_buffers():
    store = ParamStore(seed=4)
    store.create("w", (3,), init="normal", fan_in=3)
    other0 = store.create("other", (3,), init="normal", fan_in=3).copy()
    buf0 = store.create("bn/mean", (3,), init="ones").copy()
    store.accumulate_grad("w", np.ones(3, dtype=np.float32))
    store.accumulate_grad("other", np.ones(3, dtype=np.float32))
    SGD(momentum=0.0, weight_decay=0.01).step(store, ["w", "bn/mean"], lr=0.1)
    np.testing.assert_array_equal(store.get("other"), other0)
    np.testing.assert_array_equal(store.get("bn/mean"), buf0)


# ------------------------------------------------------------- single steps

def test_spos_step_modifies_only_the_selected_path():
    sn = build_supernet(MICRO, MACRO, SuperNetConfig(), seed=5)
    before = {k: sn.store.get(k).copy() for k in sn.store.keys()}
    x, y = batch()
    loss = spos_step(sn, SGD(0.9, 1e-3), CHAIN, x, y, lr=0.05, rng=None)
    assert math.isfinite(loss)
    changed = {k for k in sn.store.keys() if not np.array_equal(sn.store.get(k), before[k])}
    allowed = set(select_path(sn, CHAIN))
    assert changed <= allowed
    assert "stem/conv/weight" in changed
    assert not any("avgpool" in k or "node1/conv1x1" in k for k in changed)
    assert sn.store.grad_keys() == []  # grads cleared after the step


def _spos_step_reference(sn, opt, enc, xb, yb, lr, rng) -> float:
    """spos_step as it was written before it became the one-architecture
    plan of fairnas_step, kept frozen as the reference."""
    sn.store.zero_grads()
    loss, tape = path_loss(sn, enc, xb, yb, train=True, bn_mode="batch", rng=rng)
    tape.backward(loss)
    opt.step(sn.store, tape.param_keys(), lr)
    sn.store.zero_grads()
    return float(loss.data)


@pytest.mark.parametrize("repeated_cells", [1, 2])
@pytest.mark.parametrize("momentum, weight_decay", [(0.0, 0.0), (0.9, 0.0), (0.0, 1e-3), (0.9, 1e-3)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_spos_step_matches_its_frozen_reference_bit_for_bit(dtype, momentum, weight_decay, repeated_cells):
    """Five steps over different architectures leave the same losses, store
    bytes and SGD velocity as the frozen single-path step."""
    macro = dataclasses.replace(MACRO, repeated_cells=repeated_cells)
    index = enumerate_space(MICRO)
    runs = []
    for step in (_spos_step_reference, spos_step):
        sn = build_supernet(MICRO, macro, SuperNetConfig(), seed=8)
        sn.store = sn.store.astype(dtype)
        opt = SGD(momentum, weight_decay)
        losses = []
        for i in range(5):
            x, y = batch(20 + i)
            enc = index.representatives[index.hashes[7 * i % index.unique_count]]
            losses.append(step(sn, opt, enc, x, y, lr=0.05, rng=named_rng(8, "spos-forward", i)))
        assert sn.store.grad_keys() == []
        store = {k: (sn.store.get(k).dtype.str, sn.store.get(k).tobytes()) for k in sn.store.keys()}
        velocity = {k: (v.dtype.str, v.tobytes()) for k, v in opt._velocity.items()}
        runs.append((losses, store, velocity))
    assert all(math.isfinite(v) for v in runs[0][0])
    assert (len(runs[0][2]) > 0) == (momentum > 0)
    assert runs[0] == runs[1]


def test_fairnas_step_uses_the_mean_gradient():
    """The fairness update must equal SGD applied to the average of the
    per-architecture gradients measured in isolation."""
    plan = fairnas_plan(MICRO, named_rng(11, "plan"))
    x, y = batch(1)

    # per-architecture gradients on identical fresh weights
    grads: list[dict[str, np.ndarray]] = []
    for enc in plan:
        probe = build_supernet(MICRO, MACRO, SuperNetConfig(), seed=6)
        loss, tape = path_loss(probe, enc, x, y, train=True)
        tape.backward(loss)
        grads.append({k: probe.store.grad(k).astype(np.float64) for k in probe.store.grad_keys()})

    sn = build_supernet(MICRO, MACRO, SuperNetConfig(), seed=6)
    before = {k: sn.store.get(k).copy() for k in sn.store.trainable_keys()}
    mean_loss, passes = fairnas_step(sn, SGD(0.0, 0.0), plan, x, y, lr=0.1, rng=None)
    assert passes == len(plan) == 3

    touched = set().union(*(g.keys() for g in grads))
    for key in sn.store.trainable_keys():
        w0 = before[key].astype(np.float64)
        if key in touched:
            mean_g = sum(g.get(key, 0.0) for g in grads) / len(plan)
            expected = (w0 - 0.1 * mean_g).astype(np.float32)
            np.testing.assert_allclose(sn.store.get(key), expected, rtol=2e-5, atol=2e-7)
        else:
            np.testing.assert_array_equal(sn.store.get(key), before[key])


def test_fairnas_mean_loss_matches_isolated_losses():
    plan = fairnas_plan(MICRO, named_rng(12, "plan2"))
    x, y = batch(2)
    singles = []
    for enc in plan:
        probe = build_supernet(MICRO, MACRO, SuperNetConfig(), seed=7)
        loss, tape = path_loss(probe, enc, x, y, train=True)
        tape.backward(loss)
        singles.append(float(loss.data))
    sn = build_supernet(MICRO, MACRO, SuperNetConfig(), seed=7)
    mean_loss, _ = fairnas_step(sn, SGD(0.0, 0.0), plan, x, y, lr=0.1, rng=None)
    assert mean_loss == pytest.approx(sum(singles) / len(singles))


# ----------------------------------------------------------------- loops

def test_train_supernet_step_accounting_drops_last_batch():
    dataset = generate_dataset(SyntheticDatasetSpec(samples_per_class=20, image_size=6), seed=0)
    pconfig = ProtocolConfig(epochs=2, batch_size=16)
    sn, log = train_supernet(MICRO, MACRO, SuperNetConfig(), pconfig, dataset, seed=0)
    # pool 60 -> train 54 -> three full batches of 16, six examples dropped
    assert ninety_ten(60) == 54
    assert log.update_steps == 2 * 3
    assert log.forward_backward_passes == 2 * 3
    assert [e["epoch"] for e in log.entries] == [0, 1]
    for e in log.entries:
        assert e["lr"] == cosine_lr(pconfig.learning_rate, e["epoch"], 2)
        assert math.isfinite(e["loss"])


def test_train_supernet_fairnas_pass_accounting():
    dataset = generate_dataset(TINY_DATA, seed=0)
    pconfig = ProtocolConfig(epochs=1, batch_size=8, sampler="fairnas")
    _, log = train_supernet(MICRO, MACRO, SuperNetConfig(), pconfig, dataset, seed=0)
    steps = (ninety_ten(36) // 8)
    assert log.update_steps == steps
    assert log.forward_backward_passes == steps * MICRO.num_ops


def test_train_supernet_is_deterministic_per_seed():
    dataset = generate_dataset(TINY_DATA, seed=1)
    a, _ = train_supernet(MICRO, MACRO, SuperNetConfig(), FAST, dataset, seed=3)
    b, _ = train_supernet(MICRO, MACRO, SuperNetConfig(), FAST, dataset, seed=3)
    c, _ = train_supernet(MICRO, MACRO, SuperNetConfig(), FAST, dataset, seed=4)
    for key in a.store.keys():
        np.testing.assert_array_equal(a.store.get(key), b.store.get(key))
    assert any(not np.array_equal(a.store.get(k), c.store.get(k)) for k in a.store.keys())


def test_train_supernet_random_a_needs_index_and_k_filter_restricts():
    dataset = generate_dataset(TINY_DATA, seed=2)
    pconfig = ProtocolConfig(epochs=1, batch_size=8, sampler="random_a")
    with pytest.raises(ValueError):
        train_supernet(MICRO, MACRO, SuperNetConfig(), pconfig, dataset, seed=0)
    index = enumerate_space(MICRO)
    sub_config = SuperNetConfig(
        channel_strategy="disabled", fixed_k=2,
        dynamic_channel_train=False, dynamic_channel_test=False,
    )
    # a k=2 sub-space super-net rejects foreign paths, so a completed run
    # proves the filter held on every sampled architecture
    sn, log = train_supernet(
        MICRO, MACRO, sub_config, pconfig, dataset, seed=0, index=index
    )
    assert log.update_steps > 0


def test_train_supernet_rejects_undersized_dataset():
    dataset = generate_dataset(TINY_DATA, seed=3)  # pool 36 -> train 32
    with pytest.raises(ValueError):
        train_supernet(
            MICRO, MACRO, SuperNetConfig(),
            ProtocolConfig(epochs=1, batch_size=64), dataset, seed=0,
        )


def test_train_standalone_result_fields():
    dataset = generate_dataset(TINY_DATA, seed=4)
    h = canonical_hash(MICRO, CHAIN)
    r1 = train_standalone(MICRO, CHAIN, MACRO, FAST, dataset, seed=0, arch_hash=h)
    r2 = train_standalone(MICRO, CHAIN, MACRO, FAST, dataset, seed=0, arch_hash=h)
    assert r1.arch_hash == h and r1.seed == 0
    assert 0.0 <= r1.val_accuracy <= 1.0
    assert 0.0 <= r1.test_accuracy <= 1.0
    assert r1.val_accuracy == r2.val_accuracy
    assert r1.test_accuracy == r2.test_accuracy
    assert [e["loss"] for e in r1.log.entries] == [e["loss"] for e in r2.log.entries]
    sn = build_supernet(
        MICRO, MACRO,
        SuperNetConfig(channel_strategy="disabled", fixed_k=1,
                       dynamic_channel_train=False, dynamic_channel_test=False),
        seed=0,
    )
    assert r1.param_count == path_param_count(sn, CHAIN)


_STORE_DIGEST = """
import dataclasses, hashlib
from importlib import resources
from wsnaslab import protocol
from wsnaslab.config import load_config
from wsnaslab.data import generate_dataset
from wsnaslab.searchspace import enumerate_space

# train_standalone returns no network, so keep the one its builder makes
built = []
build = protocol.build_standalone
protocol.build_standalone = lambda *a, **k: built.append(build(*a, **k)) or built[-1]
cfg = load_config(resources.files("wsnaslab") / "presets" / "micro-node-concat.json")
index = enumerate_space(cfg.space)
h, enc = next((h, e) for h, e in index.representatives.items() if e.output_in_degree() == 2)
pconfig = dataclasses.replace(cfg.protocol, epochs=1)
r = protocol.train_standalone(cfg.space, enc, cfg.macro, pconfig, generate_dataset(cfg.dataset, 0), 5, h)
store = built[0].store
digest = hashlib.sha256(repr((r.val_accuracy, r.test_accuracy)).encode())
for key in sorted(store.keys()):
    digest.update(key.encode() + store.get(key).tobytes())
print(digest.hexdigest())
"""


def test_blas_thread_count_does_not_change_trained_weights():
    """One stand-alone training gives the same store bytes on 1 and 2 BLAS threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _STORE_DIGEST], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


# ----------------------------------------------------------------- splits

def test_split_sizes_and_determinism():
    dataset = generate_dataset(SyntheticDatasetSpec(samples_per_class=50, image_size=6), seed=5)
    xt, yt, xv, yv = dataset.split(1.0)
    assert len(yt) == ninety_ten(150) == 135
    assert len(yv) == 15
    xt2, yt2, _, _ = dataset.split(1.0)
    np.testing.assert_array_equal(xt, xt2)
    half_t, _, half_v, _ = dataset.split(0.5)
    keep = math.ceil(0.5 * 150)
    assert len(half_t) == ninety_ten(keep)
    assert len(half_v) == keep - ninety_ten(keep)


# -------------------------------------------------------------- evaluation

def test_evaluate_path_folds_trailing_singleton_under_batch_bn():
    sn = build_supernet(MICRO, MACRO, SuperNetConfig(), seed=8)
    rng = named_rng(5, "eval-data")
    x = rng.normal(size=(9, 1, 6, 6)).astype(np.float32)
    y = rng.integers(0, 3, size=9)

    acc = evaluate_path(sn, CHAIN, x, y, batch_size=4, bn_mode="batch")

    correct = 0
    for start, stop in ((0, 4), (4, 9)):
        logits, _ = forward_path(sn, CHAIN, x[start:stop], train=False, bn_mode="batch")
        correct += int((np.argmax(logits.data, axis=1) == y[start:stop]).sum())
    assert acc == correct / 9


def test_evaluate_path_tracked_keeps_singleton_batch():
    sn = build_supernet(MICRO, MACRO, SuperNetConfig(), seed=8, bn_track=True)
    rng = named_rng(6, "eval-data2")
    x = rng.normal(size=(9, 1, 6, 6)).astype(np.float32)
    y = rng.integers(0, 3, size=9)
    acc = evaluate_path(sn, CHAIN, x, y, batch_size=4, bn_mode="tracked")
    assert 0.0 <= acc <= 1.0
    with pytest.raises(ValueError):
        evaluate_path(sn, CHAIN, x[:0], y[:0], batch_size=4)


# --------------------------------------------------------------- train log

def test_train_log_csv_round_trip(tmp_path):
    log = TrainLog()
    log.append(0, 1.0986122886681098, 0.05)
    log.append(1, 0.75, 0.024999999999999998)
    path = tmp_path / "log.csv"
    log.save_csv(path)
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        rows = [{"epoch": int(r["epoch"]), "loss": float(r["loss"]), "lr": float(r["lr"])} for r in reader]
    assert reader.fieldnames == ["epoch", "loss", "lr"]
    assert rows == log.entries


# -------------------------------------------------------------- landscapes

def test_loss_landscape_grid_geometry_and_restore():
    store = ParamStore(seed=9)
    store.create("w", (6,), init="normal", fan_in=6)
    w0 = store.get("w").copy()

    def loss_fn(s) -> float:
        return float(np.sum(s.get("w").astype(np.float64) ** 2))

    grid = loss_landscape_grid(loss_fn, store, seed=0, radius=0.5, half_points=3)
    assert grid.shape == (7, 7)
    assert grid[3, 3] == loss_fn(store)
    np.testing.assert_array_equal(store.get("w"), w0)  # restored exactly

    d1 = filter_normalized_direction(store, 0, "d1")
    d2 = filter_normalized_direction(store, 0, "d2")
    shifted = (w0.astype(np.float64) - 0.5 * d1["w"] + 0.5 * d2["w"]).astype(np.float32)
    assert grid[0, 6] == float(np.sum(shifted.astype(np.float64) ** 2))


def test_loss_landscape_grid_marks_non_finite_cells():
    store = ParamStore(seed=10)
    store.create("w", (3,), init="normal", fan_in=3)
    w0 = store.get("w").copy()

    def loss_fn(s) -> float:
        if np.array_equal(s.get("w"), w0):
            return 1.0
        return math.inf

    grid = loss_landscape_grid(loss_fn, store, seed=1, radius=1.0, half_points=1)
    assert grid[1, 1] == 1.0
    assert np.isnan(np.delete(grid.ravel(), 4)).all()
    with pytest.raises(ValueError):
        loss_landscape_grid(loss_fn, store, seed=1, radius=0.0)
    with pytest.raises(ValueError):
        loss_landscape_grid(loss_fn, store, seed=1, half_points=0)


def test_landscape_loss_fns_are_deterministic():
    sn = build_supernet(MICRO, MACRO, SuperNetConfig(), seed=11)
    x, y = batch(3)
    index = enumerate_space(MICRO)
    f1 = supernet_landscape_loss_fn(sn, x, y, index, num_paths=4, seed=2)
    f2 = supernet_landscape_loss_fn(sn, x, y, index, num_paths=4, seed=2)
    assert f1(sn.store) == f2(sn.store)
    assert math.isfinite(f1(sn.store))
    alone = standalone_landscape_loss_fn(sn, CHAIN, x, y)
    loss, _ = path_loss(sn, CHAIN, x, y, train=False)
    assert alone(sn.store) == float(loss.data)


def test_supernet_landscape_loss_runs_on_shuffle_and_is_a_function_of_the_weights():
    """Shuffle slices draw from an rng; each call draws from a fresh one."""
    sn = build_supernet(MICRO, MACRO, SuperNetConfig(channel_strategy="shuffle"), seed=11)
    x, y = batch(3)
    loss_fn = supernet_landscape_loss_fn(sn, x, y, enumerate_space(MICRO), num_paths=4, seed=2)
    first = loss_fn(sn.store)
    assert math.isfinite(first) and loss_fn(sn.store) == first


# ------------------------------------------------------------------ config

def test_protocol_config_validation_and_round_trip():
    with pytest.raises(ValueError):
        ProtocolConfig(epochs=0)
    with pytest.raises(ValueError):
        ProtocolConfig(batch_size=1)
    with pytest.raises(ValueError):
        ProtocolConfig(momentum=1.0)
    with pytest.raises(ValueError):
        ProtocolConfig(train_portion=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig(sampler="genetic")
    cfg = ProtocolConfig(epochs=3, weight_decay=0.0)
    assert ProtocolConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError):
        ProtocolConfig.from_dict({"epochs": 3, "optimizer": "adam"})
