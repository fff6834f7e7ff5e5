"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Every test prints "[PASS]/[FAIL] criterion NN <name>: <numbers>" so a suite
run doubles as an audit report. All checks are seeded and deterministic;
independent oracles (pair counting, brute-force isomorphism, central
differences, exact rational arithmetic) live in this file and are never
imported by the package.

The three experiment-level checks (07, 08, 09) share one ground-truth
benchmark table built from the shipped micro preset; the build time of that
shared input is counted against each of their runtime budgets.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import sys
import time
from collections import Counter
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from scipy import stats

from wsnaslab.bench import build_micro_benchmark, load_table, save_table
from wsnaslab.cli import main
from wsnaslab.config import load_config
from wsnaslab.data import SyntheticDatasetSpec, generate_dataset
from wsnaslab.metrics import (
    EvalRecord,
    MetricConfig,
    kendall_tau,
    plain_kendall_tau,
    prob_surpass_random,
    round_accuracies,
    sparse_kendall_tau,
    sparse_ranks,
    sparse_spearman,
    spearman_rho,
)
from wsnaslab.nncore import engine as nn
from wsnaslab.nncore.gradcheck import finite_diff_check
from wsnaslab.nncore.params import ParamStore, load_checkpoint, named_rng, save_checkpoint
from wsnaslab.protocol import SGD, ProtocolConfig, evaluate_path, fairnas_step, spos_step, train_supernet
from wsnaslab.sampling import Sampler, fairnas_plan, sample_random_a, sampling_histogram
from wsnaslab.searchspace import (
    CellEncoding,
    SearchSpaceSpec,
    canonical_hash,
    enumerate_space,
    validate_encoding,
)
from wsnaslab.supernet import (
    MacroParams,
    SuperNetConfig,
    build_supernet,
    checkpoint_header,
    mean_path_loss,
    path_loss,
    select_path,
)

PRESET = "micro-node-concat"

_CAPFD = None


@pytest.fixture(autouse=True)
def _verdict_channel(capfd):
    """Let _report punch verdict lines through pytest's fd capture."""
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def _report(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}"
    if _CAPFD is not None:
        with _CAPFD.disabled():
            print("\n" + line, flush=True)
    else:
        print(line, file=sys.__stderr__, flush=True)
    print(line)
    return line


# ===================================================================
# shared experiment environment (shipped preset + its benchmark table)
# ===================================================================

@pytest.fixture(scope="module")
def env(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance")
    preset = json.loads(resources.files("wsnaslab").joinpath(f"presets/{PRESET}.json").read_text())
    bench_path = tmp / "bench.jsonl"
    preset["benchmark"]["path"] = str(bench_path)
    preset["output"]["directory"] = str(tmp / "run-default")
    config_path = tmp / "config.json"
    config_path.write_text(json.dumps(preset, indent=2))

    config = load_config(config_path)
    index = enumerate_space(config.space)
    t0 = time.time()
    table = build_micro_benchmark(
        config.space,
        config.macro,
        config.protocol,
        config.dataset,
        config.benchmark.base_seed,
        tuple(config.benchmark.run_seeds),
        jobs=min(2, os.cpu_count() or 1),
        index=index,
    )
    table_seconds = time.time() - t0
    save_table(table, bench_path)

    dataset = generate_dataset(config.dataset, config.benchmark.base_seed)
    _, _, x_val, y_val = dataset.split(config.protocol.train_portion)
    return {
        "tmp": tmp,
        "preset": preset,
        "config": config,
        "config_path": str(config_path),
        "bench_path": str(bench_path),
        "index": index,
        "table": table,
        "table_seconds": table_seconds,
        "dataset": dataset,
        "x_val": x_val,
        "y_val": y_val,
    }


def _rank_records(sns, hashes, index, table, x_val, y_val, batch_size):
    """EvalRecords with one super-net accuracy column per trained net."""
    records = []
    for h in hashes:
        enc = index.representatives[h]
        accs = tuple(evaluate_path(sn, enc, x_val, y_val, batch_size, bn_mode="batch") for sn in sns)
        records.append(EvalRecord(h, table.gt_mean(h), accs))
    return records


# ===================================================================
# criterion 1: rank metrics against an O(N^2) oracle
# ===================================================================

def _oracle_tau_b(a, b):
    """Pair-count tau-b: (C - D) / sqrt((n0 - t_a) * (n0 - t_b))."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    i, j = np.triu_indices(a.size, k=1)
    da = np.sign(a[i] - a[j])
    db = np.sign(b[i] - b[j])
    concordant = int(np.sum(da * db > 0))
    discordant = int(np.sum(da * db < 0))
    tied_a = int(np.sum(da == 0))
    tied_b = int(np.sum(db == 0))
    pairs = int(i.size)
    denom = math.sqrt((pairs - tied_a) * (pairs - tied_b))
    if denom == 0.0:
        return None
    return (concordant - discordant) / denom


def _oracle_spearman(a, b):
    """Pearson correlation of O(N^2) midranks."""

    def midranks(v):
        v = np.asarray(v, dtype=np.float64)
        higher = (v[None, :] > v[:, None]).sum(axis=1)
        equal = (v[None, :] == v[:, None]).sum(axis=1)
        return higher + (equal + 1) / 2.0

    ra, rb = midranks(a), midranks(b)
    if np.all(ra == ra[0]) or np.all(rb == rb[0]):
        return None
    da = ra - ra.mean()
    db = rb - rb.mean()
    return float(da @ db / math.sqrt((da @ da) * (db @ db)))


def _oracle_group_ids(values, threshold):
    """Anchor-walk grouping redone with plain python sorting."""
    values = [float(v) for v in values]
    order = sorted(range(len(values)), key=lambda k: (-values[k], k))
    ids = [0] * len(values)
    current = 0
    anchor = None
    for k in order:
        v = values[k]
        if anchor is None or not (v == anchor or anchor - v < threshold):
            current += 1
            anchor = v
        ids[k] = current
    return np.asarray(ids, dtype=np.int64)


def _same(got, want, tol=1e-12):
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= tol


def _draw_values(rng, n):
    style = int(rng.integers(0, 4))
    if style == 0:
        return rng.uniform(0.2, 0.95, n)
    if style == 1:  # exact ties on a coarse grid
        return rng.integers(0, 12, n) * 0.05 + 0.2
    if style == 2:  # clusters tighter than any tested threshold
        centers = rng.uniform(0.2, 0.95, max(1, n // 3))
        return rng.choice(centers, n) + rng.uniform(0.0, 2e-4, n)
    return np.full(n, float(rng.uniform(0.2, 0.95)))


def test_criterion_01_metric_exactness():
    t0 = time.time()
    failures = []

    # frozen grouping examples (chain cut at the group anchor)
    if sparse_ranks(np.array([93.10, 93.05, 92.00]), 0.1).tolist() != [1, 1, 2]:
        failures.append("frozen example 1")
    if sparse_ranks(np.array([90.0, 90.09, 90.18]), 0.1).tolist() != [2, 1, 1]:
        failures.append("frozen example 2")
    if sparse_ranks(np.array([0.5, 0.5, 0.5]), 0.0).tolist() != [1, 1, 1]:
        failures.append("frozen example 3")

    rng = np.random.default_rng(415)
    thresholds = (0.0, 1e-3, 5e-3, 0.05)
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(2, 51))
        a = _draw_values(rng, n)
        b = _draw_values(rng, n)

        got_t, want_t = kendall_tau(a, b), _oracle_tau_b(a, b)
        if not _same(got_t, want_t):
            failures.append(f"tau trial {trial}")
        got_r, want_r = spearman_rho(a, b), _oracle_spearman(a, b)
        if not _same(got_r, want_r):
            failures.append(f"rho trial {trial}")
        if got_t is not None and want_t is not None:
            worst = max(worst, abs(got_t - want_t), abs(got_r - want_r))

        thr = float(thresholds[trial % len(thresholds)])
        if not np.array_equal(sparse_ranks(a, thr), _oracle_group_ids(a, thr)):
            failures.append(f"grouping trial {trial}")

        m = b[:, None] + rng.uniform(-5e-5, 5e-5, (n, 3))
        records = [
            EvalRecord(f"a{k:03d}", float(a[k]), tuple(float(x) for x in m[k]))
            for k in range(n)
        ]
        cfg = MetricConfig(sparse_threshold=thr, gt_rounding=float(rng.choice((0.0, 1e-3, 1e-2))))
        sn_means = np.asarray([r.supernet_mean for r in records])
        gt_grouped = _oracle_group_ids(round_accuracies(a, cfg.gt_rounding), thr)
        sn_grouped = _oracle_group_ids(sn_means, thr)
        if not _same(sparse_kendall_tau(records, cfg), _oracle_tau_b(sn_grouped, gt_grouped)):
            failures.append(f"s-kdt trial {trial}")
        if not _same(sparse_spearman(records, cfg), _oracle_spearman(sn_grouped, gt_grouped)):
            failures.append(f"s-spr trial {trial}")

    # threshold 0 degrades s-KdT to plain KdT exactly
    for trial in range(300):
        n = int(rng.integers(2, 51))
        gt = rng.integers(0, 35, n).astype(np.float64) * 0.001
        m = rng.integers(0, 35, (n, 3)).astype(np.float64) * 0.001
        records = [
            EvalRecord(f"a{k:03d}", float(gt[k]), tuple(float(x) for x in m[k]))
            for k in range(n)
        ]
        for cfg in (
            MetricConfig(sparse_threshold=0.0, gt_rounding=0.001),
            MetricConfig(sparse_threshold=0.0, gt_rounding=0.0),
        ):
            skdt = sparse_kendall_tau(records, cfg)
            kdt = plain_kendall_tau(records, cfg)
            if skdt != kdt and not (skdt is None and kdt is None):
                failures.append(f"degrade trial {trial} rounding {cfg.gt_rounding}")

    elapsed = time.time() - t0
    ok = not failures and elapsed < 10.0
    line = _report(
        1, "metric exactness", ok,
        f"1300 randomized lists vs pair-count oracle, worst |diff| {worst:.2e}, "
        f"{len(failures)} failures ({elapsed:.1f}s / 10s budget)",
    )
    assert ok, line + "; first failures: " + ", ".join(failures[:5])


# ===================================================================
# criterion 2: closed-form surpass probability
# ===================================================================

def test_criterion_02_prob_surpass_random():
    t0 = time.time()
    failures = []
    worst = 0.0

    for r_max in (1, 2, 3, 7, 42, 500):
        for n in (1, 2, 10):
            if prob_surpass_random(0, r_max, n) != 0.0:
                failures.append(f"r=0 r_max={r_max} n={n}")
            if prob_surpass_random(r_max, r_max, n) != 1.0:
                failures.append(f"r=r_max={r_max} n={n}")
            for r in sorted({1, r_max // 2, r_max - 1, r_max} - {0}):
                got = prob_surpass_random(r, r_max, n)
                want = float(1 - (1 - Fraction(r, r_max)) ** n)  # exact rational route
                worst = max(worst, abs(got - want))
                if abs(got - want) > 1e-12:
                    failures.append(f"grid r={r} r_max={r_max} n={n}")

    rng = np.random.default_rng(4)
    for _ in range(10_000):
        r_max = int(rng.integers(1, 400))
        r = int(rng.integers(0, r_max + 1))
        n = int(rng.integers(1, 40))
        p = prob_surpass_random(r, r_max, n)
        if not 0.0 <= p <= 1.0:
            failures.append(f"range r={r}/{r_max} n={n}")
        if r < r_max and prob_surpass_random(r + 1, r_max, n) < p:
            failures.append(f"monotone-r r={r}/{r_max} n={n}")
        if prob_surpass_random(r, r_max, n + 1) < p:
            failures.append(f"monotone-n r={r}/{r_max} n={n}")

    elapsed = time.time() - t0
    ok = not failures and elapsed < 1.0
    line = _report(
        2, "surpass probability", ok,
        f"grid exact at 0/1 endpoints, worst |diff| {worst:.2e} vs rational oracle, "
        f"10000 monotonicity triples clean ({elapsed:.2f}s / 1s budget)",
    )
    assert ok, line + "; first failures: " + ", ".join(failures[:5])


# ===================================================================
# criterion 3: finite differences over every primitive + a full path
# ===================================================================

def _mask(name, shape):
    return named_rng(40, "fd-mask", name).uniform(0.5, 1.5, shape)


def _primitive_probes():
    """(name, param specs, forward) triples; forward maps a Tape to a Value."""
    drop = nn.dropout_mask(named_rng(40, "fd-drop"), (2, 3, 4, 4), 0.4)
    ce_labels = named_rng(40, "fd-labels").integers(0, 3, 8)
    bn_train = nn.BNState("bn2", 4, affine=True, track=False)
    bn_eval = nn.BNState("bn4", 4, affine=True, track=True)
    probes = [
        ("conv3x3", [("x", (2, 3, 5, 5), 4), ("w", (4, 3, 3, 3), 27)],
         lambda t: nn.mul_mask(nn.conv3x3(t.param("x"), t.param("w")), _mask("conv3x3", (2, 4, 5, 5)))),
        ("conv1x1", [("x", (2, 3, 4, 4), 4), ("w", (5, 3), 3)],
         lambda t: nn.mul_mask(nn.conv1x1(t.param("x"), t.param("w")), _mask("conv1x1", (2, 5, 4, 4)))),
        ("avgpool3x3", [("x", (2, 3, 6, 6), 2)],
         lambda t: nn.mul_mask(nn.avgpool3x3(t.param("x")), _mask("avgpool3x3", (2, 3, 6, 6)))),
        ("zero", [("x", (2, 3, 4, 4), 2)],
         lambda t: nn.zero_op(t.param("x"))),
        ("linear", [("x", (4, 6), 3), ("w", (6, 3), 6), ("b", (3,), 3)],
         lambda t: nn.mul_mask(nn.linear(t.param("x"), t.param("w"), t.param("b")), _mask("linear", (4, 3)))),
        ("relu", [("x", (30,), 1)],
         lambda t: nn.mul_mask(nn.relu(t.param("x")), _mask("relu", (30,)))),
        ("global_pool", [("x", (2, 5, 4, 4), 2)],
         lambda t: nn.mul_mask(nn.global_pool(t.param("x")), _mask("global_pool", (2, 5)))),
        ("sum_tensors", [("x1", (2, 3, 4, 4), 2), ("x2", (2, 3, 4, 4), 2), ("x3", (2, 3, 4, 4), 2)],
         lambda t: nn.mul_mask(nn.sum_tensors([t.param("x1"), t.param("x2"), t.param("x3")]),
                               _mask("sum_tensors", (2, 3, 4, 4)))),
        ("concat_channels", [("a", (2, 2, 3, 3), 2), ("b", (2, 3, 3, 3), 2)],
         lambda t: nn.mul_mask(nn.concat_channels([t.param("a"), t.param("b")]),
                               _mask("concat_channels", (2, 5, 3, 3)))),
        ("channel_pad", [("x", (2, 3, 4, 4), 2)],
         lambda t: nn.mul_mask(nn.channel_pad(t.param("x"), 6), _mask("channel_pad", (2, 6, 4, 4)))),
        ("take_axis", [("x", (2, 5, 3, 3), 2)],
         lambda t: nn.mul_mask(nn.take_axis(t.param("x"), np.array([4, 0, 2, 2]), 1),
                               _mask("take_axis", (2, 4, 3, 3)))),
        ("mix_axis", [("x", (2, 4, 3, 3), 2)],
         lambda t: nn.mul_mask(nn.mix_axis(t.param("x"), _mask("mix-mat", (2, 4)), 1),
                               _mask("mix_axis", (2, 2, 3, 3)))),
        ("mul_mask", [("x", (3, 4), 2)],
         lambda t: nn.mul_mask(t.param("x"), _mask("mul_mask", (3, 4)))),
        # a float32 scalar, as path dropout passes its keep factor
        ("mul_mask_scalar", [("x", (2, 3, 4, 4), 2)],
         lambda t: nn.mul_mask(nn.mul_mask(t.param("x"), np.float32(0.37)), _mask("scale_channels", (2, 3, 4, 4)))),
        ("reshape", [("x", (2, 3, 4), 2)],
         lambda t: nn.mul_mask(nn.reshape(t.param("x"), (3, 8)), _mask("reshape", (3, 8)))),
        ("matmul2d", [("a", (3, 4), 2), ("b", (4, 5), 4)],
         lambda t: nn.mul_mask(nn.matmul2d(t.param("a"), t.param("b")), _mask("matmul2d", (3, 5)))),
        ("reduce_sum", [("x", (7,), 1)],
         lambda t: t.param("x")),
        ("dropout_mask", [("x", (2, 3, 4, 4), 2)],
         lambda t: nn.mul_mask(t.param("x"), drop)),
        ("batchnorm_train", [("x", (6, 4), 1)],
         lambda t: nn.mul_mask(nn.batchnorm(t.param("x"), bn_train, train=True), _mask("bn-train", (6, 4)))),
        ("batchnorm_tracked", [("x", (3, 4, 3, 3), 1)],
         lambda t: nn.mul_mask(nn.batchnorm(t.param("x"), bn_eval, train=False, bn_mode="tracked"),
                               _mask("bn-eval", (3, 4, 3, 3)))),
        ("cross_entropy", [("logits", (8, 3), 1)],
         lambda t: nn.cross_entropy(t.param("logits"), ce_labels)),
    ]
    return probes, bn_train, bn_eval


def test_criterion_03_finite_difference():
    t0 = time.time()
    failures = []
    results = {}
    probes, bn_train, bn_eval = _primitive_probes()

    for name, params, forward in probes:
        store = ParamStore(seed=11, dtype=np.float32)
        for key, shape, fan_in in params:
            store.create(key, shape, init="normal", fan_in=fan_in)
        if name == "batchnorm_train":
            bn_train.create_params(store)
        if name == "batchnorm_tracked":
            bn_eval.create_params(store)
            store.get("bn4/mean")[:] = named_rng(40, "fd-bn-mean").uniform(-0.3, 0.3, 4).astype(np.float32)
            store.get("bn4/var")[:] = named_rng(40, "fd-bn-var").uniform(0.5, 1.5, 4).astype(np.float32)

        def builder(work, forward=forward):
            tape = nn.Tape(work)
            out = forward(tape)
            return out if out.data.size == 1 else nn.reduce_sum(out)

        res = finite_diff_check(builder, store, max_elements_per_param=6, seed=3)
        results[name] = res["max_rel_err"]
        if res["max_rel_err"] > 1e-3:
            failures.append(f"{name} rel err {res['max_rel_err']:.2e}")

    # a complete super-net path: stem -> cells -> classifier -> loss
    spec = SearchSpaceSpec()
    macro = MacroParams()
    path_encs = [
        CellEncoding(2, ((0, 1), (1, 2), (2, 3)), (0, 1)),           # chain, k=1
        CellEncoding(2, ((0, 1), (0, 2), (1, 3), (2, 3)), (0, 2)),   # parallel, k=2
    ]
    x = named_rng(6, "fd-path-x").standard_normal((4, 1, 8, 8)).astype(np.float32)
    y = named_rng(6, "fd-path-y").integers(0, 3, 4)
    for enc in path_encs:
        assert validate_encoding(spec, enc) == []
        sn = build_supernet(spec, macro, SuperNetConfig(), seed=6)
        base = sn.store

        def builder(work, sn=sn, base=base, enc=enc):
            sn.store = work
            try:
                loss, _ = path_loss(sn, enc, x, y, train=True, bn_mode="batch")
            finally:
                sn.store = base
            return loss

        res = finite_diff_check(builder, base, max_elements_per_param=6, seed=3)
        results[f"path k={enc.output_in_degree()}"] = res["max_rel_err"]
        if res["max_rel_err"] > 1e-3:
            failures.append(f"path {enc.edges} rel err {res['max_rel_err']:.2e}")

    elapsed = time.time() - t0
    worst = max(results.values())
    ok = not failures and elapsed < 120.0
    line = _report(
        3, "finite differences", ok,
        f"{len(probes)} primitives + 2 full paths, worst rel err {worst:.2e} "
        f"(tolerance 1e-3, {elapsed:.1f}s / 120s budget)",
    )
    assert ok, line + "; " + ", ".join(failures[:5])


# ===================================================================
# criterion 4: update isolation and exact loss decomposition
# ===================================================================

def test_criterion_04_path_isolation_and_decomposition(tmp_path):
    t0 = time.time()
    failures = []
    spec = SearchSpaceSpec()
    macro = MacroParams()

    # one single-path step must stay inside the selected keys; on the
    # full-width chain every selected parameter receives real signal, so
    # there the checkpoint diff must match the selection exactly
    always_on = {"stem/conv/weight", "stem/bn/scale", "stem/bn/shift", "classifier/weight", "classifier/bias"}
    step_cases = [
        ("chain", CellEncoding(2, ((0, 1), (1, 2), (2, 3)), (0, 1)), True),
        ("parallel", CellEncoding(2, ((0, 1), (0, 2), (1, 3), (2, 3)), (0, 1)), False),
    ]
    changed_counts = []
    for label, enc, exact in step_cases:
        assert validate_encoding(spec, enc) == []
        sn = build_supernet(spec, macro, SuperNetConfig(), seed=21)
        before_path = tmp_path / f"{label}-before.ckpt"
        after_path = tmp_path / f"{label}-after.ckpt"
        save_checkpoint(sn.store, before_path, header=checkpoint_header(sn))

        rng = named_rng(21, "c4-batch")
        xb = rng.standard_normal((16, 1, 8, 8)).astype(np.float32)
        yb = rng.integers(0, 3, 16)
        spos_step(sn, SGD(momentum=0.9, weight_decay=1e-3), enc, xb, yb, lr=0.05, rng=None)
        save_checkpoint(sn.store, after_path, header=checkpoint_header(sn))

        before, _ = load_checkpoint(before_path)
        after, _ = load_checkpoint(after_path)
        if before.keys() != after.keys():
            failures.append(f"{label}: checkpoint key sets differ")
        changed = {k for k in before.keys() if not np.array_equal(before.get(k), after.get(k))}
        changed_counts.append(len(changed))
        selected = set(select_path(sn, enc))
        if not always_on <= selected:
            failures.append(f"{label}: always-on keys missing from selection: {sorted(always_on - selected)}")
        if not always_on <= changed:
            failures.append(f"{label}: always-on keys did not move: {sorted(always_on - changed)}")
        if not changed <= selected:
            failures.append(f"{label}: off-path keys changed: {sorted(changed - selected)[:3]}")
        if exact and changed != selected:
            failures.append(f"{label}: selected keys left untouched: {sorted(selected - changed)[:3]}")

    # mean per-path loss over the full enumeration, exact decomposition
    index = enumerate_space(spec)
    encs = [index.representatives[h] for h in index.hashes]
    sn2 = build_supernet(spec, macro, SuperNetConfig(), seed=22)
    rng2 = named_rng(22, "c4-batch")
    xe = rng2.standard_normal((32, 1, 8, 8)).astype(np.float32)
    ye = rng2.integers(0, 3, 32)
    got = mean_path_loss(sn2, encs, xe, ye, bn_mode="batch")
    total = 0.0
    for e in encs:
        loss, _ = path_loss(sn2, e, xe, ye, train=False, bn_mode="batch")
        total += float(loss.data)
    want = total / len(encs)
    if got != want:
        failures.append(f"decomposition mismatch {got!r} vs {want!r}")

    elapsed = time.time() - t0
    ok = not failures and elapsed < 60.0
    line = _report(
        4, "path isolation", ok,
        f"steps touched {changed_counts} keys, all inside their selections, mean loss over "
        f"{len(encs)} paths decomposes exactly ({elapsed:.1f}s / 60s budget)",
    )
    assert ok, line + "; " + "; ".join(failures[:5])


# ===================================================================
# criterion 5: canonical hash == brute-force isomorphism
# ===================================================================

def _connected(n_nodes, edges):
    out = n_nodes + 1
    succ, pred = {}, {}
    for i, j in edges:
        succ.setdefault(i, []).append(j)
        pred.setdefault(j, []).append(i)
    fwd, frontier = {0}, [0]
    while frontier:
        for w in succ.get(frontier.pop(), []):
            if w not in fwd:
                fwd.add(w)
                frontier.append(w)
    bwd, frontier = {out}, [out]
    while frontier:
        for u in pred.get(frontier.pop(), []):
            if u not in bwd:
                bwd.add(u)
                frontier.append(u)
    return all(v in fwd and v in bwd for v in range(1, out))


def _raw_encodings(spec):
    """Independent enumeration: masks over candidate edges, op products."""
    out = spec.n_nodes + 1
    if spec.topology_mode == "chain":
        candidates = [(i, i + 1) for i in range(out)]
    else:
        candidates = [(i, j) for i in range(out) for j in range(i + 1, out + 1) if (i, j) != (0, out)]
    encodings = []
    for mask in range(1 << len(candidates)):
        edges = tuple(e for bit, e in enumerate(candidates) if mask >> bit & 1)
        if not _connected(spec.n_nodes, edges):
            continue
        slots = spec.n_nodes if spec.op_placement == "node" else len(edges)
        for ops in itertools.product(range(len(spec.ops)), repeat=slots):
            encodings.append(CellEncoding(spec.n_nodes, edges, ops))
    return encodings


def _iso_key(spec, enc):
    """Lexicographic minimum over intermediate-node permutations."""
    n = spec.n_nodes
    out = n + 1
    best = None
    for perm in itertools.permutations(range(1, n + 1)):
        mapping = {0: 0, out: out}
        mapping.update(dict(zip(range(1, n + 1), perm)))
        mapped = sorted((mapping[i], mapping[j]) for i, j in enc.edges)
        if any(i >= j for i, j in mapped):
            continue
        if spec.op_placement == "node":
            inverse = {p: v for v, p in mapping.items()}
            ops = tuple(enc.ops[inverse[p] - 1] for p in range(1, n + 1))
        else:
            op_of = {(mapping[i], mapping[j]): enc.edge_op((i, j)) for i, j in enc.edges}
            ops = tuple(op_of[e] for e in mapped)
        key = (tuple(mapped), ops)
        if best is None or key < best:
            best = key
    return best


CANONICAL_SPECS = [
    SearchSpaceSpec(),
    SearchSpaceSpec(n_nodes=1),
    SearchSpaceSpec(n_nodes=2, ops=("conv3x3", "identity")),
    SearchSpaceSpec(n_nodes=2, merge_rule="sum", channel_mode="fixed"),
    SearchSpaceSpec(n_nodes=2, ops=("conv3x3", "conv1x1"), op_placement="edge",
                    merge_rule="sum", channel_mode="fixed"),
    SearchSpaceSpec(n_nodes=2, topology_mode="chain"),
    SearchSpaceSpec(n_nodes=3, ops=("conv3x3",)),
]


def test_criterion_05_canonicalization():
    t0 = time.time()
    failures = []
    checked = 0
    for spec in CANONICAL_SPECS:
        raw = _raw_encodings(spec)
        assert len(raw) <= 200, f"roster space {spec.space_id} outgrew the budget"
        index = enumerate_space(spec)
        if len(raw) != index.raw_count:
            failures.append(f"{spec.space_id}: raw {len(raw)} vs {index.raw_count}")
            continue
        by_hash: dict[str, set] = {}
        by_iso: dict[tuple, set] = {}
        hash_counts: Counter = Counter()
        for enc in raw:
            h = canonical_hash(spec, enc)
            k = _iso_key(spec, enc)
            by_hash.setdefault(h, set()).add(k)
            by_iso.setdefault(k, set()).add(h)
            hash_counts[h] += 1
        merges = [h for h, keys in by_hash.items() if len(keys) > 1]
        splits = [k for k, hs in by_iso.items() if len(hs) > 1]
        if merges:
            failures.append(f"{spec.space_id}: {len(merges)} false merges")
        if splits:
            failures.append(f"{spec.space_id}: {len(splits)} false splits")
        if len(by_iso) != index.unique_count:
            failures.append(f"{spec.space_id}: {len(by_iso)} classes vs {index.unique_count} hashes")
        if dict(hash_counts) != dict(index.multiplicity):
            failures.append(f"{spec.space_id}: multiplicities differ")
        checked += len(raw)

    elapsed = time.time() - t0
    ok = not failures and elapsed < 60.0
    line = _report(
        5, "canonicalization", ok,
        f"{checked} raw encodings over {len(CANONICAL_SPECS)} spaces, zero merges/splits "
        f"({elapsed:.1f}s / 60s budget)",
    )
    assert ok, line + "; " + "; ".join(failures[:5])


# ===================================================================
# criterion 6: sampler distributions, exact fairness, step cost
# ===================================================================

def test_criterion_06_samplers():
    t0 = time.time()
    failures = []
    spec = SearchSpaceSpec()
    index = enumerate_space(spec)
    draws = 10_000

    # uniformity over unique architectures
    counts_a = sampling_histogram(Sampler("random_a", spec, index=index), draws, 5)
    observed = [counts_a.get(h, 0) for h in index.hashes]
    chi_p = float(stats.chisquare(observed).pvalue)
    if chi_p <= 0.01:
        failures.append(f"random_a chi2 p {chi_p:.4f}")

    # multiplicity-proportional visits
    counts_nas = sampling_histogram(Sampler("random_nas", spec, index=index), draws, 6)
    worst_z = 0.0
    for h in index.hashes:
        p = index.multiplicity[h] / index.raw_count
        expected = draws * p
        sigma = math.sqrt(draws * p * (1 - p))
        worst_z = max(worst_z, abs(counts_nas.get(h, 0) - expected) / sigma)
    if worst_z > 3.0:
        failures.append(f"random_nas worst z {worst_z:.2f}")

    # fairness update equals the mean of per-op-pass gradients, bitwise
    seed = 77
    macro = MacroParams(init_channels=4, num_layers=1, num_classes=3)
    rng = named_rng(seed, "c6-batch")
    xb = rng.standard_normal((8, 1, 6, 6)).astype(np.float32)
    yb = rng.integers(0, 3, 8)
    plan = fairnas_plan(spec, named_rng(seed, "c6-plan"))

    sn_fair = build_supernet(spec, macro, SuperNetConfig(), seed)
    mean_loss, passes = fairnas_step(sn_fair, SGD(0.9, 3e-4), plan, xb, yb, lr=0.05, rng=None)

    sn_probe = build_supernet(spec, macro, SuperNetConfig(), seed)
    captured = []
    for enc in plan:
        store = sn_probe.store
        raw: dict[str, np.ndarray] = {}
        original = store.accumulate_grad

        def record(key, g, _raw=raw, _orig=original):
            assert key not in _raw, f"{key} accumulated twice in one pass"
            _raw[key] = np.asarray(g, dtype=np.float64).copy()
            _orig(key, g)

        store.accumulate_grad = record
        loss, tape = path_loss(sn_probe, enc, xb, yb, train=True, bn_mode="batch")
        tape.backward(loss)
        del store.accumulate_grad
        store.zero_grads()
        captured.append(raw)

    accumulated: dict[str, np.ndarray] = {}
    for raw in captured:
        for key, g in raw.items():
            if key not in accumulated:
                accumulated[key] = np.asarray(g, dtype=np.float32)
            else:
                accumulated[key] = (accumulated[key].astype(np.float64) + g).astype(np.float32)
    for key in accumulated:
        accumulated[key] = (accumulated[key] * (1.0 / len(plan))).astype(np.float32)

    sn_manual = build_supernet(spec, macro, SuperNetConfig(), seed)
    for key, g in accumulated.items():
        sn_manual.store.accumulate_grad(key, g)
    SGD(0.9, 3e-4).step(sn_manual.store, set(accumulated), 0.05)

    mismatched = [
        k for k in sn_fair.store.keys()
        if sn_fair.store.get(k).tobytes() != sn_manual.store.get(k).tobytes()
    ]
    if mismatched:
        failures.append(f"fairness update not bitwise: {mismatched[:3]}")
    if passes != spec.num_ops:
        failures.append(f"plan executed {passes} passes, expected {spec.num_ops}")

    # per-update cost factor o versus the single-path sampler
    dspec = SyntheticDatasetSpec(kind="gaussian_blobs", num_classes=3, samples_per_class=12, image_size=6)
    tiny = generate_dataset(dspec, 0)
    proto_fair = ProtocolConfig(epochs=2, batch_size=8, sampler="fairnas")
    proto_rand = ProtocolConfig(epochs=2, batch_size=8, sampler="random_nas")
    _, log_fair = train_supernet(spec, macro, SuperNetConfig(), proto_fair, tiny, 13, index=index)
    _, log_rand = train_supernet(spec, macro, SuperNetConfig(), proto_rand, tiny, 13, index=index)
    if log_fair.update_steps != log_rand.update_steps:
        failures.append(f"update steps {log_fair.update_steps} vs {log_rand.update_steps}")
    if log_fair.forward_backward_passes != spec.num_ops * log_rand.forward_backward_passes:
        failures.append(
            f"pass count {log_fair.forward_backward_passes} not {spec.num_ops}x "
            f"{log_rand.forward_backward_passes}"
        )

    elapsed = time.time() - t0
    ok = not failures and elapsed < 120.0
    line = _report(
        6, "samplers", ok,
        f"uniform p {chi_p:.3f}, multiplicity worst z {worst_z:.2f}, fairness update bitwise, "
        f"cost factor {spec.num_ops}x ({elapsed:.1f}s / 120s budget)",
    )
    assert ok, line + "; " + "; ".join(failures[:5])


# ===================================================================
# criterion 7: tracked BN statistics collapse shared-weight rankings
# ===================================================================

def test_criterion_07_bn_statistics(env):
    t0 = time.time()
    config = env["config"]
    index = env["index"]
    dataset = env["dataset"]
    proto = ProtocolConfig.from_dict({**env["preset"]["protocol"], "bn_track": True})
    sn_config = SuperNetConfig.from_dict(env["preset"]["supernet"])
    near = dataset.chance + 0.05

    wins = 0
    details = []
    for s in (0, 1, 2):
        sn, _ = train_supernet(config.space, config.macro, sn_config, proto, dataset, 5000 + s, index=index)
        arch_rng = named_rng(s, "bn-archs")
        archs = [sample_random_a(index, arch_rng) for _ in range(30)]
        frac_batch = frac_tracked = 0
        for enc in archs:
            if evaluate_path(sn, enc, env["x_val"], env["y_val"], proto.batch_size, bn_mode="batch") < near:
                frac_batch += 1
            if evaluate_path(sn, enc, env["x_val"], env["y_val"], proto.batch_size, bn_mode="tracked") < near:
                frac_tracked += 1
        wins += frac_tracked > frac_batch
        details.append(f"seed {s}: tracked {frac_tracked}/30 vs batch {frac_batch}/30")

    elapsed = time.time() - t0
    budget = elapsed + env["table_seconds"]
    ok = wins >= 2 and budget < 1200.0
    line = _report(
        7, "bn statistics", ok,
        f"near-chance fractions {'; '.join(details)} -> tracked larger in {wins}/3 seeds "
        f"({elapsed:.0f}s + {env['table_seconds']:.0f}s shared table / 1200s budget)",
    )
    assert ok, line


# ===================================================================
# criterion 8: per-sub-space training and the slicing ablation grid
# ===================================================================

def test_criterion_08_dynamic_channel_ablation(env):
    t0 = time.time()
    failures = []
    config = env["config"]
    index = env["index"]
    table = env["table"]
    dataset = env["dataset"]
    proto = config.protocol
    metric_cfg = config.metrics
    x_val, y_val = env["x_val"], env["y_val"]

    # per-sub-space supernets with slicing disabled vs one fixed-chunk net
    comparisons = []
    wins = 0
    for s in (0, 1, 2):
        sn_fixed, _ = train_supernet(
            config.space, config.macro, SuperNetConfig(channel_strategy="fixed_chunk"),
            proto, dataset, 2000 + s, index=index,
        )
        rec_fixed = _rank_records([sn_fixed], index.hashes, index, table, x_val, y_val, proto.batch_size)
        kdt_fixed = sparse_kendall_tau(rec_fixed, metric_cfg)

        rec_disabled = []
        for k in range(1, config.space.n_nodes + 1):
            sub_hashes = index.hashes_with_output_degree(k)
            if not sub_hashes:
                continue
            sub_config = SuperNetConfig(
                channel_strategy="disabled", fixed_k=k,
                dynamic_channel_train=False, dynamic_channel_test=False,
            )
            sn_sub, _ = train_supernet(
                config.space, config.macro, sub_config, proto, dataset,
                3000 + 10 * s + k, index=index,
            )
            rec_disabled += _rank_records([sn_sub], list(sub_hashes), index, table, x_val, y_val, proto.batch_size)
        kdt_disabled = sparse_kendall_tau(rec_disabled, metric_cfg)

        wins += kdt_disabled >= kdt_fixed
        comparisons.append(f"seed {s}: disabled {kdt_disabled:.3f} vs fixed {kdt_fixed:.3f}")
    if wins < 2:
        failures.append(f"disabled beat fixed_chunk in only {wins}/3 seeds")

    # the YY / YN / NN toggle grid through the command line
    sweep_dir = env["tmp"] / "sweep"
    rc = main(["sweep", "--config", env["config_path"], "--bench", env["bench_path"], "--out", str(sweep_dir)])
    if rc != 0:
        failures.append(f"sweep exited {rc}")
    grid = {}
    with open(sweep_dir / "sweep.csv", newline="") as f:
        for row in csv.DictReader(f):
            grid[row["variant"]] = float(row["s_kdt"])
            if not (sweep_dir / row["variant"] / "metrics.csv").exists():
                failures.append(f"variant {row['variant']} wrote no metrics")
    if set(grid) != {"YY", "YN", "NN"}:
        failures.append(f"grid variants {sorted(grid)}")
    elif not (grid["NN"] > grid["YY"] and grid["NN"] > grid["YN"]):
        failures.append(f"NN not best: {grid}")

    elapsed = time.time() - t0
    budget = elapsed + env["table_seconds"]
    ok = not failures and budget < 2700.0
    line = _report(
        8, "dynamic channeling", ok,
        f"{'; '.join(comparisons)}; grid s-KdT "
        f"{', '.join(f'{v} {grid.get(v, math.nan):.3f}' for v in ('YY', 'YN', 'NN'))} "
        f"({elapsed:.0f}s + {env['table_seconds']:.0f}s shared table / 2700s budget)",
    )
    assert ok, line + "; " + "; ".join(failures[:5])


# ===================================================================
# criterion 9: shipped preset beats its own permutation null
# ===================================================================

def test_criterion_09_preset_end_to_end(env):
    t0 = time.time()
    failures = []
    run_dir = env["tmp"] / "run-a"
    rc = main(["run", "--config", env["config_path"], "--bench", env["bench_path"],
               "--out", str(run_dir), "--seed", "0"])
    if rc != 0:
        failures.append(f"run exited {rc}")

    with open(run_dir / "metrics.csv", newline="") as f:
        report = next(csv.DictReader(f))
    s_kdt, final = float(report["s_kdt"]), float(report["final_performance"])
    with open(run_dir / "ranks.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    records = [
        EvalRecord(r["arch_hash"], float(r["gt_accuracy"]), (float(r["supernet_mean"]),))
        for r in rows
    ]
    metric_cfg = env["config"].metrics
    recomputed = sparse_kendall_tau(records, metric_cfg)
    if abs(recomputed - s_kdt) > 1e-12:
        failures.append(f"artifacts disagree: ranks.csv gives {recomputed} vs metrics.csv {s_kdt}")

    # permutation null: shuffle the super-net column, keep the ground truth
    null_rng = np.random.default_rng(7)
    means = np.asarray([r.supernet_mean for r in records])
    null = []
    for _ in range(1000):
        perm = null_rng.permutation(means.size)
        shuffled = [
            EvalRecord(rec.arch_hash, rec.gt_accuracy, (float(means[perm[i]]),))
            for i, rec in enumerate(records)
        ]
        null.append(sparse_kendall_tau(shuffled, metric_cfg))
    null95 = float(np.percentile(null, 95))
    if not s_kdt > null95:
        failures.append(f"s-KdT {s_kdt:.3f} not above null95 {null95:.3f}")

    median_gt = float(np.median([env["table"].gt_mean(h) for h in env["table"].hashes()]))
    if not final >= median_gt:
        failures.append(f"final {final:.3f} below median gt {median_gt:.3f}")

    elapsed = time.time() - t0
    budget = elapsed + env["table_seconds"]
    ok = not failures and budget < 1800.0
    line = _report(
        9, "preset end to end", ok,
        f"s-KdT {s_kdt:.3f} > null95 {null95:.3f}, final {final:.3f} "
        f">= median gt {median_gt:.3f} ({elapsed:.0f}s + {env['table_seconds']:.0f}s shared table / 1800s budget)",
    )
    assert ok, line + "; " + "; ".join(failures[:5])


# ===================================================================
# criterion 10: persistence identities and byte-stable reruns
# ===================================================================

def test_criterion_10_persistence(env):
    t0 = time.time()
    failures = []
    tmp = env["tmp"]

    # benchmark table: save -> load -> save is byte-stable and lossless
    p1, p2 = tmp / "table-a.jsonl", tmp / "table-b.jsonl"
    save_table(env["table"], p1)
    loaded = load_table(p1)
    save_table(loaded, p2)
    if p1.read_bytes() != p2.read_bytes():
        failures.append("table bytes unstable across save/load/save")
    if loaded.entries != env["table"].entries or loaded.digest != env["table"].digest:
        failures.append("table entries or digest changed through the round trip")

    # checkpoint: bitwise array identity plus header round trip
    sn = build_supernet(SearchSpaceSpec(), MacroParams(), SuperNetConfig(), seed=31, bn_track=True)
    c1, c2 = tmp / "net-a.ckpt", tmp / "net-b.ckpt"
    header = checkpoint_header(sn)
    save_checkpoint(sn.store, c1, header=header)
    restored, header_back = load_checkpoint(c1)
    if header_back != header:
        failures.append("checkpoint header changed")
    if restored.keys() != sn.store.keys():
        failures.append("checkpoint key order changed")
    else:
        for k in sn.store.keys():
            a, b = sn.store.get(k), restored.get(k)
            if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                failures.append(f"checkpoint array {k} not bitwise identical")
                break
    save_checkpoint(restored, c2, header=header_back)
    if c1.read_bytes() != c2.read_bytes():
        failures.append("checkpoint bytes unstable across save/load/save")

    # identical config + seed => byte-identical experiment artifacts
    out_a, out_b = tmp / "rerun-a", tmp / "rerun-b"
    for out in (out_a, out_b):
        rc = main(["run", "--config", env["config_path"], "--bench", env["bench_path"],
                   "--out", str(out), "--seed", "0"])
        if rc != 0:
            failures.append(f"rerun into {out.name} exited {rc}")
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    if files_a != files_b:
        failures.append("rerun produced different file sets")
    else:
        diff = [str(rel) for rel in files_a if (out_a / rel).read_bytes() != (out_b / rel).read_bytes()]
        if diff:
            failures.append(f"rerun artifacts differ: {diff[:3]}")

    elapsed = time.time() - t0
    ok = not failures and elapsed < 60.0
    line = _report(
        10, "persistence", ok,
        f"table and checkpoint round trips bitwise, {len(files_a)} rerun artifacts byte-identical "
        f"({elapsed:.0f}s / 60s budget)",
    )
    assert ok, line + "; " + "; ".join(failures[:5])
