"""Ground-truth benchmark tables: ranks, persistence, parallel builds."""

from __future__ import annotations

import json

import numpy as np
import pytest

from wsnaslab.bench import (
    BenchmarkEntry,
    BenchmarkTable,
    build_micro_benchmark,
    derive_job_seed,
    load_table,
    protocol_digest,
    save_table,
)
from wsnaslab.data import SyntheticDatasetSpec
from wsnaslab.protocol import ProtocolConfig
from wsnaslab.searchspace import CellEncoding, SearchSpaceSpec, enumerate_space
from wsnaslab.supernet import MacroParams

TINY = SearchSpaceSpec(n_nodes=1, ops=("conv3x3", "conv1x1"))
MACRO = MacroParams(init_channels=4, num_layers=1, num_classes=3, in_channels=1)
ENC = CellEncoding(1, ((0, 1), (1, 2)), (0,))


def entry(h, seed, val, test, params=100):
    return BenchmarkEntry(h, ENC, seed, val, test, params)


def synthetic_table(rows) -> BenchmarkTable:
    """rows: {hash: [(seed, val, test), ...]}"""
    entries = [entry(h, s, v, t) for h, runs in rows.items() for s, v, t in runs]
    return BenchmarkTable(TINY, MACRO, "f" * 16, entries, {"note": "synthetic"})


FOUR = synthetic_table({
    "aa": [(0, 0.9, 0.90), (1, 0.9, 0.92)],
    "bb": [(0, 0.8, 0.80), (1, 0.8, 0.84)],
    "cc": [(0, 0.7, 0.70), (1, 0.7, 0.70)],
    "dd": [(0, 0.6, 0.60), (1, 0.6, 0.62)],
})


# -------------------------------------------------------------- job seeds

def test_derive_job_seed_is_stable_and_distinct():
    s = derive_job_seed(0, "aa", 0)
    assert s == derive_job_seed(0, "aa", 0)
    assert 0 <= s < 2**31
    others = {
        derive_job_seed(0, "aa", 1),
        derive_job_seed(0, "ab", 0),
        derive_job_seed(1, "aa", 0),
    }
    assert s not in others and len(others) == 3


def test_protocol_digest_tracks_every_input():
    p = ProtocolConfig()
    d = SyntheticDatasetSpec()
    base = protocol_digest(p, d, 0, (0, 1, 2))
    assert len(base) == 16
    assert base == protocol_digest(p, d, 0, (0, 1, 2))
    assert base != protocol_digest(ProtocolConfig(epochs=21), d, 0, (0, 1, 2))
    assert base != protocol_digest(p, SyntheticDatasetSpec(noise=0.4), 0, (0, 1, 2))
    assert base != protocol_digest(p, d, 1, (0, 1, 2))
    assert base != protocol_digest(p, d, 0, (0, 1))


# ------------------------------------------------------------- accessors

def test_table_means_and_spreads():
    t = FOUR
    assert t.gt_mean("aa") == pytest.approx(0.91)
    assert t.seed_spread("aa") == pytest.approx(0.02)
    assert t.seed_spread("cc") == 0.0
    assert t.max_seed_spread() == pytest.approx(0.04)  # bb
    assert t.hashes() == ["aa", "bb", "cc", "dd"]
    assert t.r_max == 4
    with pytest.raises(KeyError):
        t.entries_for("zz")


def test_entries_sort_on_construction():
    scrambled = BenchmarkTable(
        TINY, MACRO, "0" * 16,
        [entry("bb", 1, 0.1, 0.1), entry("aa", 1, 0.2, 0.2), entry("aa", 0, 0.3, 0.3)],
        {},
    )
    assert [(e.arch_hash, e.seed) for e in scrambled.entries] == [
        ("aa", 0), ("aa", 1), ("bb", 1)
    ]


# ------------------------------------------------------------------ ranks

def test_gt_rank_zero_threshold_is_a_bijection_from_the_worst():
    t = FOUR
    assert t.gt_rank("dd") == 1
    assert t.gt_rank("cc") == 2
    assert t.gt_rank("bb") == 3
    assert t.gt_rank("aa") == 4  # best architecture gets r_max


def test_gt_rank_breaks_exact_ties_by_hash():
    t = synthetic_table({
        "aa": [(0, 0.5, 0.8)],
        "bb": [(0, 0.5, 0.8)],
        "cc": [(0, 0.5, 0.6)],
    })
    ranks = {h: t.gt_rank(h) for h in t.hashes()}
    assert sorted(ranks.values()) == [1, 2, 3]
    assert ranks["cc"] == 1
    assert ranks["aa"] == 2 and ranks["bb"] == 3  # hash order within the tie


def test_gt_rank_matches_a_brute_force_sort_on_a_large_table():
    """The cached worst-first map equals a fresh sort for every hash."""
    rng = np.random.default_rng(0)
    # accuracies on a coarse grid, so exact ties and near ties both occur
    rows = {f"h{i:04d}": [(s, 0.5, float(rng.integers(300, 700)) / 1000) for s in range(3)]
            for i in range(1234)}
    t = synthetic_table(rows)
    means = {h: float(np.mean([test for _, _, test in runs])) for h, runs in rows.items()}
    by_mean = sorted(means, key=lambda h: (means[h], h))
    for h in means:
        assert t.gt_rank(h) == by_mean.index(h) + 1
    with pytest.raises(KeyError):
        t.gt_rank("absent")


def test_the_rank_map_is_built_with_the_table(monkeypatch):
    """gt_mean runs once per architecture at construction and never from
    gt_rank, so a count of gt_mean calls does not depend on rank queries."""
    calls = []
    real = BenchmarkTable.gt_mean
    monkeypatch.setattr(BenchmarkTable, "gt_mean", lambda self, h: calls.append(h) or real(self, h))
    t = synthetic_table({"aa": [(0, 0.5, 0.8)], "bb": [(0, 0.5, 0.6)]})
    assert sorted(calls) == ["aa", "bb"]
    assert [t.gt_rank(h) for h in ("aa", "bb", "aa")] == [2, 1, 2]
    assert len(calls) == 2


# ------------------------------------------------------------ persistence

def test_save_load_round_trip_is_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_table(FOUR, p1)
    loaded = load_table(p1)
    assert loaded.spec == FOUR.spec
    assert loaded.macro == FOUR.macro
    assert loaded.digest == FOUR.digest
    assert loaded.entries == FOUR.entries
    assert loaded.meta == FOUR.meta
    save_table(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "t.jsonl"

    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_table(path)

    path.write_text("{not json\n")
    with pytest.raises(ValueError, match=r":1: bad header"):
        load_table(path)

    path.write_text('{"format_version": 1}\n')
    with pytest.raises(ValueError, match=r":1: header missing keys"):
        load_table(path)

    save_table(FOUR, path)
    lines = path.read_text().splitlines()

    header = json.loads(lines[0])
    header["format_version"] = 99
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match=r":1: unsupported format_version"):
        load_table(path)

    header = json.loads(lines[0])
    header["space_id"] = "some-other-space"
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match=r":1: space_id"):
        load_table(path)

    broken = lines[:2] + ["{oops"] + lines[3:]
    path.write_text("\n".join(broken) + "\n")
    with pytest.raises(ValueError, match=r":3: bad entry"):
        load_table(path)

    bad_entry = dict(json.loads(lines[1]))
    bad_entry["surprise"] = 1
    path.write_text("\n".join([lines[0], json.dumps(bad_entry)]) + "\n")
    with pytest.raises(ValueError, match=r":2: bad entry: unknown entry keys"):
        load_table(path)

    for key, value, kind in (("seed", "0", "int"), ("val_accuracy", True, "float"), ("param_count", 100.0, "int")):
        bad_entry = dict(json.loads(lines[1]), **{key: value})
        path.write_text("\n".join([lines[0], json.dumps(bad_entry)]) + "\n")
        with pytest.raises(ValueError, match=rf":2: bad entry: entry.{key} must be {kind}"):
            load_table(path)

    twin = dict(json.loads(lines[1]), test_accuracy=1.0)
    path.write_text("\n".join(lines[:2] + [json.dumps(twin)] + lines[2:]) + "\n")
    with pytest.raises(ValueError, match=rf":3: duplicate entry for architecture {twin['arch_hash']} seed {twin['seed']}"):
        load_table(path)

    path.write_text(lines[0] + "\n")
    with pytest.raises(ValueError, match="no entries"):
        load_table(path)


def test_loader_skips_blank_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    save_table(FOUR, path)
    padded = path.read_text().replace("\n", "\n\n", 1)
    path.write_text(padded)
    assert load_table(path).entries == FOUR.entries


# ------------------------------------------------------------------ build

def test_build_micro_benchmark_serial_matches_parallel(tmp_path):
    pconfig = ProtocolConfig(epochs=1, batch_size=8)
    dspec = SyntheticDatasetSpec(samples_per_class=12, image_size=6)
    index = enumerate_space(TINY)
    assert index.unique_count == 2

    serial = build_micro_benchmark(TINY, MACRO, pconfig, dspec, base_seed=0,
                                   run_seeds=(0, 1), jobs=1, index=index)
    parallel = build_micro_benchmark(TINY, MACRO, pconfig, dspec, base_seed=0,
                                     run_seeds=(0, 1), jobs=2, index=index)

    p1, p2 = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
    save_table(serial, p1)
    save_table(parallel, p2)
    assert p1.read_bytes() == p2.read_bytes()

    assert len(serial.entries) == 4
    assert serial.meta["run_seeds"] == [0, 1]
    assert serial.meta["multiplicity"] == {h: 1 for h in index.hashes}
    assert serial.meta["max_seed_spread"] == serial.max_seed_spread()
    for h in index.hashes:
        for e in serial.entries_for(h):
            assert e.encoding == index.representatives[h]
            assert 0.0 <= e.test_accuracy <= 1.0
            assert e.param_count > 0

    with pytest.raises(ValueError):
        build_micro_benchmark(TINY, MACRO, pconfig, dspec, base_seed=0, run_seeds=())
