"""Rank correlation metrics, sparse-rank grouping, report persistence."""

from __future__ import annotations

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from wsnaslab.metrics import (
    NA,
    REPORT_FIELDS,
    EvalRecord,
    MetricConfig,
    MetricsReport,
    compute_report,
    final_performance,
    kendall_tau,
    ordinal_ranks,
    plain_kendall_tau,
    plain_spearman,
    prob_surpass_random,
    round_accuracies,
    sparse_kendall_tau,
    sparse_ranks,
    sparse_spearman,
    spearman_rho,
    supernet_accuracy,
)
from wsnaslab.nncore import named_rng


# --------------------------------------------------------------- oracles

def oracle_kendall_tau_b(a, b) -> float:
    """Direct pair counting with tie corrections, O(N^2)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = len(a)
    concordant = discordant = ties_a = ties_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            da, db = a[i] - a[j], b[i] - b[j]
            if da == 0 and db == 0:
                continue
            if da == 0:
                ties_a += 1
            elif db == 0:
                ties_b += 1
            elif da * db > 0:
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) // 2

    def tie_term(v):
        _, counts = np.unique(v, return_counts=True)
        return int(sum(c * (c - 1) // 2 for c in counts))

    denom = math.sqrt((n0 - tie_term(a)) * (n0 - tie_term(b)))
    return (concordant - discordant) / denom


def average_ranks(v) -> np.ndarray:
    """Midranks: tied values share the mean of their positions."""
    v = np.asarray(v, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v), dtype=np.float64)
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def oracle_spearman(a, b) -> float:
    ra, rb = average_ranks(a), average_ranks(b)
    ra = ra - ra.mean()
    rb = rb - rb.mean()
    return float((ra * rb).sum() / math.sqrt((ra**2).sum() * (rb**2).sum()))


def random_tied_vectors(rng, n):
    """Vectors with deliberate tie mass (values drawn from a small grid)."""
    a = rng.integers(0, max(2, n // 2), size=n).astype(np.float64)
    b = a + rng.integers(-2, 3, size=n)
    return a, b / 2.0


def test_kendall_tau_matches_pair_counting_oracle():
    rng = named_rng(0, "tau-oracle")
    for trial in range(60):
        n = int(rng.integers(3, 25))
        a, b = random_tied_vectors(rng, n)
        got = kendall_tau(a, b)
        if np.all(a == a[0]) or np.all(b == b[0]):
            assert got is None
        else:
            assert got == pytest.approx(oracle_kendall_tau_b(a, b), abs=1e-12)


def test_spearman_matches_midrank_oracle():
    rng = named_rng(1, "rho-oracle")
    for trial in range(60):
        n = int(rng.integers(3, 25))
        a, b = random_tied_vectors(rng, n)
        got = spearman_rho(a, b)
        if np.all(a == a[0]) or np.all(b == b[0]):
            assert got is None
        else:
            assert got == pytest.approx(oracle_spearman(a, b), abs=1e-12)


def _bits(value) -> bytes | None:
    """float64 bytes of a correlation; None for undefined (None or NaN)."""
    return None if value is None or np.isnan(value) else np.float64(value).tobytes()


def test_rank_correlations_match_scipy_bit_for_bit():
    """kendall_tau and spearman_rho repeat scipy's arithmetic exactly."""
    rng = named_rng(3, "scipy-bits")

    def draw(kind, n):
        if kind == "continuous":
            return rng.normal(size=n), rng.normal(size=n)
        if kind == "heavy ties":
            return rng.integers(0, 4, n).astype(np.float64), rng.integers(0, 3, n).astype(np.float64)
        if kind == "k/45 vs rounded gt":
            return rng.integers(0, 46, n) / 45, round_accuracies(rng.uniform(0.3, 0.9, n), 0.001)
        # the sparse sides: negated group ranks
        a = round_accuracies(rng.uniform(0.3, 0.9, n), 0.001)
        b = a + rng.normal(0, 0.01, n)
        return -sparse_ranks(b, 0.005).astype(np.float64), -sparse_ranks(a, 0.005).astype(np.float64)

    kinds = ("continuous", "heavy ties", "k/45 vs rounded gt", "negated sparse ranks")
    sizes = [int(n) for n in rng.integers(2, 300, 150)] + [1234, 1500]
    checked = 0
    for kind in kinds:
        for n in sizes:
            a, b = draw(kind, n)
            tau, rho = kendall_tau(a, b), spearman_rho(a, b)
            if np.all(a == a[0]) or np.all(b == b[0]):
                assert tau is None and rho is None
                continue
            assert _bits(tau) == _bits(stats.kendalltau(a, b, variant="b").statistic), (kind, n)
            assert _bits(rho) == _bits(stats.spearmanr(a, b).statistic), (kind, n)
            checked += 1
    assert checked > 500

    # NaN on either side is undefined, as scipy's NaN is
    for a, b in (([0.1, np.nan, 0.3], [1.0, 2.0, 3.0]), ([0.1, 0.2, 0.3], [1.0, 2.0, np.nan])):
        assert np.isnan(stats.kendalltau(a, b, variant="b").statistic)
        assert kendall_tau(a, b) is None and spearman_rho(a, b) is None
    assert kendall_tau([0.5, 0.5, 0.5], [1, 2, 3]) is None
    assert spearman_rho([1, 2, 3], [0.5, 0.5, 0.5]) is None
    # 3 / sqrt(3) / sqrt(3) rounds above 1: both clamp it
    assert 3 / np.sqrt(3) / np.sqrt(3) > 1.0
    assert kendall_tau([1, 2, 3], [1, 2, 3]) == 1.0 == stats.kendalltau([1, 2, 3], [1, 2, 3]).statistic
    assert kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0 == stats.kendalltau([1, 2, 3], [3, 2, 1]).statistic


def test_importing_the_cli_loads_no_scipy():
    """scipy is a test-only oracle; the runtime is numpy-only."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, wsnaslab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_kendall_tau_frozen_values():
    assert kendall_tau([1, 2, 3, 4], [1, 2, 4, 3]) == pytest.approx(2.0 / 3.0)
    assert kendall_tau([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    assert kendall_tau([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert kendall_tau([1, 1, 1], [1, 2, 3]) is None


# ------------------------------------------------------------ sparse ranks

def test_sparse_ranks_threshold_groups_near_ties():
    ranks = sparse_ranks([93.10, 93.05, 92.00], 0.1)
    assert ranks.tolist() == [1, 1, 2]


def test_sparse_ranks_cut_is_anchored_at_group_best():
    # 90.09 joins 90.18's group; 90.0 is 0.18 from the anchor and starts
    # a new group even though it is only 0.09 from its neighbor
    ranks = sparse_ranks([90.0, 90.09, 90.18], 0.1)
    assert ranks.tolist() == [2, 1, 1]


def test_sparse_ranks_threshold_zero_is_dense():
    assert sparse_ranks([3.0, 1.0, 2.0, 1.0], 0.0).tolist() == [1, 3, 2, 3]
    assert sparse_ranks([5.0], 0.0).tolist() == [1]


def test_sparse_ranks_exact_ties_always_share():
    assert sparse_ranks([1.0, 1.0, 1.0], 0.0).tolist() == [1, 1, 1]


def test_sparse_ranks_rejects_bad_input():
    with pytest.raises(ValueError):
        sparse_ranks([], 0.1)
    with pytest.raises(ValueError):
        sparse_ranks([[1.0, 2.0]], 0.1)


def test_round_accuracies():
    np.testing.assert_allclose(round_accuracies([0.1234, 0.1236], 0.001), [0.123, 0.124])
    np.testing.assert_allclose(round_accuracies([0.1234], 0.0), [0.1234])


# ------------------------------------------------------- sparse variants

def rec(h, gt, sn):
    return EvalRecord(h, gt, tuple(np.atleast_1d(sn).tolist()))


def test_sparse_kdt_ignores_swaps_inside_a_group():
    """Architectures near-tied on both sides share a group at threshold
    0.001; flipping their order inside the group must not cost correlation."""
    config = MetricConfig(sparse_threshold=0.001, gt_rounding=0.0)
    records = [
        rec("a", 0.9000, 0.7000),
        rec("b", 0.9005, 0.6995),   # swapped against gt inside the group
        rec("c", 0.8000, 0.5000),
        rec("d", 0.7000, 0.4000),
    ]
    assert plain_kendall_tau(records, config) < 1.0
    assert plain_spearman(records, config) < 1.0
    assert sparse_kendall_tau(records, config) == pytest.approx(1.0)
    assert sparse_spearman(records, config) == pytest.approx(1.0)


def test_sparse_grouping_applies_to_both_sides():
    """Near-tied super-net scores collapse into one group too."""
    config = MetricConfig(sparse_threshold=0.01, gt_rounding=0.0)
    records = [
        rec("a", 0.95, 0.700),
        rec("b", 0.90, 0.699),   # near-tie on the super-net side only
        rec("c", 0.80, 0.500),
    ]
    sn_ranks = sparse_ranks([0.700, 0.699, 0.500], 0.01)
    assert sn_ranks.tolist() == [1, 1, 2]
    # the sparse tau compares the grouped super-net side against three
    # distinct gt ranks; tau-b accounts for the injected tie mass
    tau = sparse_kendall_tau(records, config)
    assert tau == pytest.approx(oracle_kendall_tau_b([-1, -1, -2], [-1, -2, -3]))


def test_sparse_metrics_degrade_to_plain_at_zero():
    config = MetricConfig(sparse_threshold=0.0, gt_rounding=0.0)
    rng = named_rng(2, "degrade")
    for trial in range(25):
        n = int(rng.integers(3, 30))
        gt = rng.integers(0, 10, size=n) / 10.0
        sn = rng.integers(0, 10, size=n) / 10.0
        records = [rec(f"h{i}", gt[i], sn[i]) for i in range(n)]
        plain_t = plain_kendall_tau(records, config)
        sparse_t = sparse_kendall_tau(records, config)
        plain_s = plain_spearman(records, config)
        sparse_s = sparse_spearman(records, config)
        if plain_t is None:
            assert sparse_t is None
        else:
            assert sparse_t == pytest.approx(plain_t, abs=1e-12)
        if plain_s is None:
            assert sparse_s is None
        else:
            assert sparse_s == pytest.approx(plain_s, abs=1e-12)


def test_gt_rounding_feeds_the_sparse_side():
    config = MetricConfig(sparse_threshold=0.0, gt_rounding=0.01)
    records = [rec("a", 0.911, 0.7), rec("b", 0.909, 0.7), rec("c", 0.80, 0.5)]
    # 0.911 and 0.909 both round to 0.91, matching the exact super-net
    # tie, so the sparse correlation is perfect while the plain one
    # sees a gt gap the super-net does not reproduce
    assert sparse_kendall_tau(records, config) == pytest.approx(1.0)
    assert plain_kendall_tau(records, config) < 1.0


# ------------------------------------------------------------- p-surpass

def test_prob_surpass_random_formula():
    assert prob_surpass_random(100, 100, 1) == pytest.approx(1.0)
    assert prob_surpass_random(95, 100, 1) == pytest.approx(0.95)
    assert prob_surpass_random(95, 100, 2) == pytest.approx(1.0 - 0.05**2)
    assert prob_surpass_random(50, 100, 3) == pytest.approx(1.0 - 0.5**3)
    assert prob_surpass_random(0, 100, 5) == pytest.approx(0.0)


def test_prob_surpass_random_validation():
    with pytest.raises(ValueError):
        prob_surpass_random(5, 0, 1)
    with pytest.raises(ValueError):
        prob_surpass_random(101, 100, 1)
    with pytest.raises(ValueError):
        prob_surpass_random(5, 100, 0)


# --------------------------------------------------------- aggregation

def test_supernet_accuracy_is_grand_mean():
    records = [rec("a", 0.9, (0.5, 0.7)), rec("b", 0.8, (0.1, 0.3))]
    assert supernet_accuracy(records) == pytest.approx((0.6 + 0.2) / 2)


def test_final_performance_top_k_with_hash_ties():
    records = [
        rec("bb", 0.70, 0.9),
        rec("aa", 0.80, 0.9),   # same super-net mean, earlier hash
        rec("cc", 0.95, 0.5),
    ]
    assert final_performance(records, 1) == pytest.approx(0.80)
    assert final_performance(records, 2) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        final_performance(records, 4)


def test_ordinal_ranks_and_disorder():
    records = [rec("a", 0.9, 0.3), rec("b", 0.8, 0.5), rec("c", 0.7, 0.4)]
    gt = ordinal_ranks(records, lambda r: r.gt_accuracy)
    assert gt == {"a": 1, "b": 2, "c": 3}
    sn = ordinal_ranks(records, lambda r: r.supernet_mean)
    triples = [(h, gt[h], sn[h]) for h in sorted(gt)]
    assert triples == [("a", 1, 3), ("b", 2, 1), ("c", 3, 2)]


# ---------------------------------------------------------------- report

def full_records(n=12, seed=5):
    rng = named_rng(seed, "records")
    out = []
    for i in range(n):
        gt = float(rng.uniform(0.5, 1.0))
        sn = tuple(float(gt + rng.normal(0, 0.05)) for _ in range(3))
        out.append(EvalRecord(f"h{i:02d}", gt, sn))
    return out


def test_compute_report_fields_populated():
    records = full_records()
    config = MetricConfig()
    report = compute_report(records, config, surpass=(40, 42, 3))
    assert report.kdt is not None
    assert report.s_kdt is not None
    assert report.spr is not None
    assert report.s_spr is not None
    assert report.p_surpass_random == pytest.approx(prob_surpass_random(40, 42, 3))
    assert report.supernet_accuracy == pytest.approx(supernet_accuracy(records))
    assert report.final_performance == pytest.approx(final_performance(records, config.top_k))


def test_compute_report_is_unchanged_on_1234_tied_records():
    """Every field, byte for byte, against scipy on means taken per use."""
    rng = named_rng(6, "report-1234")
    gt = round_accuracies(rng.uniform(0.3, 0.9, 1234), 0.001)
    acc = rng.integers(0, 46, (1234, 3)) / 45
    records = [EvalRecord(f"h{i:04d}", float(gt[i]), tuple(acc[i].tolist())) for i in range(1234)]
    config = MetricConfig(top_k=5)
    report = compute_report(records, config, surpass=(40, 42, 3))

    means = np.asarray([float(np.mean(r.supernet_accuracies)) for r in records])
    s_sn = -sparse_ranks(means, config.sparse_threshold).astype(np.float64)
    s_gt = -sparse_ranks(round_accuracies(gt, config.gt_rounding), config.sparse_threshold).astype(np.float64)
    top = sorted(range(len(records)), key=lambda i: (-means[i], records[i].arch_hash))[: config.top_k]
    want = MetricsReport(
        kdt=stats.kendalltau(means, gt, variant="b").statistic,
        s_kdt=stats.kendalltau(s_sn, s_gt, variant="b").statistic,
        spr=stats.spearmanr(means, gt).statistic,
        s_spr=stats.spearmanr(s_sn, s_gt).statistic,
        p_surpass_random=prob_surpass_random(40, 42, 3),
        supernet_accuracy=float(np.mean(means)),
        final_performance=float(np.mean([gt[i] for i in top])),
    )
    assert NA not in want.as_row()
    assert report.as_row() == want.as_row()


def test_compute_report_degenerate_cases():
    report = compute_report([], MetricConfig())
    assert all(getattr(report, f) is None for f in REPORT_FIELDS)
    one = compute_report([rec("a", 0.9, 0.8)], MetricConfig(top_k=1))
    assert one.kdt is None
    assert one.supernet_accuracy == pytest.approx(0.8)
    assert one.final_performance == pytest.approx(0.9)


def test_report_csv_round_trip(tmp_path):
    records = full_records()
    report = compute_report(records, MetricConfig(), surpass=(30, 42, 3))
    path = tmp_path / "metrics.csv"
    report.save_csv(path)
    with open(path, newline="") as f:
        header, row = list(csv.reader(f))
    assert tuple(header) == REPORT_FIELDS
    for f, text in zip(REPORT_FIELDS, row):
        a = getattr(report, f)
        if a is None:
            assert text == NA
        else:
            assert a == float(text)  # repr round-trips floats exactly


def test_report_csv_na_tokens(tmp_path):
    report = compute_report([], MetricConfig())
    path = tmp_path / "empty.csv"
    report.save_csv(path)
    text = path.read_text().splitlines()
    assert text[0] == ",".join(REPORT_FIELDS)
    assert text[1] == ",".join([NA] * len(REPORT_FIELDS))


def test_report_csv_is_deterministic(tmp_path):
    records = full_records()
    r1 = compute_report(records, MetricConfig(), surpass=(30, 42, 3))
    r2 = compute_report(records, MetricConfig(), surpass=(30, 42, 3))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1.save_csv(p1)
    r2.save_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()

