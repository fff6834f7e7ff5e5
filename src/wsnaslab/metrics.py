"""Ranking metrics between super-net predictions and ground truth.

Sparse variants address near-tie noise: ground-truth accuracies are rounded
to a precision, then records whose accuracy differs from their group's first
(best) member by less than a threshold share a rank. Grouping walks the
descending sort and cuts at the group anchor, so a chain of small gaps does
not merge distant values. The same threshold grouping applies to both sides
of a sparse correlation; with threshold and rounding 0 the sparse metrics
degrade exactly to their plain forms.

Both correlations repeat scipy.stats' arithmetic, so they match
`kendalltau(variant="b")` and `spearmanr` bit for bit:

    tau-b = (P - Q) / sqrt(n0 - T) / sqrt(n0 - U), clamped to [-1, 1]
    rho   = Pearson correlation of the average ranks

where n0 = n(n - 1)/2 counts all pairs, P and Q the concordant and
discordant pairs, and T and U the pairs tied in the first and in the second
vector. P - Q = n0 - T - U + J - 2Q, with J the pairs tied in both. An
average rank gives each member of a tie group its first 1-based position
plus (group size - 1)/2. A NaN on either side, or a side whose values are
all tied, leaves both correlations undefined (None).

Rank convention: rank 1 is the highest accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .files import write_csv
from .record import Record


@dataclass(frozen=True)
class MetricConfig(Record, label="metrics"):
    sparse_threshold: float = 0.001   # accuracy units (fractions by default)
    gt_rounding: float = 0.001
    top_k: int = 3
    num_eval_archs: int = 200
    eval_warning_floor: int = 150

    def __post_init__(self):
        if self.sparse_threshold < 0 or self.gt_rounding < 0:
            raise ValueError("threshold and rounding must be non-negative")
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")
        if self.num_eval_archs < 1:
            raise ValueError("num_eval_archs must be positive")


@dataclass(frozen=True)
class EvalRecord:
    """One architecture's ground truth and per-seed super-net accuracies."""

    arch_hash: str
    gt_accuracy: float
    supernet_accuracies: tuple[float, ...]

    @cached_property
    def supernet_mean(self) -> float:
        return float(np.mean(self.supernet_accuracies))


def round_accuracies(values, precision: float) -> np.ndarray:
    """Round to multiples of `precision` (0 leaves values untouched)."""
    v = np.asarray(values, dtype=np.float64)
    if precision == 0:
        return v
    return np.round(v / precision) * precision


def sparse_ranks(values, threshold: float) -> np.ndarray:
    """Shared ranks for near-tied values, aligned to input order.

    Walk the values in descending order; a value joins the current group
    when  (anchor - value) < threshold  or it equals the anchor exactly,
    where the anchor is the group's first (largest) member. Rank 1 is the
    best group. threshold=0 gives dense ranking of distinct values.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("sparse_ranks needs a non-empty 1-d array")
    order = np.argsort(-v, kind="stable")
    ranks = np.empty(v.size, dtype=np.int64)
    rank = 0
    anchor = None
    for idx in order:
        if anchor is None or not (v[idx] == anchor or anchor - v[idx] < threshold):
            rank += 1
            anchor = v[idx]
        ranks[idx] = rank
    return ranks


def _clean_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"paired vectors with equal length required, got {a.shape} and {b.shape}")
    if a.size < 2:
        raise ValueError("rank correlation needs at least two records")
    return a, b


def _undefined(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.isnan(a).any() or np.isnan(b).any() or np.all(a == a[0]) or np.all(b == b[0]))


def _dense_ranks(v: np.ndarray) -> np.ndarray:
    """0-based ranks of the distinct values of v."""
    return np.unique(v, return_inverse=True)[1]


def _tied_pairs(keys: np.ndarray) -> int:
    """Number of position pairs with equal keys."""
    counts = np.unique(keys, return_counts=True)[1]
    return int((counts * (counts - 1) // 2).sum())


def _inversions(y: np.ndarray) -> int:
    """Pairs i < j with y[i] > y[j], for 0-based dense ranks y (Fenwick tree)."""
    size = int(y.max()) + 1
    tree = [0] * (size + 1)  # tree[k] counts the ranks seen in (k - lowbit(k), k]
    count = 0
    for seen, v in enumerate(y.tolist()):
        k, at_most = v + 1, 0
        while k:
            at_most += tree[k]
            k -= k & -k
        count += seen - at_most
        k = v + 1
        while k <= size:
            tree[k] += 1
            k += k & -k
    return count


def kendall_tau(a, b) -> float | None:
    """Tie-corrected Kendall tau-b; None when undefined (see module docstring)."""
    a, b = _clean_pair(a, b)
    if _undefined(a, b):
        return None
    x, y = _dense_ranks(a), _dense_ranks(b)
    # sorted by x, then y: y ascends within each x group, so the
    # inversions of y are exactly the discordant pairs
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    pairs = a.size * (a.size - 1) // 2
    x_ties, y_ties = _tied_pairs(x), _tied_pairs(y)
    joint_ties = _tied_pairs(x * (int(y.max()) + 1) + y)
    con_minus_dis = pairs - x_ties - y_ties + joint_ties - 2 * _inversions(y)
    tau = con_minus_dis / np.sqrt(pairs - x_ties) / np.sqrt(pairs - y_ties)
    return float(min(1.0, max(-1.0, tau)))


def _average_ranks(v: np.ndarray) -> np.ndarray:
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    first = np.cumsum(counts) - counts
    return (first + 1 + (counts - 1) / 2)[inverse]


def spearman_rho(a, b) -> float | None:
    """Spearman correlation with average-rank ties; None when undefined."""
    a, b = _clean_pair(a, b)
    if _undefined(a, b):
        return None
    return float(np.corrcoef(_average_ranks(a), _average_ranks(b))[1, 0])


def _sides(records: list[EvalRecord], config: MetricConfig, sparse: bool) -> tuple[np.ndarray, np.ndarray]:
    sn = np.asarray([r.supernet_mean for r in records], dtype=np.float64)
    gt = np.asarray([r.gt_accuracy for r in records], dtype=np.float64)
    if not sparse:
        return sn, gt
    gt_rounded = round_accuracies(gt, config.gt_rounding)
    # negate: sparse_ranks puts 1 at the best, correlations want "larger is better"
    return (
        -sparse_ranks(sn, config.sparse_threshold).astype(np.float64),
        -sparse_ranks(gt_rounded, config.sparse_threshold).astype(np.float64),
    )


def sparse_kendall_tau(records: list[EvalRecord], config: MetricConfig) -> float | None:
    sn, gt = _sides(records, config, sparse=True)
    return kendall_tau(sn, gt)


def plain_kendall_tau(records: list[EvalRecord], config: MetricConfig) -> float | None:
    sn, gt = _sides(records, config, sparse=False)
    return kendall_tau(sn, gt)


def sparse_spearman(records: list[EvalRecord], config: MetricConfig) -> float | None:
    sn, gt = _sides(records, config, sparse=True)
    return spearman_rho(sn, gt)


def plain_spearman(records: list[EvalRecord], config: MetricConfig) -> float | None:
    sn, gt = _sides(records, config, sparse=False)
    return spearman_rho(sn, gt)


def prob_surpass_random(r: int, r_max: int, n: int) -> float:
    """P(best of n uniform draws ranks above r), r counted from the worst.

    r = r_max is the best architecture; p = 1 - (1 - r / r_max)^n.
    """
    if r_max <= 0:
        raise ValueError("r_max must be positive")
    if not 0 <= r <= r_max:
        raise ValueError(f"rank {r} outside 0..{r_max}")
    if n < 1:
        raise ValueError("n must be at least 1")
    return 1.0 - (1.0 - r / r_max) ** n


def supernet_accuracy(records: list[EvalRecord]) -> float:
    if not records:
        raise ValueError("no records")
    return float(np.mean([r.supernet_mean for r in records]))


def final_performance(records: list[EvalRecord], top_k: int) -> float:
    """Mean ground truth of the top-k by super-net accuracy (ties by hash)."""
    if top_k < 1 or top_k > len(records):
        raise ValueError(f"top_k {top_k} outside 1..{len(records)}")
    chosen = sorted(records, key=lambda r: (-r.supernet_mean, r.arch_hash))[:top_k]
    return float(np.mean([r.gt_accuracy for r in chosen]))


def ordinal_ranks(records: list[EvalRecord], key) -> dict[str, int]:
    """Dense 1..N ranks, descending by key, ties broken by hash."""
    ordered = sorted(records, key=lambda r: (-key(r), r.arch_hash))
    return {r.arch_hash: i + 1 for i, r in enumerate(ordered)}


# ----------------------------------------------------------------- report

NA = "NA"


@dataclass
class MetricsReport:
    kdt: float | None = None
    s_kdt: float | None = None
    spr: float | None = None
    s_spr: float | None = None
    p_surpass_random: float | None = None
    supernet_accuracy: float | None = None
    final_performance: float | None = None

    def as_row(self) -> list[str]:
        return [NA if getattr(self, f) is None else repr(float(getattr(self, f))) for f in REPORT_FIELDS]

    def save_csv(self, path: str | Path) -> None:
        write_csv(path, [REPORT_FIELDS, self.as_row()])


REPORT_FIELDS = tuple(f.name for f in fields(MetricsReport))


def compute_report(
    records: list[EvalRecord],
    config: MetricConfig,
    surpass: tuple[int, int, int] | None = None,
) -> MetricsReport:
    """All seven metric fields from evaluation records.

    surpass = (r, r_max, n) feeds p_surpass_random; None leaves it NA.
    Correlations on fewer than two records are NA.
    """
    report = MetricsReport()
    if records:
        report.supernet_accuracy = supernet_accuracy(records)
        if len(records) >= config.top_k:
            report.final_performance = final_performance(records, config.top_k)
    if len(records) >= 2:
        report.kdt = plain_kendall_tau(records, config)
        report.s_kdt = sparse_kendall_tau(records, config)
        report.spr = plain_spearman(records, config)
        report.s_spr = sparse_spearman(records, config)
    if surpass is not None:
        report.p_surpass_random = prob_surpass_random(*surpass)
    return report

