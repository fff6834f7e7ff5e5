"""Reference computations written apart from wsnaslab.

Nothing here imports the package: every oracle recomputes a quantity from
its definition (pair counting, midranks, permutations of intermediate
nodes, closed-form parameter counts, exact rational means) so a benchmark
run can check the program's outputs against it. `self_test` runs each
oracle on a small case whose answer is worked out by hand.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

# ------------------------------------------------------- rank correlation


def kendall_tau_b(a, b) -> float | None:
    """Kendall tau-b by counting every pair; None when a side is all tied."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.size
    concordant = discordant = tied_a = tied_b = 0
    for i in range(n - 1):
        da = np.sign(a[i + 1 :] - a[i])
        db = np.sign(b[i + 1 :] - b[i])
        prod = da * db
        concordant += int((prod > 0).sum())
        discordant += int((prod < 0).sum())
        tied_a += int((da == 0).sum())
        tied_b += int((db == 0).sum())
    pairs = n * (n - 1) // 2
    denom = (pairs - tied_a) * (pairs - tied_b)
    if denom == 0:
        return None
    return (concordant - discordant) / math.sqrt(denom)


def midranks(values) -> np.ndarray:
    """1-based ranks, ascending, tied values sharing the mean of their ranks."""
    v = np.asarray(values, dtype=np.float64)
    order = sorted(range(v.size), key=lambda i: v[i])
    ranks = np.empty(v.size, dtype=np.float64)
    start = 0
    while start < len(order):
        stop = start
        while stop + 1 < len(order) and v[order[stop + 1]] == v[order[start]]:
            stop += 1
        for pos in range(start, stop + 1):
            ranks[order[pos]] = (start + stop) / 2.0 + 1.0
        start = stop + 1
    return ranks


def spearman(a, b) -> float | None:
    """Pearson correlation of midranks; None when a side is constant."""
    ra = midranks(a)
    rb = midranks(b)
    ra = ra - ra.mean()
    rb = rb - rb.mean()
    denom = math.sqrt(float((ra * ra).sum()) * float((rb * rb).sum()))
    if denom == 0.0:
        return None
    return float((ra * rb).sum()) / denom


def round_to(values, precision: float) -> list[float]:
    """Nearest multiple of `precision` (ties to even), 0 leaves values as they are."""
    if precision == 0:
        return [float(v) for v in values]
    return [round(float(v) / precision) * precision for v in values]


def threshold_ranks(values, threshold: float) -> list[int]:
    """Rank 1 = best group. Walking values from the largest down, a value
    opens a new group unless it equals the group's first value or lies
    less than `threshold` below it."""
    order = sorted(range(len(values)), key=lambda i: -values[i])
    ranks = [0] * len(values)
    rank = 0
    anchor = None
    for i in order:
        v = values[i]
        if anchor is None or not (v == anchor or anchor - v < threshold):
            rank += 1
            anchor = v
        ranks[i] = rank
    return ranks


def rank_metrics(supernet, gt, rounding: float, threshold: float) -> dict:
    """kdt, s_kdt, spr and s_spr of paired super-net and ground-truth accuracies."""
    s_sn = [-r for r in threshold_ranks(list(supernet), threshold)]
    s_gt = [-r for r in threshold_ranks(round_to(gt, rounding), threshold)]
    return {
        "kdt": kendall_tau_b(supernet, gt),
        "s_kdt": kendall_tau_b(s_sn, s_gt),
        "spr": spearman(supernet, gt),
        "s_spr": spearman(s_sn, s_gt),
    }


def p_surpass(r: int, r_max: int, n: int) -> float:
    """Chance that the best of n uniform draws ranks at or below r (from the worst)."""
    return float(1 - (1 - Fraction(r, r_max)) ** n)


def top_k_mean(rows: list[tuple[str, float, float]], k: int) -> float:
    """Mean ground truth of the k best rows by super-net score (ties by hash).

    rows are (arch_hash, gt_accuracy, supernet_score)."""
    chosen = sorted(rows, key=lambda r: (-r[2], r[0]))[:k]
    return math.fsum(r[1] for r in chosen) / k


def ranks_from_worst(means: dict[str, Fraction]) -> dict[str, int]:
    """1 = worst mean, ties broken by hash."""
    ordered = sorted(means, key=lambda h: (means[h], h))
    return {h: i + 1 for i, h in enumerate(ordered)}


def exact_mean(values) -> Fraction:
    """Mean of floats in exact rational arithmetic."""
    values = list(values)
    return sum((Fraction(v) for v in values), Fraction(0)) / len(values)


def is_fold_multiple(acc: float, fold: int) -> bool:
    """True when acc is k / fold for a whole k in 0..fold."""
    scaled = acc * fold
    return 0.0 <= acc <= 1.0 and abs(scaled - round(scaled)) < 1e-6


# ------------------------------------------------------------ search space


def _possible_edges(n: int) -> list[tuple[int, int]]:
    out = n + 1
    return [(i, j) for i in range(out + 1) for j in range(i + 1, out + 1) if (i, j) != (0, out)]


def _on_every_path(n: int, edges) -> bool:
    """Every intermediate node is reachable from the input and reaches the output."""
    out = n + 1
    reach = {0}
    for i, j in sorted(edges):
        if i in reach:
            reach.add(j)
    coreach = {out}
    for i, j in sorted(edges, reverse=True):
        if j in coreach:
            coreach.add(i)
    return all(v in reach and v in coreach for v in range(1, out))


def raw_node_encodings(n: int, n_ops: int):
    """Every valid (edges, ops) pair of an n-node DAG cell with ops on nodes."""
    cand = _possible_edges(n)
    for mask in range(1 << len(cand)):
        edges = tuple(e for b, e in enumerate(cand) if mask >> b & 1)
        if _on_every_path(n, edges):
            for ops in itertools.product(range(n_ops), repeat=n):
                yield edges, ops


def iso_key(n: int, edges, ops) -> tuple:
    """Smallest relabelling over all permutations of the intermediate nodes."""
    best = None
    for perm in itertools.permutations(range(1, n + 1)):
        relabel = {0: 0, n + 1: n + 1}
        relabel.update({old: new for old, new in zip(range(1, n + 1), perm)})
        new_edges = tuple(sorted((relabel[i], relabel[j]) for i, j in edges))
        new_ops = [0] * n
        for old in range(1, n + 1):
            new_ops[relabel[old] - 1] = ops[old - 1]
        key = (new_edges, tuple(new_ops))
        if best is None or key < best:
            best = key
    return best


def iso_classes(n: int, n_ops: int) -> tuple[int, dict[tuple, int]]:
    """(raw count, isomorphism class key -> class size)."""
    raw = 0
    sizes: dict[tuple, int] = {}
    for edges, ops in raw_node_encodings(n, n_ops):
        raw += 1
        key = iso_key(n, edges, ops)
        sizes[key] = sizes.get(key, 0) + 1
    return raw, sizes


def output_in_degree(n: int, edges) -> int:
    return sum(1 for _, j in edges if j == n + 1)


def has_channel_fault(n: int, edges, init_channels: int) -> bool:
    """A node with more inputs than the cell's intermediate width.

    Concat merges give each of j inputs floor(W / j) channels; when j > W
    that share is empty, and the program's one-channel floor then makes
    the concat wider than W, which cannot be padded down."""
    width = max(1, init_channels // output_in_degree(n, edges))
    return any(sum(1 for _, j in edges if j == v) > width for v in range(1, n + 1))


def param_count(op_names, k: int, channels: int, in_channels: int, num_classes: int, num_layers: int) -> int:
    """Scalars a stand-alone node-op network of the concat space trains.

    Stem 3x3 conv and its batch norm, then per stack one conv (+ batch-norm
    scale and shift) for each parametric node at width floor(C / k), then
    the linear classifier."""
    width = max(1, channels // k)
    per_op = {"conv3x3": 9 * width * width + 2 * width, "conv1x1": width * width + 2 * width, "avgpool3x3": 0}
    stem = 9 * channels * in_channels + 2 * channels
    classifier = channels * num_classes + num_classes
    return stem + num_layers * sum(per_op[op] for op in op_names) + classifier


# ------------------------------------------------------------ known answers


def self_test() -> list[str]:
    """Run every oracle on cases answered by hand; returns the mismatches."""
    bad = []

    def expect(name, got, want, tol=1e-12):
        if got is None or want is None:
            ok = got is want
        elif isinstance(want, float):
            ok = abs(got - want) <= tol
        else:
            ok = got == want
        if not ok:
            bad.append(f"oracle self-test {name}: got {got!r}, want {want!r}")

    # one swapped pair of four: 5 concordant, 1 discordant
    expect("kendall", kendall_tau_b([1, 2, 3, 4], [1, 3, 2, 4]), 4 / 6)
    # a ties one pair: (2 - 0) / sqrt((3 - 1) * 3)
    expect("kendall ties", kendall_tau_b([1, 1, 2], [1, 2, 3]), 2 / math.sqrt(6))
    expect("kendall constant", kendall_tau_b([1, 1, 1], [1, 2, 3]), None)
    # 1 - 6 * sum(d^2) / (n (n^2 - 1)) with d^2 summing to 2
    expect("spearman", spearman([1, 2, 3, 4], [1, 3, 2, 4]), 0.8)
    # midranks (1.5, 1.5, 3) against (1, 2, 3): covariance 1.5 / sqrt(1.5 * 2)
    expect("spearman ties", spearman([1, 1, 2], [1, 2, 3]), 1.5 / math.sqrt(3.0))
    expect("midranks", list(midranks([5, 1, 5, 3])), [3.5, 1.0, 3.5, 2.0])
    # anchor grouping: 0.9 and 0.85 join 0.9's group; 0.8 is 0.1 below the anchor
    expect("threshold ranks", threshold_ranks([0.9, 0.85, 0.8, 0.2], 0.06), [1, 1, 2, 3])
    expect("p_surpass", p_surpass(3, 4, 2), 1 - (1 / 4) ** 2)
    expect("top-k mean", top_k_mean([("a", 0.5, 0.1), ("b", 0.7, 0.9), ("c", 0.3, 0.9)], 2), 0.5)
    expect("ranks from worst", ranks_from_worst({"a": Fraction(1, 2), "b": Fraction(7, 10), "c": Fraction(1, 2)}),
           {"a": 1, "c": 2, "b": 3})
    expect("fold multiple", (is_fold_multiple(7 / 45, 45), is_fold_multiple(0.5, 45)), (True, False))
    # one intermediate node: its two edges are forced, three ops, no symmetry
    raw, classes = iso_classes(1, 3)
    expect("iso n=1", (raw, len(classes)), (3, 3))
    # swapping the two parallel nodes maps one labelling onto the other
    parallel = ((0, 1), (0, 2), (1, 3), (2, 3))
    expect("iso parallel", iso_key(2, parallel, (0, 1)) == iso_key(2, parallel, (1, 0)), True)
    chain = ((0, 1), (1, 2), (2, 3))
    expect("iso chain", iso_key(2, chain, (0, 1)) == iso_key(2, chain, (1, 0)), False)
    # stem 72 + bn 16, two stacks of conv1x1 (16 + 8) and conv3x3 (144 + 8) at width 4, classifier 27
    expect("param count", param_count(("conv1x1", "conv3x3"), 2, 8, 1, 3, 2), 467)
    expect("param count pool", param_count(("avgpool3x3", "avgpool3x3"), 1, 8, 1, 3, 2), 115)
    fault = ((0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    expect("channel fault", (has_channel_fault(3, fault, 8), has_channel_fault(3, fault[:3] + fault[4:], 8)),
           (True, False))
    return bad
