"""Sampler distributions: raw-uniform, hash-uniform, fairness plans."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from wsnaslab import sampling
from wsnaslab.nncore import named_rng
from wsnaslab.sampling import (
    Sampler,
    fairnas_plan,
    sample_random_a,
    sample_random_nas,
    sample_skeleton,
    sampling_histogram,
)
from wsnaslab.searchspace import (
    CellEncoding,
    SearchSpaceSpec,
    canonical_hash,
    enumerate_space,
)

MICRO = SearchSpaceSpec()
EDGE2 = SearchSpaceSpec(
    n_nodes=2, ops=("conv3x3", "conv1x1"), op_placement="edge",
    merge_rule="sum", channel_mode="fixed",
)
INDEX = enumerate_space(MICRO)


def chi_square_uniform(counts: list[int], total: int) -> float:
    """Test statistic against the all-cells-equal hypothesis."""
    expected = total / len(counts)
    return float(sum((c - expected) ** 2 / expected for c in counts))


def chi2_cutoff(cells: int, q: float = 0.9999) -> float:
    return float(stats.chi2.ppf(q, df=cells - 1))


# ------------------------------------------------------------- random_nas

def test_random_nas_uniform_over_raw_encodings():
    """Every valid raw encoding is equally likely, so canonical-hash mass
    is proportional to multiplicity (doubles get twice the visits)."""
    rng = named_rng(0, "raw-uniform")
    draws = 9000
    counts: dict[tuple, int] = {}
    for _ in range(draws):
        enc = sample_random_nas(MICRO, rng)
        counts[enc.sort_key()] = counts.get(enc.sort_key(), 0) + 1
    assert len(counts) == INDEX.raw_count == 45
    chi2 = chi_square_uniform(list(counts.values()), draws)
    assert chi2 < chi2_cutoff(45)


def test_random_nas_hash_mass_tracks_multiplicity():
    rng = named_rng(1, "mult-bias")
    draws = 9000
    counts = {h: 0 for h in INDEX.hashes}
    for _ in range(draws):
        counts[canonical_hash(MICRO, sample_random_nas(MICRO, rng))] += 1
    # against the multiplicity-weighted expectation: consistent
    chi2_mult = sum(
        (counts[h] - draws * INDEX.multiplicity[h] / INDEX.raw_count) ** 2
        / (draws * INDEX.multiplicity[h] / INDEX.raw_count)
        for h in INDEX.hashes
    )
    assert chi2_mult < chi2_cutoff(INDEX.unique_count)
    # against a uniform-over-hashes expectation: visibly biased
    chi2_uniform = chi_square_uniform(list(counts.values()), draws)
    assert chi2_uniform > chi2_cutoff(INDEX.unique_count)


def test_random_nas_edge_space_uniform():
    index = enumerate_space(EDGE2)
    rng = named_rng(2, "edge-uniform")
    draws = 4400
    counts: dict[tuple, int] = {}
    for _ in range(draws):
        enc = sample_random_nas(EDGE2, rng)
        counts[enc.sort_key()] = counts.get(enc.sort_key(), 0) + 1
    assert len(counts) == index.raw_count == 88
    assert chi_square_uniform(list(counts.values()), draws) < chi2_cutoff(88)


def test_random_nas_k_filter(monkeypatch):
    rng = named_rng(3, "kfilter")
    for _ in range(200):
        assert sample_random_nas(MICRO, rng, k_filter=2).output_in_degree() == 2
    monkeypatch.setattr(sampling, "REJECTION_BUDGET", 0)
    with pytest.raises(RuntimeError):
        sample_random_nas(MICRO, rng)


# --------------------------------------------------------------- random_a

def test_random_a_uniform_over_hashes():
    """Dedup sampling removes the multiplicity bias entirely."""
    rng = named_rng(4, "hash-uniform")
    draws = 8400
    counts = {h: 0 for h in INDEX.hashes}
    for _ in range(draws):
        counts[canonical_hash(MICRO, sample_random_a(INDEX, rng))] += 1
    assert chi_square_uniform(list(counts.values()), draws) < chi2_cutoff(42)


@pytest.mark.parametrize("k_filter", [None, 1, 2])
def test_random_a_draws_follow_the_index_order(k_filter):
    """The draw stream is the one of a filter over `index.hashes` in order."""
    hashes = [h for h in INDEX.hashes
              if k_filter is None or INDEX.representatives[h].output_in_degree() == k_filter]
    rng, reference = named_rng(6, "a-stream"), named_rng(6, "a-stream")
    for _ in range(30):
        expected = INDEX.representatives[hashes[int(reference.integers(0, len(hashes)))]]
        assert sample_random_a(INDEX, rng, k_filter=k_filter) == expected


def test_random_a_k_filter_and_errors():
    rng = named_rng(5, "a-kfilter")
    for _ in range(50):
        assert sample_random_a(INDEX, rng, k_filter=1).output_in_degree() == 1
    with pytest.raises(ValueError):
        sample_random_a(INDEX, rng, k_filter=99)


# ---------------------------------------------------------------- fairnas

def test_fairnas_plan_covers_every_op_once_per_site():
    rng = named_rng(6, "fair-cover")
    for _ in range(100):
        plan = fairnas_plan(MICRO, rng)
        assert len(plan) == MICRO.num_ops == 3
        assert all(a.edges == plan[0].edges for a in plan)
        for site in range(MICRO.n_nodes):
            seen = sorted(a.ops[site] for a in plan)
            assert seen == [0, 1, 2]


def test_fairnas_plan_edge_space_sites():
    rng = named_rng(7, "fair-edges")
    plan = fairnas_plan(EDGE2, rng)
    assert len(plan) == 2
    for arch in plan:
        assert arch.edges == plan[0].edges
        assert len(arch.ops) == len(plan[0].edges)
    for site in range(len(plan[0].edges)):
        assert sorted(a.ops[site] for a in plan) == [0, 1]


def test_fairnas_skeleton_marginal_is_uniform():
    rng = named_rng(8, "fair-skeleton")
    draws = 2000
    counts: dict[tuple, int] = {}
    for _ in range(draws):
        sk = sample_skeleton(MICRO, rng)
        counts[sk] = counts.get(sk, 0) + 1
    assert len(counts) == 5  # the valid micro-space skeletons
    assert chi_square_uniform(list(counts.values()), draws) < chi2_cutoff(5)


def test_fairnas_k_filtered_skeletons():
    rng = named_rng(9, "fair-k")
    for _ in range(50):
        plan = fairnas_plan(MICRO, rng, k_filter=2)
        out = MICRO.output_node
        assert all(a.edges == plan[0].edges for a in plan)
        assert sum(1 for _, v in plan[0].edges if v == out) == 2


# ------------------------------------------------------------ front end

def test_sampler_front_end_validation():
    with pytest.raises(ValueError):
        Sampler("nope", MICRO)
    with pytest.raises(ValueError):
        Sampler("random_a", MICRO)  # needs the index
    s = Sampler("fairnas", MICRO)
    with pytest.raises(ValueError):
        s.draw(named_rng(0, "x"))
    r = Sampler("random_nas", MICRO)
    with pytest.raises(ValueError):
        r.plan(named_rng(0, "x"))


def test_sampler_draw_dispatch():
    rng = named_rng(10, "dispatch")
    a = Sampler("random_a", MICRO, index=INDEX).draw(rng)
    b = Sampler("random_nas", MICRO).draw(rng)
    assert isinstance(a, CellEncoding) and isinstance(b, CellEncoding)
    plan = Sampler("fairnas", MICRO).plan(rng)
    assert isinstance(plan, tuple) and all(isinstance(a, CellEncoding) for a in plan)


@pytest.mark.parametrize("kind", ["random_nas", "random_a", "fairnas"])
def test_sampler_step_is_the_plan_or_one_draw(kind):
    """One training step trains the fairnas plan, or one draw of the other
    samplers, from the same rng draws."""
    for k_filter in (None, 1, 2):
        sampler = Sampler(kind, MICRO, index=INDEX, k_filter=k_filter)
        for seed in range(5):
            rng, same = named_rng(seed, "step", kind), named_rng(seed, "step", kind)
            step = sampler.step(rng)
            assert step == (sampler.plan(same) if kind == "fairnas" else (sampler.draw(same),))
            assert rng.bit_generator.state == same.bit_generator.state
            assert len(step) == (MICRO.num_ops if kind == "fairnas" else 1)
            assert all(a.output_in_degree() == k_filter for a in step if k_filter is not None)


# ---------------------------------------------------------- histograms

def test_sampling_histogram_totals_and_determinism():
    h1 = sampling_histogram(Sampler("random_nas", MICRO), draws=300, seed=3)
    h2 = sampling_histogram(Sampler("random_nas", MICRO), draws=300, seed=3)
    assert h1 == h2
    assert sum(h1.values()) == 300
    assert set(h1) <= set(INDEX.hashes)

    fair = sampling_histogram(Sampler("fairnas", MICRO), draws=200, seed=4)
    assert sum(fair.values()) == 200 * MICRO.num_ops

    with pytest.raises(ValueError):
        sampling_histogram(Sampler("random_nas", MICRO), draws=0, seed=0)


def test_sampling_histogram_seeds_differ():
    h1 = sampling_histogram(Sampler("random_a", MICRO, index=INDEX), draws=500, seed=0)
    h2 = sampling_histogram(Sampler("random_a", MICRO, index=INDEX), draws=500, seed=1)
    assert h1 != h2
