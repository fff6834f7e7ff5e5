"""Architecture samplers for single-path super-net training.

random_nas draws uniformly over valid raw encodings by rejection: every
possible edge gets a state drawn uniformly over {absent} + ops (edge
placement) or a presence bit (node placement, ops drawn per node), which
makes every raw encoding equally likely before the validity filter.

random_a draws uniformly over unique architectures (canonical hashes) via
the enumeration index, removing encoding multiplicity bias.

fairnas samples one valid skeleton uniformly, then draws an independent
permutation of all o ops per active site; its step plan is the o
architectures where pass j assigns perm[site][j] everywhere, so each site
sees every op exactly once per plan.

`Sampler.step` is what one training step trains: the fairnas plan, or a
one-architecture plan holding a single draw of the other samplers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .searchspace import (
    CellEncoding,
    EnumerationIndex,
    SearchSpaceSpec,
    canonical_hash,
    is_valid,
    skeleton_probe,
)

SAMPLER_KINDS = ("random_nas", "random_a", "fairnas")
REJECTION_BUDGET = 10_000  # draws per sample before a RuntimeError; read at call time


def _accept(spec: SearchSpaceSpec, enc: CellEncoding, k_filter: int | None) -> bool:
    if not is_valid(spec, enc):
        return False
    return k_filter is None or enc.output_in_degree() == k_filter


def sample_random_nas(
    spec: SearchSpaceSpec,
    rng: np.random.Generator,
    k_filter: int | None = None,
) -> CellEncoding:
    """Uniform draw over valid raw encodings (rejection sampling)."""
    candidates = spec.candidate_edges()
    o = spec.num_ops
    for _ in range(REJECTION_BUDGET):
        if spec.op_placement == "node":
            present = rng.integers(0, 2, size=len(candidates))
            edges = tuple(e for e, p in zip(candidates, present) if p)
            ops = tuple(int(v) for v in rng.integers(0, o, size=spec.n_nodes))
        else:
            states = rng.integers(0, o + 1, size=len(candidates))
            edges = tuple(e for e, s in zip(candidates, states) if s > 0)
            ops = tuple(int(s - 1) for s in states if s > 0)
        enc = CellEncoding(spec.n_nodes, edges, ops)
        if _accept(spec, enc, k_filter):
            return enc
    raise RuntimeError(f"rejection budget of {REJECTION_BUDGET} exhausted sampling {spec.space_id}")


def sample_random_a(
    index: EnumerationIndex,
    rng: np.random.Generator,
    k_filter: int | None = None,
) -> CellEncoding:
    """Uniform draw over unique architectures via the dedup index."""
    hashes = index.hashes_with_output_degree(k_filter)
    if not hashes:
        raise ValueError("no architectures match the sub-space filter")
    return index.representatives[hashes[int(rng.integers(0, len(hashes)))]]


def sample_skeleton(
    spec: SearchSpaceSpec,
    rng: np.random.Generator,
    k_filter: int | None = None,
) -> tuple[tuple[int, int], ...]:
    """Uniform draw over valid skeletons (edge sets)."""
    candidates = spec.candidate_edges()
    for _ in range(REJECTION_BUDGET):
        present = rng.integers(0, 2, size=len(candidates))
        edges = tuple(e for e, p in zip(candidates, present) if p)
        if _accept(spec, skeleton_probe(spec, edges), k_filter):
            return edges
    raise RuntimeError(f"rejection budget of {REJECTION_BUDGET} exhausted sampling skeletons of {spec.space_id}")


def fairnas_plan(
    spec: SearchSpaceSpec,
    rng: np.random.Generator,
    k_filter: int | None = None,
) -> tuple[CellEncoding, ...]:
    """Sample a skeleton and one op permutation per active site; pass j of
    the plan gives every site the j-th op of its permutation."""
    skeleton = sample_skeleton(spec, rng, k_filter=k_filter)
    n_sites = spec.op_slots(skeleton)
    perms = [rng.permutation(spec.num_ops).tolist() for _ in range(n_sites)]
    return tuple(CellEncoding(spec.n_nodes, skeleton, ops) for ops in zip(*perms))


@dataclass
class Sampler:
    """Uniform front end over the three sampler kinds."""

    kind: str
    spec: SearchSpaceSpec
    index: EnumerationIndex | None = None
    k_filter: int | None = None

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}; known: {SAMPLER_KINDS}")
        if self.kind == "random_a" and self.index is None:
            raise ValueError("random_a needs an enumeration index")

    def draw(self, rng: np.random.Generator) -> CellEncoding:
        if self.kind == "random_nas":
            return sample_random_nas(self.spec, rng, k_filter=self.k_filter)
        if self.kind == "random_a":
            return sample_random_a(self.index, rng, k_filter=self.k_filter)
        raise ValueError("fairnas draws plans, not single encodings")

    def plan(self, rng: np.random.Generator) -> tuple[CellEncoding, ...]:
        if self.kind != "fairnas":
            raise ValueError(f"{self.kind} has no step plans")
        return fairnas_plan(self.spec, rng, k_filter=self.k_filter)

    def step(self, rng: np.random.Generator) -> tuple[CellEncoding, ...]:
        """The architectures one training step trains: a plan, or one draw."""
        return self.plan(rng) if self.kind == "fairnas" else (self.draw(rng),)


def sampling_histogram(
    sampler: Sampler,
    draws: int,
    seed: int,
) -> dict[str, int]:
    """Visit counts per canonical hash over `draws` sampler invocations.

    A fairnas invocation visits every architecture of its plan (o per plan);
    the other samplers visit one architecture per draw.
    """
    from .nncore import named_rng

    if draws < 1:
        raise ValueError("draws must be positive")
    rng = named_rng(seed, "histogram", sampler.kind, sampler.k_filter)
    return dict(Counter(canonical_hash(sampler.spec, enc) for _ in range(draws) for enc in sampler.step(rng)))
