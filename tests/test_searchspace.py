"""Cell encoding, validation, canonical hashing, enumeration."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from importlib import resources

import pytest

from wsnaslab.config import load_config
from wsnaslab.searchspace import (
    CellEncoding,
    SearchSpaceSpec,
    canonical_hash,
    enumerate_space,
    is_valid,
    validate_encoding,
)

MICRO = SearchSpaceSpec()
TINY = SearchSpaceSpec(n_nodes=1, ops=("conv3x3", "conv1x1"))
EDGE2 = SearchSpaceSpec(
    n_nodes=2, ops=("conv3x3", "conv1x1"), op_placement="edge",
    merge_rule="sum", channel_mode="fixed",
)


# ------------------------------------------------------------- oracle

def brute_force_isomorphic(spec: SearchSpaceSpec, a: CellEncoding, b: CellEncoding) -> bool:
    """Ground truth equivalence: try every intermediate-node bijection.

    A bijection fixes the input and output nodes and must map the edge set
    and the op labelling of one encoding exactly onto the other.
    """
    n = spec.n_nodes
    out = spec.output_node
    if len(a.edges) != len(b.edges):
        return False

    def relabel(v: int, perm: tuple[int, ...]) -> int:
        return perm[v - 1] if 1 <= v <= n else v

    b_edges = set(b.edges)
    for perm in itertools.permutations(range(1, n + 1)):
        # edges are directed; a mapped edge must land in b exactly as (u, v)
        mapped = {(relabel(u, perm), relabel(v, perm)) for u, v in a.edges}
        if mapped != b_edges:
            continue
        if spec.op_placement == "node":
            ok = all(a.ops[v - 1] == b.ops[perm[v - 1] - 1] for v in range(1, n + 1))
        else:
            ok = all(
                a.edge_op((u, v)) == b.edge_op((relabel(u, perm), relabel(v, perm)))
                for u, v in a.edges
            )
        if ok:
            return True
    return False


def all_valid_raw(spec: SearchSpaceSpec) -> list[CellEncoding]:
    index = enumerate_space(spec)
    # regenerate the raw stream: every valid encoding, not just representatives
    raw = []
    possible = spec.possible_edges() if spec.topology_mode == "dag" else spec.chain_edges()
    for mask in range(1 << len(possible)):
        edges = tuple(e for i, e in enumerate(possible) if mask >> i & 1)
        n_sites = spec.n_nodes if spec.op_placement == "node" else len(edges)
        for ops in itertools.product(range(spec.num_ops), repeat=n_sites):
            enc = CellEncoding(spec.n_nodes, edges, ops)
            if is_valid(spec, enc):
                raw.append(enc)
    assert len(raw) == index.raw_count
    return raw


@pytest.mark.parametrize("spec", [TINY, MICRO, EDGE2], ids=lambda s: s.space_id)
def test_canonical_hash_agrees_with_brute_force(spec):
    """Hash equality must coincide with permutation isomorphism, pairwise."""
    raw = all_valid_raw(spec)
    assert len(raw) <= 200
    hashes = [canonical_hash(spec, e) for e in raw]
    for i in range(len(raw)):
        for j in range(i + 1, len(raw)):
            iso = brute_force_isomorphic(spec, raw[i], raw[j])
            assert iso == (hashes[i] == hashes[j]), (
                f"hash disagrees with brute force for {raw[i]} vs {raw[j]}"
            )


def test_chain_space_brute_force():
    spec = SearchSpaceSpec(n_nodes=2, ops=("conv3x3", "conv1x1"), topology_mode="chain")
    raw = all_valid_raw(spec)
    hashes = [canonical_hash(spec, e) for e in raw]
    for i in range(len(raw)):
        for j in range(i + 1, len(raw)):
            assert brute_force_isomorphic(spec, raw[i], raw[j]) == (hashes[i] == hashes[j])


# -------------------------------------------------------------- spec

def test_possible_edges_exclude_direct_input_output():
    edges = MICRO.possible_edges()
    assert len(edges) == 5
    assert (0, MICRO.output_node) not in edges
    assert all(i < j for i, j in edges)


def test_spec_pairing_rules():
    with pytest.raises(ValueError):
        SearchSpaceSpec(merge_rule="concat", channel_mode="fixed")
    with pytest.raises(ValueError):
        SearchSpaceSpec(merge_rule="sum", channel_mode="dynamic")
    with pytest.raises(ValueError):
        SearchSpaceSpec(op_placement="edge", merge_rule="concat", channel_mode="dynamic")


def test_spec_rejects_unknown_op_and_duplicates():
    with pytest.raises(ValueError):
        SearchSpaceSpec(ops=("conv3x3", "conv9x9"))
    with pytest.raises(ValueError):
        SearchSpaceSpec(ops=("conv3x3", "conv3x3"))


def test_spec_dict_round_trip():
    for spec in (MICRO, TINY, EDGE2, dataclasses.replace(MICRO, topology_mode="chain")):
        assert SearchSpaceSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ValueError):
        SearchSpaceSpec.from_dict({**MICRO.to_dict(), "bogus": 1})


# -------------------------------------------------------- validation

def test_validation_reason_codes():
    out = MICRO.output_node
    chain = ((0, 1), (1, 2), (2, 3))

    enc = CellEncoding(2, chain + ((0, out),), (0, 0))
    assert "forbidden_edge" in validate_encoding(MICRO, enc)

    enc = CellEncoding(2, chain, (0, 99))
    assert validate_encoding(MICRO, enc) == ["bad_op"]

    enc = CellEncoding(2, chain, (0,))
    assert validate_encoding(MICRO, enc) == ["bad_op"]

    cspec = dataclasses.replace(MICRO, topology_mode="chain")
    enc = CellEncoding(2, ((0, 1), (1, 3), (2, 3), (0, 2)), (0, 0))
    assert "chain_violation" in validate_encoding(cspec, enc)

    # node 2 has no outgoing edge: off every input->output path
    enc = CellEncoding(2, ((0, 1), (1, 3), (0, 2)), (0, 0))
    assert validate_encoding(MICRO, enc) == ["dangling"]

    # node 2 unreachable from the input
    enc = CellEncoding(2, ((0, 1), (1, 3), (2, 3)), (0, 0))
    assert validate_encoding(MICRO, enc) == ["dangling"]

    enc = CellEncoding(3, ((0, 1), (1, 4)), (0, 0, 0))
    assert validate_encoding(MICRO, enc) == ["bad_shape"]

    enc = CellEncoding(2, chain, (0, 1))
    assert validate_encoding(MICRO, enc) == []
    assert is_valid(MICRO, enc)


def reachability_reasons(spec: SearchSpaceSpec, enc: CellEncoding) -> list[str]:
    """Reference validator: "dangling" by a breadth-first search from the
    input and a backward one from the output, the other codes as specified."""
    out = spec.output_node
    reasons = []
    if (0, out) in enc.edges:
        reasons.append("forbidden_edge")
    if len(enc.ops) != spec.op_slots(enc.edges) or any(not 0 <= o < spec.num_ops for o in enc.ops):
        reasons.append("bad_op")
    if spec.topology_mode == "chain" and not set(enc.edges) <= set(spec.chain_edges()):
        reasons.append("chain_violation")

    def reached(start: int, step: dict[int, list[int]]) -> set[int]:
        seen, frontier = {start}, [start]
        while frontier:
            for w in step[frontier.pop()]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return seen

    fwd = reached(0, {v: [j for i, j in enc.edges if i == v] for v in range(out + 1)})
    bwd = reached(out, {v: [i for i, j in enc.edges if j == v] for v in range(out + 1)})
    if any(v not in fwd or v not in bwd for v in range(1, out)):
        reasons.append("dangling")
    return reasons


@pytest.mark.parametrize("placement, topology", [
    ("node", "dag"), ("node", "chain"), ("edge", "dag"), ("edge", "chain"),
])
def test_dangling_rule_matches_path_reachability_on_every_edge_set(placement, topology):
    """Every subset of the upper triangle, the input->output edge included."""
    pairing = {"node": ("concat", "dynamic"), "edge": ("sum", "fixed")}[placement]
    checked = 0
    for n in range(1, 5):
        spec = SearchSpaceSpec(n_nodes=n, ops=("conv3x3", "conv1x1"), op_placement=placement,
                               merge_rule=pairing[0], channel_mode=pairing[1], topology_mode=topology)
        triangle = [(i, j) for j in range(n + 2) for i in range(j)]
        for mask in range(1 << len(triangle)):
            edges = tuple(e for b, e in enumerate(triangle) if mask >> b & 1)
            enc = CellEncoding(n, edges, (0,) * spec.op_slots(edges))
            assert validate_encoding(spec, enc) == reachability_reasons(spec, enc), enc
            checked += 1
    assert checked == 8 + 64 + 1024 + 32768  # 33,864 edge sets per space kind


def test_edge_placement_op_count_follows_edges():
    enc = CellEncoding(2, ((0, 1), (1, 2), (2, 3)), (0, 1, 0))
    assert is_valid(EDGE2, enc)
    short = CellEncoding(2, ((0, 1), (1, 2), (2, 3)), (0, 1))
    assert "bad_op" in validate_encoding(EDGE2, short)


def test_encoding_rejects_malformed_edges():
    with pytest.raises(ValueError):
        CellEncoding(2, ((1, 1),), (0, 0))
    with pytest.raises(ValueError):
        CellEncoding(2, ((2, 1),), (0, 0))
    with pytest.raises(ValueError):
        CellEncoding(2, ((0, 1), (0, 1)), (0, 0))
    with pytest.raises(ValueError):
        CellEncoding(2, ((0, 9),), (0, 0))


def test_encoding_dict_round_trip():
    enc = CellEncoding(2, ((0, 2), (0, 1), (1, 3), (2, 3)), (2, 0))
    assert CellEncoding.from_dict(enc.to_dict()) == enc
    with pytest.raises(ValueError):
        CellEncoding.from_dict({"nodes": 2, "edges": [], "ops": [], "extra": 1})


# ------------------------------------------------------------ hashing

def test_hash_invariant_under_node_swap():
    parallel = ((0, 1), (0, 2), (1, 3), (2, 3))
    a = CellEncoding(2, parallel, (0, 1))
    b = CellEncoding(2, parallel, (1, 0))
    assert canonical_hash(MICRO, a) == canonical_hash(MICRO, b)
    c = CellEncoding(2, parallel, (0, 2))
    assert canonical_hash(MICRO, a) != canonical_hash(MICRO, c)


def test_hash_distinguishes_op_rotation_on_chain():
    chain = ((0, 1), (1, 2), (2, 3))
    a = CellEncoding(2, chain, (0, 1))
    b = CellEncoding(2, chain, (1, 0))
    assert canonical_hash(MICRO, a) != canonical_hash(MICRO, b)


def test_hash_format_and_stability():
    enc = CellEncoding(2, ((0, 1), (1, 2), (2, 3)), (0, 1))
    h = canonical_hash(MICRO, enc)
    assert len(h) == 16
    assert set(h) <= set("0123456789abcdef")
    assert canonical_hash(MICRO, enc) == h


def _frozen_mix(*parts: int) -> int:
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(int(p & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")


def _frozen_canonical_hash(spec: SearchSpaceSpec, enc: CellEncoding) -> str:
    """canonical_hash as first written: one blake2b update per word, edge
    lists rescanned per node and every edge end mixed on its own."""
    assert not validate_encoding(spec, enc)
    out = spec.output_node
    nodes = range(out + 1)

    def node_op(v):
        return enc.ops[v - 1] if spec.op_placement == "node" and 1 <= v <= spec.n_nodes else 0xFFFF

    def edge_op(e):
        return enc.edge_op(e) if spec.op_placement == "edge" else 0xFFFF

    role = {0: 0x1D, out: 0x3F}
    h = [_frozen_mix(role.get(v, 0x2E), node_op(v)) for v in nodes]
    for _ in range(out + 1):
        nxt = []
        for v in nodes:
            ins = sorted(_frozen_mix(h[u], edge_op((u, v))) for u, _ in enc.in_edges(v))
            outs = sorted(_frozen_mix(h[w], edge_op((v, w))) for _, w in enc.out_edges(v))
            nxt.append(_frozen_mix(h[v], len(ins), *ins, 0x5E, len(outs), *outs))
        h = nxt
    return format(_frozen_mix(len(h), *sorted(h)), "016x")


@pytest.mark.parametrize("spec", [
    SearchSpaceSpec(n_nodes=1), MICRO, SearchSpaceSpec(n_nodes=3),
    load_config(resources.files("wsnaslab") / "presets" / "edge-sum-fixed.json").space,
], ids=lambda s: s.space_id)
def test_canonical_hash_matches_its_frozen_first_form(spec):
    """Every raw encoding keeps its hash, so shipped tables stay valid."""
    for enc in all_valid_raw(spec):
        assert canonical_hash(spec, enc) == _frozen_canonical_hash(spec, enc), enc


def test_hash_rejects_invalid_encoding():
    with pytest.raises(ValueError):
        canonical_hash(MICRO, CellEncoding(2, ((0, 1), (1, 3), (0, 2)), (0, 0)))


# -------------------------------------------------------- enumeration

def test_micro_space_counts():
    index = enumerate_space(MICRO)
    assert index.raw_count == 45
    assert index.unique_count == 42
    doubles = [h for h, m in index.multiplicity.items() if m == 2]
    assert len(doubles) == 3
    assert all(m in (1, 2) for m in index.multiplicity.values())
    assert sum(index.multiplicity.values()) == 45


def test_tiny_space_counts():
    index = enumerate_space(TINY)
    assert index.raw_count == 2
    assert index.unique_count == 2


def test_chain_space_counts():
    spec = SearchSpaceSpec(n_nodes=3, ops=("conv3x3", "conv1x1", "avgpool3x3"), topology_mode="chain")
    index = enumerate_space(spec)
    assert index.raw_count == 27
    assert index.unique_count == 27


def test_edge_space_counts():
    index = enumerate_space(EDGE2)
    assert index.raw_count == 88
    assert index.unique_count == 82


def test_representative_is_minimal_and_valid():
    index = enumerate_space(MICRO)
    for h, enc in index.representatives.items():
        assert canonical_hash(MICRO, enc) == h
        assert is_valid(MICRO, enc)
    assert index.hashes == sorted(index.hashes)


def test_enumeration_guard_trips():
    big = SearchSpaceSpec(n_nodes=11, ops=("conv3x3", "conv1x1", "avgpool3x3"), topology_mode="chain")
    with pytest.raises(ValueError):
        enumerate_space(big)


# ---------------------------------------------------------- sub-spaces

def test_partition_micro():
    """Sub-spaces k = 1..n of the micro space have the known sizes and
    partition the space."""
    index = enumerate_space(MICRO)
    subs = {k: index.hashes_with_output_degree(k) for k in (1, 2)}
    assert {k: len(h) for k, h in subs.items()} == {1: 18, 2: 24}
    union = set()
    for hashes in subs.values():
        assert not union & set(hashes)
        union.update(hashes)
    assert union == set(index.hashes)


def test_partition_matches_output_in_degree():
    """Sub-space k holds the architectures whose output in-degree is k, in
    hash order."""
    for n_nodes in (1, 2, 3):
        spec = SearchSpaceSpec(n_nodes=n_nodes)
        index = enumerate_space(spec)
        by_k = {k: index.hashes_with_output_degree(k) for k in range(1, n_nodes + 1)}
        assert [h for k in sorted(by_k) for h in by_k[k]] == sorted(
            index.hashes, key=lambda h: (index.representatives[h].output_in_degree(), h))
        for k, hashes in by_k.items():
            for h in hashes:
                assert index.representatives[h].output_in_degree() == k
        assert index.hashes_with_output_degree(None) == tuple(index.hashes)
        assert index.hashes_with_output_degree(n_nodes + 1) == ()
