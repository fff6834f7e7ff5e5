"""Cell search spaces: encodings, validity, canonical hashes, enumeration.

A cell is a DAG over n + 2 nodes: node 0 is the cell input, node n + 1 the
cell output, nodes 1..n intermediate. Edges are strictly upper-triangular
(acyclicity holds by representation) and the direct input->output edge is
not part of any space. Operations sit either on intermediate nodes
(op_placement="node") or on present edges (op_placement="edge", ops aligned
with the lexicographically sorted edge list).

Two encodings are the same architecture when a permutation of intermediate
nodes maps one onto the other (input/output are pinned). canonical_hash
computes an iterative neighborhood-refinement hash that the test suite
verifies against brute-force permutation isomorphism on every micro space.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
from dataclasses import dataclass, field

from .record import Record

OP_VOCABULARY = ("conv3x3", "conv1x1", "avgpool3x3", "identity", "zero")

RAW_ENUMERATION_GUARD = 100_000
SKELETON_MASK_GUARD = 1 << 20


@dataclass(frozen=True)
class SearchSpaceSpec(Record, label="space"):
    """Static description of a cell search space."""

    n_nodes: int = 2
    ops: tuple[str, ...] = ("conv3x3", "conv1x1", "avgpool3x3")
    op_placement: str = "node"       # "node" | "edge"
    merge_rule: str = "concat"       # "concat" | "sum"
    channel_mode: str = "dynamic"    # "dynamic" | "fixed"
    topology_mode: str = "dag"       # "dag" | "chain"

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if not self.ops:
            raise ValueError("op vocabulary is empty")
        if len(set(self.ops)) != len(self.ops):
            raise ValueError(f"duplicate ops in vocabulary {self.ops}")
        for op in self.ops:
            if op not in OP_VOCABULARY:
                raise ValueError(f"unknown op {op!r}; known: {OP_VOCABULARY}")
        if self.op_placement not in ("node", "edge"):
            raise ValueError(f"op_placement must be node or edge, got {self.op_placement!r}")
        if self.merge_rule not in ("concat", "sum"):
            raise ValueError(f"merge_rule must be concat or sum, got {self.merge_rule!r}")
        if self.channel_mode not in ("dynamic", "fixed"):
            raise ValueError(f"channel_mode must be dynamic or fixed, got {self.channel_mode!r}")
        if self.topology_mode not in ("dag", "chain"):
            raise ValueError(f"topology_mode must be dag or chain, got {self.topology_mode!r}")
        # the output node's channel arithmetic only closes for these pairings
        if self.merge_rule == "concat" and self.channel_mode != "dynamic":
            raise ValueError("concat merge requires dynamic channel_mode")
        if self.merge_rule == "sum" and self.channel_mode != "fixed":
            raise ValueError("sum merge requires fixed channel_mode")
        if self.op_placement == "edge" and self.channel_mode != "fixed":
            raise ValueError("edge op placement requires fixed channel_mode")
        object.__setattr__(self, "ops", tuple(self.ops))

    @property
    def num_ops(self) -> int:
        return len(self.ops)

    @property
    def output_node(self) -> int:
        return self.n_nodes + 1

    @property
    def space_id(self) -> str:
        return "-".join(
            [
                self.op_placement,
                self.merge_rule,
                self.channel_mode,
                self.topology_mode,
                f"n{self.n_nodes}",
                "+".join(self.ops),
            ]
        )

    def possible_edges(self) -> tuple[tuple[int, int], ...]:
        """All representable edges: strict upper triangle minus input->output."""
        out = self.output_node
        return tuple(
            (i, j)
            for i in range(out + 1)
            for j in range(i + 1, out + 1)
            if not (i == 0 and j == out)
        )

    def chain_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, i + 1) for i in range(self.n_nodes + 1))

    def candidate_edges(self) -> tuple[tuple[int, int], ...]:
        """Edges a skeleton of this space may use: the chain, or every possible edge."""
        return self.chain_edges() if self.topology_mode == "chain" else self.possible_edges()

    def op_slots(self, edges: tuple[tuple[int, int], ...]) -> int:
        """Op indices an encoding with these edges carries."""
        return self.n_nodes if self.op_placement == "node" else len(edges)


@dataclass(frozen=True)
class CellEncoding(Record, label="encoding"):
    """One raw architecture encoding.

    edges: sorted tuple of (src, dst) with src < dst.
    ops: one op index per intermediate node (node placement) or one per
    present edge in edge order (edge placement).
    """

    n_nodes: int
    edges: tuple[tuple[int, int], ...]
    ops: tuple[int, ...]

    def __post_init__(self):
        edges = tuple(sorted((int(i), int(j)) for i, j in self.edges))
        for i, j in edges:
            if not (0 <= i < j <= self.n_nodes + 1):
                raise ValueError(f"edge ({i}, {j}) outside the upper triangle of {self.n_nodes + 2} nodes")
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate edges")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "ops", tuple(int(o) for o in self.ops))

    def in_edges(self, v: int) -> list[tuple[int, int]]:
        return [e for e in self.edges if e[1] == v]

    def out_edges(self, v: int) -> list[tuple[int, int]]:
        return [e for e in self.edges if e[0] == v]

    def output_in_degree(self) -> int:
        out = self.n_nodes + 1
        return sum(1 for _, j in self.edges if j == out)

    def edge_op(self, edge: tuple[int, int]) -> int:
        """Op index on an edge (edge placement)."""
        return self.ops[self.edges.index(edge)]

    def sort_key(self) -> tuple:
        return (self.n_nodes, self.edges, self.ops)

    def to_dict(self) -> dict:
        return {"nodes": self.n_nodes, "edges": [list(e) for e in self.edges], "ops": list(self.ops)}

    @classmethod
    def from_dict(cls, d: dict) -> "CellEncoding":
        known = {"nodes", "edges", "ops"}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown encoding keys: {sorted(unknown)}")
        return cls(n_nodes=int(d["nodes"]), edges=tuple(tuple(e) for e in d["edges"]), ops=tuple(d["ops"]))


def skeleton_probe(spec: SearchSpaceSpec, edges: tuple[tuple[int, int], ...]) -> CellEncoding:
    """The edge set with op 0 in every slot: valid exactly when the skeleton is."""
    return CellEncoding(spec.n_nodes, edges, (0,) * spec.op_slots(edges))


# ------------------------------------------------------------- validation

def validate_encoding(spec: SearchSpaceSpec, enc: CellEncoding) -> list[str]:
    """Structured reason codes; an empty list means the encoding is valid.

    Codes: "forbidden_edge" (direct input->output), "bad_op" (wrong op count
    or out-of-vocabulary index), "chain_violation" (non-sequential edge in a
    chain spec), "dangling" (an intermediate node off every input->output
    path). Cycles are unrepresentable.

    "dangling" is a degree test, and it equals path reachability: a node
    without an in-edge or an out-edge is on no path, and when every
    intermediate node has both, a walk back along in-edges strictly
    descends and can only stop at node 0, and a walk forward along
    out-edges strictly ascends and can only stop at the output node.
    """
    reasons: list[str] = []
    out = spec.output_node
    if enc.n_nodes != spec.n_nodes:
        reasons.append("bad_shape")
        return reasons
    if (0, out) in enc.edges:
        reasons.append("forbidden_edge")

    if len(enc.ops) != spec.op_slots(enc.edges) or any(not (0 <= o < spec.num_ops) for o in enc.ops):
        reasons.append("bad_op")

    if spec.topology_mode == "chain":
        chain = set(spec.chain_edges())
        if any(e not in chain for e in enc.edges):
            reasons.append("chain_violation")

    if any(not enc.in_edges(v) or not enc.out_edges(v) for v in range(1, out)):
        reasons.append("dangling")
    return reasons


def is_valid(spec: SearchSpaceSpec, enc: CellEncoding) -> bool:
    return not validate_encoding(spec, enc)


# -------------------------------------------------------- canonical hashing

def _mix(*parts: int) -> int:
    """Endian-fixed 64-bit mixing: blake2b-8 over little-endian u64 words.

    Every part is a hash, an op label or a count, so each fits a u64
    (struct.pack raises otherwise).
    """
    words = struct.pack(f"<{len(parts)}Q", *parts)
    return int.from_bytes(hashlib.blake2b(words, digest_size=8).digest(), "little")


_ROLE_INPUT = 0x1D
_ROLE_MID = 0x2E
_ROLE_OUTPUT = 0x3F
_NO_OP = 0xFFFF


def canonical_hash(spec: SearchSpaceSpec, enc: CellEncoding) -> str:
    """Architecture hash, invariant under intermediate-node permutation.

    Iterative neighborhood refinement: each node starts from (role, op)
    and absorbs, for n + 2 rounds, the sorted multisets of its in- and
    out-neighbor hashes combined with the connecting edge's op label. The
    final hash mixes the sorted node hashes. 16 hex characters. Without
    edge ops every edge end of a node mixes the same label, so each node
    hash is mixed with it once per round.
    """
    reasons = validate_encoding(spec, enc)
    if reasons:
        raise ValueError(f"cannot hash invalid encoding: {reasons}")
    out = spec.output_node
    nodes = range(out + 1)

    def node_op(v: int) -> int:
        if spec.op_placement == "node" and 1 <= v <= spec.n_nodes:
            return enc.ops[v - 1]
        return _NO_OP

    preds: list[list[int]] = [[] for _ in nodes]
    succs: list[list[int]] = [[] for _ in nodes]
    for u, v in enc.edges:
        preds[v].append(u)
        succs[u].append(v)
    edge_op = dict(zip(enc.edges, enc.ops)) if spec.op_placement == "edge" else None

    role = {0: _ROLE_INPUT, out: _ROLE_OUTPUT}
    h = [_mix(role.get(v, _ROLE_MID), node_op(v)) for v in nodes]
    for _ in range(out + 1):
        if edge_op is None:
            end = [_mix(x, _NO_OP) for x in h]
            ins = [[end[u] for u in preds[v]] for v in nodes]
            outs = [[end[w] for w in succs[v]] for v in nodes]
        else:
            ins = [[_mix(h[u], edge_op[u, v]) for u in preds[v]] for v in nodes]
            outs = [[_mix(h[w], edge_op[v, w]) for w in succs[v]] for v in nodes]
        h = [
            _mix(h[v], len(ins[v]), *sorted(ins[v]), 0x5E, len(outs[v]), *sorted(outs[v]))
            for v in nodes
        ]
    return format(_mix(len(h), *sorted(h)), "016x")


# ------------------------------------------------------------- enumeration

def _valid_skeletons(spec: SearchSpaceSpec) -> list[tuple[tuple[int, int], ...]]:
    """All edge sets where every intermediate node lies on a path."""
    possible = spec.candidate_edges()
    if 1 << len(possible) > SKELETON_MASK_GUARD:
        raise ValueError(f"cannot enumerate skeletons over {len(possible)} candidate edges")
    skeletons = []
    for mask in range(1 << len(possible)):
        edges = tuple(e for b, e in enumerate(possible) if mask >> b & 1)
        if is_valid(spec, skeleton_probe(spec, edges)):
            skeletons.append(edges)
    return skeletons


@dataclass
class EnumerationIndex:
    """Deduplicated view of a space: canonical hash -> representative."""

    spec: SearchSpaceSpec
    representatives: dict[str, CellEncoding]
    multiplicity: dict[str, int]
    raw_count: int
    hashes: list[str] = field(init=False)

    def __post_init__(self):
        self.hashes = sorted(self.representatives)
        self._with_output_degree: dict[int | None, tuple[str, ...]] = {}

    @property
    def unique_count(self) -> int:
        return len(self.representatives)

    def hashes_with_output_degree(self, k: int | None) -> tuple[str, ...]:
        """Hashes whose output node has in-degree k, in `hashes` order; all for None.

        Sub-space k is what a `fixed_k` super-net samples and ranks. Each
        k is filtered once per index.
        """
        found = self._with_output_degree.get(k)
        if found is None:
            found = self._with_output_degree[k] = tuple(
                h for h in self.hashes if k is None or self.representatives[h].output_in_degree() == k
            )
        return found


def enumerate_space(spec: SearchSpaceSpec) -> EnumerationIndex:
    """Generate every valid raw encoding and deduplicate by canonical hash.

    The representative of a hash class is its minimal encoding by sort key,
    so the index is independent of generation order. Raises when the raw
    count exceeds the enumeration guard.
    """
    skeletons = _valid_skeletons(spec)
    raw = sum(spec.num_ops ** spec.op_slots(edges) for edges in skeletons)
    if raw > RAW_ENUMERATION_GUARD:
        raise ValueError(
            f"raw enumeration would produce {raw} encodings, over the guard of {RAW_ENUMERATION_GUARD}"
        )
    representatives: dict[str, CellEncoding] = {}
    multiplicity: dict[str, int] = {}
    for edges in skeletons:
        for ops in itertools.product(range(spec.num_ops), repeat=spec.op_slots(edges)):
            enc = CellEncoding(spec.n_nodes, edges, ops)
            key = canonical_hash(spec, enc)
            multiplicity[key] = multiplicity.get(key, 0) + 1
            if key not in representatives or enc.sort_key() < representatives[key].sort_key():
                representatives[key] = enc
    return EnumerationIndex(spec, representatives, multiplicity, raw)

