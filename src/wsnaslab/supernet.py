"""Shared-weight super-net over a cell search space.

One network holds parameters for every op site in the space; forward_path
runs a single architecture through it. Widths: the stem and every cell
boundary carry macro.init_channels (C) channels. In dynamic-channel spaces
an architecture whose output node has in-degree k runs its intermediate
nodes at floor(C / k) channels, realized by slicing the allocated weights
with the configured channel strategy. Merges renormalize widths: a j-input
concat targeting width W slices every input to max(1, floor(W / j)) and
concatenates; a result narrower than W is zero-padded to W, and one wider
than W (j > W) is cut to W with the net's channel strategy. Sum merges
require equal widths.

Stand-alone networks and per-sub-space super-nets are the same machinery
with channel_strategy="disabled" (constant intermediate width, no slicing),
so their forwards agree bitwise with the shared builder at equal seeds.

Eval forwards share work across architectures. The two eval loops live
here, next to the cache they fill: evaluate_path (accuracy, the eval set in
spans of batch_size) and mean_path_loss (loss, the eval set as one span).
Under eval the stem output is a pure function of the weights and the batch,
and so is each first-cell node's output given its op, width, bn_mode and
inputs. The two loops therefore keep, on the net, the stem output of each
eval span and the outputs of first-cell nodes 1..n-1, keyed by node id, op
(the in-edge ops under edge placement), width, bn_mode and the inputs'
keys. An architecture whose keys were seen reads those read-only arrays
instead of recomputing them, so every logit is bit for bit a cold
forward's. The last intermediate node is not cached: its value fixes the
whole cell, so it is rarely shared (816 distinct values in 1234 n=3 uses).
The cache holds one eval set and is emptied when the eval set's bytes or
the bytes of any store array under stem/ or stack0/ differ from those it
was filled with (store.set, SGD, in-place BN buffer updates); on the
preset's eval fold it holds ~3.8 MiB after all 1234 n=3 architectures. Both
loops hand forward_path the memo of each eval span and the rng their caller
passed. Train forwards, forward_path calls without a memo, stand-alone nets
(restricted_to set) and the shuffle strategy, whose slices draw from that
rng, never use the cache.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import nncore as nn
from .nncore import BNState, ParamStore, Tape, Value
from .record import Record
from .searchspace import CellEncoding, SearchSpaceSpec, validate_encoding

CHANNEL_STRATEGIES = ("fixed_chunk", "shuffle", "interpolate", "disabled")
PARAMETRIC_OPS = ("conv3x3", "conv1x1")
# store keys read by the stem and the first cell, whose eval outputs are cached
_SHARED_PREFIXES = ("stem/", "stack0/")


@dataclass(frozen=True)
class MacroParams(Record, label="macro"):
    """Network skeleton around the searched cells."""

    init_channels: int = 8
    num_layers: int = 2       # stacks, each with its own parameter set
    repeated_cells: int = 1   # cells per stack sharing that set
    num_classes: int = 3
    in_channels: int = 1

    def __post_init__(self):
        if self.init_channels < 1 or self.num_layers < 1 or self.repeated_cells < 1:
            raise ValueError("macro dimensions must be positive")
        if self.num_classes < 2:
            raise ValueError("need at least two classes")


@dataclass(frozen=True)
class SuperNetConfig(Record, label="supernet"):
    """Weight-sharing factors under study."""

    channel_strategy: str = "fixed_chunk"
    dynamic_channel_train: bool = True
    dynamic_channel_test: bool = True
    fixed_k: int | None = None          # required by channel_strategy="disabled"
    wsbn: bool = False
    path_dropout: float = 0.0
    global_dropout: float = 0.0
    ofa_kernel: bool = False

    def __post_init__(self):
        if self.channel_strategy not in CHANNEL_STRATEGIES:
            raise ValueError(f"unknown channel_strategy {self.channel_strategy!r}")
        if self.channel_strategy == "disabled" and self.fixed_k is None:
            raise ValueError("channel_strategy=disabled needs fixed_k (a fixed-in-degree sub-space)")
        if self.channel_strategy != "disabled" and self.fixed_k is not None:
            raise ValueError("fixed_k only applies to channel_strategy=disabled")
        if self.fixed_k is not None and self.fixed_k < 1:
            raise ValueError(f"fixed_k must be at least 1, got {self.fixed_k}")
        if not 0.0 <= self.path_dropout < 1.0 or not 0.0 <= self.global_dropout < 1.0:
            raise ValueError("dropout rates must lie in [0, 1)")


@dataclass
class SuperNet:
    spec: SearchSpaceSpec
    macro: MacroParams
    config: SuperNetConfig
    store: ParamStore
    bn_states: dict[str, BNState]
    seed: int
    bn_affine: bool
    bn_track: bool
    restricted_to: CellEncoding | None = None
    # (eval-set and shared-weight bytes, memos); see _eval_memos
    _eval_cache: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def alloc_width(self) -> int:
        c = self.macro.init_channels
        if self.config.channel_strategy == "disabled":
            return max(1, c // self.config.fixed_k)
        return c

    def check_arch(self, enc: CellEncoding) -> None:
        reasons = validate_encoding(self.spec, enc)
        if reasons:
            raise ValueError(f"invalid architecture for this space: {reasons}")
        if self.config.channel_strategy == "disabled" and enc.output_in_degree() != self.config.fixed_k:
            raise ValueError(
                f"sub-space super-net expects output in-degree {self.config.fixed_k}, "
                f"got {enc.output_in_degree()}"
            )
        if self.restricted_to is not None and enc != self.restricted_to:
            raise ValueError("stand-alone network only runs its own architecture")


# -------------------------------------------------------------- site names

def _site(stack: int, spec: SearchSpaceSpec, where) -> str:
    if spec.op_placement == "node":
        return f"stack{stack}/node{where}"
    u, v = where
    return f"stack{stack}/edge{u}-{v}"


def _wsbn_key(stack: int, v: int, u: int) -> str:
    return f"stack{stack}/wsbn/node{v}/from{u}/bn"


def _possible_preds(spec: SearchSpaceSpec, v: int) -> list[int]:
    """Nodes that may feed v (input->output is never representable)."""
    preds = list(range(v))
    if v == spec.output_node and 0 in preds:
        preds.remove(0)
    return preds


def _site_wheres(spec: SearchSpaceSpec):
    if spec.op_placement == "node":
        return list(range(1, spec.n_nodes + 1))
    return list(spec.possible_edges())


# ----------------------------------------------------------------- builder

def build_supernet(
    spec: SearchSpaceSpec,
    macro: MacroParams,
    config: SuperNetConfig,
    seed: int,
    bn_affine: bool = True,
    bn_track: bool = False,
    bn_momentum: float = 0.9,
    bn_eps: float = 1e-5,
    restrict_to: CellEncoding | None = None,
) -> SuperNet:
    """Allocate every op site of the space (or of one architecture).

    Parameter init is keyed by (seed, parameter name), so any two builds
    that share a key agree on its initial value regardless of what else
    they allocate.
    """
    store = ParamStore(seed=seed)
    bn_states: dict[str, BNState] = {}
    c = macro.init_channels

    def new_bn(key: str, channels: int) -> None:
        state = BNState(key, channels, affine=bn_affine, track=bn_track, momentum=bn_momentum, eps=bn_eps)
        state.create_params(store)
        bn_states[key] = state

    store.create("stem/conv/weight", (c, macro.in_channels, 3, 3), init="normal", fan_in=macro.in_channels * 9)
    new_bn("stem/bn", c)

    sn = SuperNet(spec, macro, config, store, bn_states, seed, bn_affine, bn_track, restricted_to=restrict_to)
    width = sn.alloc_width

    def active_ops(where) -> list[str]:
        if restrict_to is None:
            return list(spec.ops)
        if spec.op_placement == "node":
            return [spec.ops[restrict_to.ops[where - 1]]]
        if where in restrict_to.edges:
            return [spec.ops[restrict_to.edge_op(where)]]
        return []

    def active_wheres():
        if restrict_to is None or spec.op_placement == "node":
            return _site_wheres(spec)
        return list(restrict_to.edges)

    for stack in range(macro.num_layers):
        for where in active_wheres():
            site = _site(stack, spec, where)
            ops_here = active_ops(where)
            if config.ofa_kernel and any(op in PARAMETRIC_OPS for op in ops_here):
                store.create(f"{site}/conv3x3/weight", (width, width, 3, 3), init="normal", fan_in=width * 9)
                store.create(f"{site}/ofa_proj", (width, width), init="identity")
                if not config.wsbn:
                    for op in ops_here:
                        if op in PARAMETRIC_OPS:
                            new_bn(f"{site}/{op}/bn", width)
            else:
                for op in ops_here:
                    if op == "conv3x3":
                        store.create(f"{site}/conv3x3/weight", (width, width, 3, 3), init="normal", fan_in=width * 9)
                    elif op == "conv1x1":
                        store.create(f"{site}/conv1x1/weight", (width, width), init="normal", fan_in=width)
                    if op in PARAMETRIC_OPS and not config.wsbn:
                        new_bn(f"{site}/{op}/bn", width)
        if config.wsbn:
            for v in range(1, spec.output_node + 1):
                preds = _possible_preds(spec, v)
                if restrict_to is not None:
                    preds = [u for u in preds if (u, v) in restrict_to.edges]
                for u in preds:
                    new_bn(_wsbn_key(stack, v, u), c)

    store.create("classifier/weight", (c, macro.num_classes), init="normal", fan_in=c)
    store.create("classifier/bias", (macro.num_classes,), init="zeros")
    return sn


def build_standalone(
    spec: SearchSpaceSpec,
    enc: CellEncoding,
    macro: MacroParams,
    seed: int,
    bn_affine: bool = True,
    bn_track: bool = True,
    bn_momentum: float = 0.9,
    bn_eps: float = 1e-5,
) -> SuperNet:
    """Fixed-channel network for a single architecture (no sharing)."""
    reasons = validate_encoding(spec, enc)
    if reasons:
        raise ValueError(f"invalid architecture: {reasons}")
    k = enc.output_in_degree() if spec.channel_mode == "dynamic" else None
    config = SuperNetConfig(channel_strategy="disabled" if k is not None else "fixed_chunk", fixed_k=k)
    return build_supernet(
        spec, macro, config, seed,
        bn_affine=bn_affine, bn_track=bn_track, bn_momentum=bn_momentum, bn_eps=bn_eps, restrict_to=enc,
    )


# ------------------------------------------------------------ path queries

def path_width(sn: SuperNet, enc: CellEncoding, train: bool) -> int:
    """Intermediate-node width this architecture runs at in this phase."""
    if sn.spec.channel_mode != "dynamic":
        return sn.macro.init_channels
    if sn.config.channel_strategy == "disabled":
        return sn.alloc_width
    dynamic = sn.config.dynamic_channel_train if train else sn.config.dynamic_channel_test
    if not dynamic:
        return sn.alloc_width
    return max(1, sn.macro.init_channels // enc.output_in_degree())


def select_path(sn: SuperNet, enc: CellEncoding) -> tuple[str, ...]:
    """Sorted trainable parameter keys (theta_i) one architecture's forward touches."""
    sn.check_arch(enc)
    spec = sn.spec
    keys: set[str] = {"stem/conv/weight", "classifier/weight", "classifier/bias"}
    if sn.bn_affine:
        keys.update({"stem/bn/scale", "stem/bn/shift"})

    def add_bn(key: str) -> None:
        if sn.bn_affine:
            keys.update({key + "/scale", key + "/shift"})

    for stack in range(sn.macro.num_layers):
        if spec.op_placement == "node":
            actives = [(v, spec.ops[enc.ops[v - 1]]) for v in range(1, spec.n_nodes + 1)]
        else:
            actives = [(e, spec.ops[enc.edge_op(e)]) for e in enc.edges]
        for where, op in actives:
            site = _site(stack, spec, where)
            if op == "conv3x3":
                keys.add(f"{site}/conv3x3/weight")
            elif op == "conv1x1":
                if sn.config.ofa_kernel:
                    keys.add(f"{site}/conv3x3/weight")
                    keys.add(f"{site}/ofa_proj")
                else:
                    keys.add(f"{site}/conv1x1/weight")
            if op in PARAMETRIC_OPS and not sn.config.wsbn:
                add_bn(f"{site}/{op}/bn")
        if sn.config.wsbn:
            for u, v in enc.edges:
                add_bn(_wsbn_key(stack, v, u))
    return tuple(sorted(keys))


# ---------------------------------------------------------------- slicing

@functools.cache
def interpolation_matrix(c_max: int, c: int) -> np.ndarray:
    """Moving-average resampling map: row j averages its source window.

    Cached per (c_max, c) and read-only."""
    if c > c_max:
        raise ValueError(f"cannot interpolate {c_max} channels up to {c}")
    mat = np.zeros((c, c_max), dtype=np.float64)
    for j in range(c):
        lo = (j * c_max) // c
        hi = ((j + 1) * c_max) // c
        mat[j, lo:hi] = 1.0 / (hi - lo)
    mat.flags.writeable = False
    return mat


def _slice_axis(v: Value, c: int, axis: int, strategy: str, rng: np.random.Generator | None) -> Value:
    """Narrow `axis` to c entries by the channel strategy.

    Every caller narrows (c <= the axis length), and forward_path has
    already refused a shuffle forward without an rng."""
    full = v.data.shape[axis]
    if full == c:
        return v
    if strategy == "interpolate":
        return nn.mix_axis(v, interpolation_matrix(full, c), axis)
    keep = rng.permutation(full)[:c] if strategy == "shuffle" else np.arange(c)
    return nn.take_axis(v, keep, axis)


def _slice_weight_2d(v: Value, c_out: int, c_in: int, strategy: str, rng) -> Value:
    return _slice_axis(_slice_axis(v, c_out, 0, strategy, rng), c_in, 1, strategy, rng)


# ----------------------------------------------------------------- forward

def _merge(sn: SuperNet, tensors: list[Value], target: int, rng) -> Value:
    """Merge incoming tensors to `target` channels by the spec's rule."""
    strategy = sn.config.channel_strategy
    if sn.spec.merge_rule == "sum":
        return tensors[0] if len(tensors) == 1 else nn.sum_tensors(tensors)
    chunk = max(1, target // len(tensors))
    pieces = [_slice_axis(t, min(chunk, t.data.shape[1]), 1, strategy, rng) for t in tensors]
    merged = pieces[0] if len(pieces) == 1 else nn.concat_channels(pieces)
    if merged.data.shape[1] > target:
        return _slice_axis(merged, target, 1, strategy, rng)
    return nn.channel_pad(merged, target)


def _apply_op(
    sn: SuperNet,
    tape: Tape,
    site: str,
    op: str,
    x: Value,
    width: int,
    train: bool,
    bn_mode: str,
    rng,
) -> Value:
    strategy = sn.config.channel_strategy
    if op == "zero":
        return nn.zero_op(x)
    if op == "identity":
        return x
    if op == "avgpool3x3":
        return nn.avgpool3x3(x)
    if op == "conv3x3":
        w = tape.param(f"{site}/conv3x3/weight")
        if width < sn.alloc_width:
            w = _slice_weight_2d(w, width, width, strategy, rng)
        y = nn.conv3x3(x, w)
    else:  # conv1x1: SearchSpaceSpec admits no op outside OP_VOCABULARY
        if sn.config.ofa_kernel:
            w3 = tape.param(f"{site}/conv3x3/weight")
            proj = tape.param(f"{site}/ofa_proj")
            center = nn.reshape(
                nn.take_axis(nn.take_axis(w3, np.array([1]), 2), np.array([1]), 3),
                (w3.data.shape[0], w3.data.shape[1]),
            )
            w = nn.matmul2d(proj, center)
        else:
            w = tape.param(f"{site}/conv1x1/weight")
        if width < sn.alloc_width:
            w = _slice_weight_2d(w, width, width, strategy, rng)
        y = nn.conv1x1(x, w)
    if not sn.config.wsbn:
        y = nn.batchnorm(y, sn.bn_states[f"{site}/{op}/bn"], train=train, bn_mode=bn_mode)
    return nn.relu(y)


def _cell_forward(
    sn: SuperNet,
    tape: Tape,
    stack: int,
    enc: CellEncoding,
    cell_in: Value,
    width: int,
    train: bool,
    bn_mode: str,
    rng,
    memo: dict | None = None,
) -> Value:
    """One cell. With a memo (eval forwards of the first cell only, whose
    input is the stem), nodes 1..n-1 are looked up by key before they are
    computed and stored read-only after; the key of node 0 is (0, bn_mode)."""
    spec = sn.spec
    c_out = sn.macro.init_channels
    drop = sn.config.path_dropout if train else 0.0
    tensors: dict[int, Value] = {0: cell_in}
    keys: dict[int, tuple] = {0: (0, bn_mode)}

    def incoming(v: int) -> list[Value]:
        contributions = []
        for u, _ in enc.in_edges(v):
            t = tensors[u]
            if spec.op_placement == "edge":
                site = _site(stack, spec, (u, v))
                t = _apply_op(sn, tape, site, spec.ops[enc.edge_op((u, v))], t, width, train, bn_mode, rng)
            if sn.config.wsbn:
                t = nn.batchnorm(t, sn.bn_states[_wsbn_key(stack, v, u)], train=train, bn_mode=bn_mode)
            if drop > 0.0:
                keep = np.float32(1.0 / (1.0 - drop)) if rng.random() >= drop else np.float32(0.0)
                t = nn.mul_mask(t, keep)
            contributions.append(t)
        return contributions

    for v in range(1, spec.n_nodes + 1):
        key = None
        if memo is not None and v < spec.n_nodes:
            preds = [u for u, _ in enc.in_edges(v)]
            if spec.op_placement == "node":
                ops = spec.ops[enc.ops[v - 1]]
            else:
                ops = tuple(spec.ops[enc.edge_op((u, v))] for u in preds)
            key = keys[v] = (v, ops, width, bn_mode, tuple(keys[u] for u in preds))
            hit = memo.get(key)
            if hit is not None:
                tensors[v] = tape.constant(hit)
                continue
        merged = _merge(sn, incoming(v), width, rng)
        if spec.op_placement == "node":
            site = _site(stack, spec, v)
            merged = _apply_op(sn, tape, site, spec.ops[enc.ops[v - 1]], merged, width, train, bn_mode, rng)
        tensors[v] = merged
        if key is not None:
            memo[key] = _frozen(merged.data)

    return _merge(sn, incoming(spec.output_node), c_out, rng)


def forward_path(
    sn: SuperNet,
    enc: CellEncoding,
    x: np.ndarray,
    train: bool = True,
    bn_mode: str = "batch",
    rng: np.random.Generator | None = None,
    memo: dict | None = None,
) -> tuple[Value, Tape]:
    """Run one architecture through the shared weights.

    Returns (logits, tape); tape.param_keys() lists the touched parameters.
    An eval forward (train=False) runs on a tape that records no nodes, so
    it frees activations as it goes and cannot be backpropagated.
    An rng is required when the forward is stochastic (dropout in train
    mode, or the shuffle channel strategy).

    memo, for eval forwards only, is the eval memo from _eval_memos of
    the one span of the eval set that x is: the forward reads the stem
    and first-cell node outputs it holds and stores those it computes.
    Without one (the default) nothing is shared or kept.
    """
    sn.check_arch(enc)
    needs_rng = sn.config.channel_strategy == "shuffle" or (
        train and (sn.config.path_dropout > 0.0 or sn.config.global_dropout > 0.0)
    )
    if needs_rng and rng is None:
        raise ValueError("this configuration needs an rng for forward_path")
    tape = Tape(sn.store, record=train)
    stem = None if memo is None else memo.get((0, bn_mode))
    if stem is None:
        h = nn.conv3x3(tape.constant(x), tape.param("stem/conv/weight"))
        h = nn.batchnorm(h, sn.bn_states["stem/bn"], train=train, bn_mode=bn_mode)
        h = nn.relu(h)
        if memo is not None:
            memo[(0, bn_mode)] = _frozen(h.data)
    else:
        h = tape.constant(stem)
    width = path_width(sn, enc, train)
    for stack in range(sn.macro.num_layers):
        for repeat in range(sn.macro.repeated_cells):
            first = stack == 0 and repeat == 0
            h = _cell_forward(sn, tape, stack, enc, h, width, train, bn_mode, rng, memo if first else None)
    if train and sn.config.global_dropout > 0.0:
        h = nn.mul_mask(h, nn.dropout_mask(rng, h.data.shape, sn.config.global_dropout))
    pooled = nn.global_pool(h)
    logits = nn.linear(pooled, tape.param("classifier/weight"), tape.param("classifier/bias"))
    return logits, tape


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _eval_memos(sn: SuperNet, x: np.ndarray) -> dict | None:
    """The net's eval cache for the eval set x: span (start, stop) -> memo.

    A memo maps the key of the stem or of a first-cell node to its output
    on x[start:stop]. The cache is kept on the net for one eval set and
    is emptied whenever the bytes of x or of any store array under
    _SHARED_PREFIXES differ from those it was filled with; comparing bytes
    also catches the in-place writes of BN running buffers and gradient
    checks. None (no caching) for stand-alone nets and for the shuffle
    strategy, whose slices draw from the rng.
    """
    if sn.restricted_to is not None or sn.config.channel_strategy == "shuffle":
        return None
    state = [(x.dtype, x.shape, x.tobytes())] + [
        (key, value.dtype, value.shape, value.tobytes())
        for key, value in sn.store.items() if key.startswith(_SHARED_PREFIXES)
    ]
    if sn._eval_cache is None or sn._eval_cache[0] != state:
        sn._eval_cache = (state, {})
    return sn._eval_cache[1]


def path_loss(
    sn: SuperNet,
    enc: CellEncoding,
    x: np.ndarray,
    y: np.ndarray,
    train: bool = True,
    bn_mode: str = "batch",
    rng: np.random.Generator | None = None,
) -> tuple[Value, Tape]:
    logits, tape = forward_path(sn, enc, x, train=train, bn_mode=bn_mode, rng=rng)
    return nn.cross_entropy(logits, y), tape


def _eval_spans(n: int, batch_size: int, fold_singleton: bool) -> list[tuple[int, int]]:
    spans = [(s, min(s + batch_size, n)) for s in range(0, n, batch_size)]
    if fold_singleton and len(spans) >= 2 and spans[-1][1] - spans[-1][0] == 1:
        spans[-2] = (spans[-2][0], n)
        spans.pop()
    return spans


def evaluate_path(
    sn: SuperNet,
    enc: CellEncoding,
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int,
    bn_mode: str = "batch",
    rng: np.random.Generator | None = None,
) -> float:
    """Top-1 accuracy of one architecture through the shared weights.

    Evaluation keeps every example, in spans of batch_size; with
    batch-statistics BN a trailing single sample is folded into the
    previous span. Spans share the eval cache (module docstring).
    """
    n = len(y)
    if n == 0:
        raise ValueError("empty evaluation set")
    memos = _eval_memos(sn, x)
    correct = 0
    for start, stop in _eval_spans(n, batch_size, fold_singleton=bn_mode == "batch"):
        memo = None if memos is None else memos.setdefault((start, stop), {})
        logits, _ = forward_path(sn, enc, x[start:stop], train=False, bn_mode=bn_mode, rng=rng, memo=memo)
        correct += int((np.argmax(logits.data, axis=1) == y[start:stop]).sum())
    return correct / n


def mean_path_loss(
    sn: SuperNet,
    encs: list[CellEncoding],
    x: np.ndarray,
    y: np.ndarray,
    bn_mode: str = "batch",
    rng: np.random.Generator | None = None,
) -> float:
    """Mean per-path loss on frozen weights (eval mode, no updates), x as one batch."""
    if not encs:
        raise ValueError("no architectures given")
    memos = _eval_memos(sn, x)
    memo = None if memos is None else memos.setdefault((0, len(x)), {})
    total = 0.0
    for enc in encs:
        logits, _ = forward_path(sn, enc, x, train=False, bn_mode=bn_mode, rng=rng, memo=memo)
        total += float(nn.cross_entropy(logits, y).data)
    return total / len(encs)


def path_param_count(sn: SuperNet, enc: CellEncoding) -> int:
    """Number of scalar parameters the architecture's forward touches."""
    return int(sum(np.prod(sn.store.get(k).shape) for k in select_path(sn, enc)))


def checkpoint_header(sn: SuperNet) -> str:
    """Canonical text header stored with super-net checkpoints."""
    import json

    payload = {
        "spec": sn.spec.to_dict(),
        "macro": sn.macro.to_dict(),
        "config": sn.config.to_dict(),
        "bn_affine": sn.bn_affine,
        "bn_track": sn.bn_track,
        "seed": sn.seed,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
