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

_layout is the one owner of the parameter layout: every store entry of the
net, or of one path, in store order. build_supernet creates what it lists;
select_path and path_param_count read it for one path without touching the
store; _apply_op reads an op's weights from _op_weights, which _layout also
reads (under ofa_kernel a conv1x1 reads the site's 3x3 kernel and a projection).

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
import math
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
        return _alloc_width(self.macro, self.config)

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


# ------------------------------------------------------------------ layout

def _alloc_width(macro: MacroParams, config: SuperNetConfig) -> int:
    """Allocated intermediate width: floor(C / fixed_k) in a sub-space, else C."""
    c = macro.init_channels
    return max(1, c // config.fixed_k) if config.channel_strategy == "disabled" else c


def _site(stack: int, spec: SearchSpaceSpec, where) -> str:
    if spec.op_placement == "node":
        return f"stack{stack}/node{where}"
    u, v = where
    return f"stack{stack}/edge{u}-{v}"


def _wsbn_key(stack: int, v: int, u: int) -> str:
    return f"stack{stack}/wsbn/node{v}/from{u}/bn"


def _op_weights(config: SuperNetConfig, site: str, op: str, width: int) -> dict[str, tuple]:
    """key -> (shape, init, fan_in) of each weight `op` reads at `site`, in read order."""
    conv3x3 = {f"{site}/conv3x3/weight": ((width, width, 3, 3), "normal", width * 9)}
    if op == "conv3x3":
        return conv3x3
    if op != "conv1x1":
        return {}
    if config.ofa_kernel:  # the 1x1 kernel is a projection of the 3x3 kernel's center
        return {**conv3x3, f"{site}/ofa_proj": ((width, width), "identity", None)}
    return {f"{site}/conv1x1/weight": ((width, width), "normal", width)}


def _layout(
    spec: SearchSpaceSpec, macro: MacroParams, config: SuperNetConfig, enc: CellEncoding | None = None,
) -> dict[str, tuple]:
    """Every store entry of the net, or of the one path enc, in store order.

    key -> (shape, init, fan_in). A BN site is one entry, key -> ((channels,),
    "bn", None); BNState names its store keys under it. Shapes are the
    allocated ones, so a path's entries are the net's entries it reads.
    """
    c = macro.init_channels
    width = _alloc_width(macro, config)
    edges = spec.possible_edges() if enc is None else enc.edges
    if spec.op_placement == "node":
        chosen = {v: None if enc is None else enc.ops[v - 1] for v in range(1, spec.n_nodes + 1)}
    else:
        chosen = {e: None if enc is None else enc.edge_op(e) for e in edges}
    layout = {
        "stem/conv/weight": ((c, macro.in_channels, 3, 3), "normal", macro.in_channels * 9),
        "stem/bn": ((c,), "bn", None),
    }
    for stack in range(macro.num_layers):
        for where, index in chosen.items():
            site = _site(stack, spec, where)
            for op in spec.ops if index is None else [spec.ops[index]]:
                layout.update(_op_weights(config, site, op, width))
                if op in PARAMETRIC_OPS and not config.wsbn:
                    layout[f"{site}/{op}/bn"] = ((width,), "bn", None)
        if config.wsbn:
            for u, v in sorted(edges, key=lambda e: (e[1], e[0])):
                layout[_wsbn_key(stack, v, u)] = ((c,), "bn", None)
    layout["classifier/weight"] = ((c, macro.num_classes), "normal", c)
    layout["classifier/bias"] = ((macro.num_classes,), "zeros", None)
    return layout


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
    for key, (shape, init, fan_in) in _layout(spec, macro, config, restrict_to).items():
        if init == "bn":
            state = BNState(key, shape[0], affine=bn_affine, track=bn_track, momentum=bn_momentum, eps=bn_eps)
            state.create_params(store)
            bn_states[key] = state
        else:
            store.create(key, shape, init=init, fan_in=fan_in)
    return SuperNet(spec, macro, config, store, bn_states, seed, bn_affine, bn_track, restricted_to=restrict_to)


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


def _path_params(sn: SuperNet, enc: CellEncoding) -> dict[str, tuple]:
    """Trainable key -> shape of each parameter one architecture's forward touches."""
    sn.check_arch(enc)
    params = {}
    for key, (shape, init, _) in _layout(sn.spec, sn.macro, sn.config, enc).items():
        if init != "bn":
            params[key] = shape
        elif sn.bn_affine:
            params[key + "/scale"] = params[key + "/shift"] = shape
    return params


def select_path(sn: SuperNet, enc: CellEncoding) -> tuple[str, ...]:
    """Sorted trainable parameter keys (theta_i) one architecture's forward touches."""
    return tuple(sorted(_path_params(sn, enc)))


def path_param_count(sn: SuperNet, enc: CellEncoding) -> int:
    """Number of scalar parameters the architecture's forward touches."""
    return sum(math.prod(shape) for shape in _path_params(sn, enc).values())


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
    if op == "zero":
        return nn.zero_op(x)
    if op == "identity":
        return x
    if op == "avgpool3x3":
        return nn.avgpool3x3(x)
    # conv3x3 or conv1x1: SearchSpaceSpec admits no op outside OP_VOCABULARY
    w, *proj = [tape.param(key) for key in _op_weights(sn.config, site, op, sn.alloc_width)]
    if proj:  # ofa_kernel conv1x1: project the 3x3 kernel's center
        center = nn.take_axis(nn.take_axis(w, np.array([1]), 2), np.array([1]), 3)
        w = nn.matmul2d(proj[0], nn.reshape(center, w.data.shape[:2]))
    if width < sn.alloc_width:
        w = _slice_weight_2d(w, width, width, sn.config.channel_strategy, rng)
    y = (nn.conv3x3 if op == "conv3x3" else nn.conv1x1)(x, w)
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
