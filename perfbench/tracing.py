"""Spans around calls into wsnaslab's modules, recorded from outside the package.

`Tracer.install` swaps each traced function for a wrapper in every loaded
wsnaslab module that binds it (so `from .x import f` call sites are traced
too), and each traced method on its class. A span is [name, parent id,
start, end, phase, flops]; spans stay in memory until `write`. `uninstall`
puts every original back.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from pathlib import Path

ENGINE_PRIMITIVES = (
    "conv3x3", "conv1x1", "avgpool3x3", "batchnorm", "relu", "concat_channels",
    "channel_pad", "take_axis", "mix_axis", "linear", "global_pool", "cross_entropy",
)

# (module, attribute) for functions; (module, class, method) for methods
TRACED = [("wsnaslab.nncore.engine", p) for p in ENGINE_PRIMITIVES] + [
    ("wsnaslab.nncore.engine", "Tape", "backward"),
    ("wsnaslab.nncore.params", "save_checkpoint"),
    ("wsnaslab.protocol", "train_standalone"),
    ("wsnaslab.protocol", "train_supernet"),
    ("wsnaslab.protocol", "spos_step"),
    ("wsnaslab.protocol", "fairnas_step"),
    ("wsnaslab.protocol", "SGD", "step"),
    ("wsnaslab.protocol", "evaluate_path"),
    ("wsnaslab.supernet", "forward_path"),
    ("wsnaslab.supernet", "build_supernet"),
    ("wsnaslab.supernet", "build_standalone"),
    ("wsnaslab.sampling", "Sampler", "plan"),
    ("wsnaslab.sampling", "Sampler", "draw"),
    ("wsnaslab.sampling", "sampling_histogram"),
    ("wsnaslab.searchspace", "enumerate_space"),
    ("wsnaslab.searchspace", "canonical_hash"),
    ("wsnaslab.bench", "build_micro_benchmark"),
    ("wsnaslab.bench", "BenchmarkTable", "gt_rank"),
    ("wsnaslab.bench", "BenchmarkTable", "gt_mean"),
    ("wsnaslab.bench", "save_table"),
    ("wsnaslab.bench", "load_table"),
    ("wsnaslab.metrics", "compute_report"),
    ("wsnaslab.data", "generate_dataset"),
    ("wsnaslab.cli", "run_experiment"),
]


def _conv_flops(args) -> int:
    """Multiply-adds x 2 of a stride-1 same-padded convolution forward."""
    x, w = args[0].data, args[1].data
    n, _, h, wd = x.shape
    c_out, c_in = w.shape[:2]
    taps = w.shape[2] * w.shape[3] if w.ndim == 4 else 1
    return 2 * n * c_out * c_in * taps * h * wd


FLOPS = {"nncore.engine.conv3x3": _conv_flops, "nncore.engine.conv1x1": _conv_flops}


def _span_name(module: str, *attrs: str) -> str:
    return ".".join([module.removeprefix("wsnaslab.")] + list(attrs))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self.valid_calls = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        flops = FLOPS.get(name)
        is_forward_path = name == "supernet.forward_path"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if is_forward_path:
                train = kwargs.get("train", args[3] if len(args) > 3 else True)
                label = name + (".train" if train else ".eval")
            sid = len(spans)
            span = [label, stack[-1] if stack else -1, clock(), 0.0, self.phase, flops(args) if flops else 0]
            spans.append(span)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()

        return traced

    def _count_valid(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.valid_calls += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, callers=()) -> None:
        """Wrap every traced function where wsnaslab or `callers` bind it."""
        modules = [m for n, m in sys.modules.items() if n == "wsnaslab" or n.startswith("wsnaslab.")]
        modules += list(callers)
        for target in TRACED:
            owner = sys.modules[target[0]]
            if len(target) == 3:
                cls = getattr(owner, target[1])
                original = cls.__dict__[target[2]]
                self._swap(cls, target[2], original, self._wrap(_span_name(*target), original))
                continue
            original = getattr(owner, target[1])
            wrapped = self._wrap(_span_name(*target), original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._swap(module, attr, original, wrapped)
        # is_valid as the samplers see it: accepted draws over validity checks
        sampling = sys.modules["wsnaslab.sampling"]
        self._swap(sampling, "is_valid", sampling.is_valid, self._count_valid(sampling.is_valid))

    def _swap(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """One JSON array per span: [id, name, parent id, start s, end s, phase]."""
        with open(path, "w") as f:
            for sid, (name, parent, start, end, phase, _) in enumerate(self.spans):
                f.write(json.dumps([sid, name, parent, round(start, 9), round(end, 9), phase]) + "\n")


# --------------------------------------------------------------- summaries

_UNIT_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}

# per-layer metric -> span whose median duration it reports (unit from the suffix)
MEDIANS = {f"nncore.engine.{p}.fwd_us": f"nncore.engine.{p}" for p in ENGINE_PRIMITIVES} | {
    "nncore.engine.Tape.backward.ms": "nncore.engine.Tape.backward",
    "protocol.train_standalone.ms": "protocol.train_standalone",
    "protocol.train_supernet.s": "protocol.train_supernet",
    "protocol.spos_step.ms": "protocol.spos_step",
    "protocol.fairnas_step.ms": "protocol.fairnas_step",
    "protocol.SGD.step.us": "protocol.SGD.step",
    "protocol.evaluate_path.ms": "protocol.evaluate_path",
    "supernet.forward_path.train_ms": "supernet.forward_path.train",
    "supernet.forward_path.eval_ms": "supernet.forward_path.eval",
    "supernet.build_supernet.ms": "supernet.build_supernet",
    "supernet.build_standalone.ms": "supernet.build_standalone",
    "sampling.Sampler.plan.us": "sampling.Sampler.plan",
    "sampling.Sampler.draw.us": "sampling.Sampler.draw",
    "sampling.sampling_histogram.ms": "sampling.sampling_histogram",
    "searchspace.enumerate_space.ms": "searchspace.enumerate_space",
    "searchspace.canonical_hash.us": "searchspace.canonical_hash",
    "bench.build_micro_benchmark.s": "bench.build_micro_benchmark",
    "bench.BenchmarkTable.gt_rank.ms": "bench.BenchmarkTable.gt_rank",
    "bench.BenchmarkTable.gt_mean.ms": "bench.BenchmarkTable.gt_mean",
    "bench.save_table.ms": "bench.save_table",
    "bench.load_table.ms": "bench.load_table",
    "metrics.compute_report.ms": "metrics.compute_report",
    "data.generate_dataset.ms": "data.generate_dataset",
    "nncore.params.save_checkpoint.ms": "nncore.params.save_checkpoint",
}
# per-layer metric -> span whose calls per round it reports
COUNTS = {f"nncore.engine.{p}.calls": f"nncore.engine.{p}" for p in ENGINE_PRIMITIVES} | {
    "searchspace.canonical_hash.calls": "searchspace.canonical_hash",
    "bench.BenchmarkTable.gt_rank.calls": "bench.BenchmarkTable.gt_rank",
    "bench.BenchmarkTable.gt_mean.calls": "bench.BenchmarkTable.gt_mean",
}


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans: name -> (value, unit).

    Durations are medians over the spans of that name in set-up and in the
    timed rounds (calls the benchmark's own checks make are left out);
    counts are calls per timed round. A function the workload never calls
    reads 0.
    """
    durations: dict[str, list[float]] = {}
    round_calls: dict[str, int] = {}
    flops: dict[str, int] = {}
    self_ms: list[float] = []
    child_time = [0.0] * len(tracer.spans)
    for sid in reversed(range(len(tracer.spans))):  # children end before their parents
        name, parent, start, end, phase, fl = tracer.spans[sid]
        if phase == "check":
            continue
        durations.setdefault(name, []).append(end - start)
        round_calls[name] = round_calls.get(name, 0) + (phase == "round")
        flops[name] = flops.get(name, 0) + fl
        if parent >= 0:
            child_time[parent] += end - start
        if name == "cli.run_experiment":
            self_ms.append((end - start - child_time[sid]) * 1e3)

    out: dict[str, tuple[float, str]] = {}
    for metric, span in MEDIANS.items():
        unit = metric.rsplit(".", 1)[1].rsplit("_", 1)[-1]
        values = durations.get(span)
        out[metric] = (statistics.median(values) * _UNIT_SCALE[unit] if values else 0.0, unit)
    for metric, span in COUNTS.items():
        out[metric] = (round_calls.get(span, 0) / rounds, "count")
    for prim in ("conv3x3", "conv1x1"):
        span = "nncore.engine." + prim
        busy = sum(durations.get(span, []))
        out[span + ".gflops"] = (flops.get(span, 0) / busy / 1e9 if busy else 0.0, "GFLOP/s")
    accepted = len(durations.get("sampling.Sampler.plan", [])) + len(durations.get("sampling.Sampler.draw", []))
    out["sampling.Sampler.accept_ratio"] = (accepted / tracer.valid_calls if tracer.valid_calls else 0.0, "ratio")
    out["cli.run_experiment.self_ms"] = (statistics.median(self_ms) if self_ms else 0.0, "ms")
    out["trace.spans.calls"] = (sum(round_calls.values()) / rounds, "count")
    return out


# ------------------------------------------------- primitives in isolation

ISOLATED = ("conv3x3", "conv1x1", "avgpool3x3", "batchnorm", "mix_axis", "take_axis")


def isolated_primitives(repeats: int = 40, warmup: int = 5) -> dict[str, tuple[float, str]]:
    """Median forward + backward µs per primitive at N=32, C in {8, 4, 2}, 8x8.

    Each repeat builds a fresh tape, runs the primitive, sums its output and
    runs Tape.backward. mix_axis and take_axis map an 8-channel input down
    to C channels, as channel slicing does.
    """
    import numpy as np

    from wsnaslab import nncore as nn
    from wsnaslab.supernet import interpolation_matrix

    out = {}
    rng = np.random.default_rng(1234)
    for c in (8, 4, 2):
        store = nn.ParamStore(seed=0)
        store.create("w3", (c, c, 3, 3), init="normal", fan_in=9 * c)
        store.create("w1", (c, c), init="normal", fan_in=c)
        bn = nn.BNState("bn", c, affine=True, track=False)
        bn.create_params(store)
        x_c = rng.standard_normal((32, c, 8, 8)).astype(np.float32)
        x_8 = rng.standard_normal((32, 8, 8, 8)).astype(np.float32)
        mat = interpolation_matrix(8, c)
        ops = {
            "conv3x3": (x_c, lambda t, x: nn.conv3x3(x, t.param("w3"))),
            "conv1x1": (x_c, lambda t, x: nn.conv1x1(x, t.param("w1"))),
            "avgpool3x3": (x_c, lambda t, x: nn.avgpool3x3(x)),
            "batchnorm": (x_c, lambda t, x: nn.batchnorm(x, bn, train=True)),
            "mix_axis": (x_8, lambda t, x: nn.mix_axis(x, mat, 1)),
            "take_axis": (x_8, lambda t, x: nn.take_axis(x, np.arange(c), 1)),
        }
        for prim in ISOLATED:
            data, op = ops[prim]
            times = []
            for _ in range(warmup + repeats):
                start = time.perf_counter()
                tape = nn.Tape(store)
                tape.backward(nn.reduce_sum(op(tape, tape.input(data))))
                times.append(time.perf_counter() - start)
                store.zero_grads()
            out[f"nncore.engine.{prim}.fwd_bwd_c{c}_us"] = (statistics.median(times[warmup:]) * 1e6, "us")
    return out
