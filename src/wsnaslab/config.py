"""Experiment configuration: one JSON file, nine sections, strict keys.

Every section maps onto a dataclass elsewhere in the package and is read
by the strict codec in `record`; unknown sections, unknown keys and values
of the wrong type raise instead of being ignored or cast, so a typo never
silently runs with defaults. The rules that span two sections (class and
channel counts, tracked eval statistics, the fixed_k sub-space, the OFA
kernel's vocabulary) are checked by ExperimentConfig, so a config that
breaks one fails at load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .data import SyntheticDatasetSpec
from .metrics import MetricConfig
from .protocol import ProtocolConfig
from .record import Record
from .searchspace import SearchSpaceSpec
from .supernet import MacroParams, SuperNetConfig


@dataclass(frozen=True)
class EvalSettings(Record, label="eval"):
    """How shared-weight evaluation runs after training."""

    supernet_seeds: tuple[int, ...] = (0, 1, 2)
    bn_mode: str = "batch"

    def __post_init__(self):
        if not self.supernet_seeds:
            raise ValueError("need at least one super-net seed")
        if len(set(self.supernet_seeds)) != len(self.supernet_seeds):
            raise ValueError("super-net seeds must be distinct")
        if self.bn_mode not in ("batch", "tracked"):
            raise ValueError(f"unknown bn_mode {self.bn_mode!r}")


@dataclass(frozen=True)
class BenchmarkSettings(Record, label="benchmark"):
    """Where the ground-truth table lives and how it was (or will be) built."""

    path: str = "benchmark.jsonl"
    base_seed: int = 0
    run_seeds: tuple[int, ...] = (0, 1, 2)

    def __post_init__(self):
        if not self.run_seeds:
            raise ValueError("need at least one benchmark run seed")
        if len(set(self.run_seeds)) != len(self.run_seeds):
            raise ValueError("benchmark run seeds must be distinct")


@dataclass(frozen=True)
class OutputSettings(Record, label="output"):
    directory: str = "runs/default"


@dataclass
class ExperimentConfig(Record, label="config"):
    space: SearchSpaceSpec = field(default_factory=SearchSpaceSpec)
    macro: MacroParams = field(default_factory=MacroParams)
    supernet: SuperNetConfig = field(default_factory=SuperNetConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    metrics: MetricConfig = field(default_factory=MetricConfig)
    dataset: SyntheticDatasetSpec = field(default_factory=SyntheticDatasetSpec)
    eval: EvalSettings = field(default_factory=EvalSettings)
    benchmark: BenchmarkSettings = field(default_factory=BenchmarkSettings)
    output: OutputSettings = field(default_factory=OutputSettings)

    def __post_init__(self):
        """Rules that span sections, checked at load, before any work."""
        # both sections persist their own copy (table header, checkpoint header, config.json)
        for key in ("num_classes", "in_channels"):
            ours, theirs = getattr(self.macro, key), getattr(self.dataset, key)
            if ours != theirs:
                raise ValueError(f"macro.{key} ({ours}) must equal dataset.{key} ({theirs})")
        if self.eval.bn_mode == "tracked" and not self.protocol.bn_track:
            raise ValueError("eval.bn_mode 'tracked' needs protocol.bn_track true")
        k = self.supernet.fixed_k
        if k is not None:
            if self.space.channel_mode != "dynamic":
                raise ValueError("supernet.fixed_k needs a dynamic-channel space (space.channel_mode 'dynamic')")
            top = sum(v == self.space.output_node for _, v in self.space.candidate_edges())
            if k > top:
                raise ValueError(f"supernet.fixed_k ({k}) exceeds {top}, the largest output in-degree of the space")
        if self.supernet.ofa_kernel and not {"conv3x3", "conv1x1"} <= set(self.space.ops):
            raise ValueError("supernet.ofa_kernel needs both conv3x3 and conv1x1 in space.ops")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        unknown = set(d) - set(CONFIG_SECTIONS)
        if unknown:
            raise ValueError(f"unknown keys in config: {sorted(unknown)}")
        return super().from_dict(d)


CONFIG_SECTIONS = tuple(f.name for f in fields(ExperimentConfig))


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: top level must be an object")
    try:
        return ExperimentConfig.from_dict(raw)
    except (ValueError, TypeError) as e:
        raise ValueError(f"{path}: {e}") from e
