"""Exhaustive micro-benchmark: stand-alone ground truth for a whole space.

Every unique architecture is trained from scratch over a set of run seeds;
the table stores per-(architecture, seed) validation and test accuracies
plus parameter counts. Ground truth for ranking metrics is the mean test
accuracy over seeds. Tables persist as line-delimited JSON: one header
record {format_version, space_id, spec, macro, protocol_digest, meta}, then
one record per entry, sorted by (arch_hash, seed) so files are byte-stable.

Jobs are pure functions of (specs, seeds); parallel builds give identical
tables to serial ones.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import SyntheticDatasetSpec, generate_dataset
from .files import write_atomic
from .nncore import stream_key
from .protocol import ProtocolConfig, train_standalone
from .record import Record
from .searchspace import CellEncoding, EnumerationIndex, SearchSpaceSpec, enumerate_space
from .supernet import MacroParams

FORMAT_VERSION = 1


def derive_job_seed(base_seed: int, arch_hash: str, run_seed: int) -> int:
    """Independent per-job stream from (global seed, arch hash, run seed)."""
    return int(stream_key("gt-job", base_seed, arch_hash, run_seed) & 0x7FFFFFFF)


def protocol_digest(pconfig: ProtocolConfig, dspec: SyntheticDatasetSpec, base_seed: int, run_seeds: tuple[int, ...]) -> str:
    payload = json.dumps(
        {
            "protocol": pconfig.to_dict(),
            "dataset": dspec.to_dict(),
            "base_seed": base_seed,
            "run_seeds": list(run_seeds),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()


@dataclass(frozen=True)
class BenchmarkEntry(Record, label="entry"):
    arch_hash: str
    encoding: CellEncoding
    seed: int
    val_accuracy: float
    test_accuracy: float
    param_count: int


@dataclass
class BenchmarkTable:
    spec: SearchSpaceSpec
    macro: MacroParams
    digest: str
    entries: list[BenchmarkEntry]
    meta: dict

    def __post_init__(self):
        self.entries = sorted(self.entries, key=lambda e: (e.arch_hash, e.seed))
        self._by_hash: dict[str, list[BenchmarkEntry]] = {}
        for e in self.entries:
            self._by_hash.setdefault(e.arch_hash, []).append(e)
        self._hashes = list(self._by_hash)
        ordered = sorted(self._hashes, key=lambda h: (self.gt_mean(h), h))
        self._worst_first = {h: i + 1 for i, h in enumerate(ordered)}

    def hashes(self) -> list[str]:
        return list(self._hashes)

    def entries_for(self, arch_hash: str) -> list[BenchmarkEntry]:
        found = self._by_hash.get(arch_hash)
        if found is None:
            raise KeyError(f"architecture {arch_hash!r} not in the table")
        return list(found)

    def gt_mean(self, arch_hash: str) -> float:
        return float(np.mean([e.test_accuracy for e in self.entries_for(arch_hash)]))

    def seed_spread(self, arch_hash: str) -> float:
        accs = [e.test_accuracy for e in self.entries_for(arch_hash)]
        return float(max(accs) - min(accs))

    def max_seed_spread(self) -> float:
        return max(self.seed_spread(h) for h in self.hashes())

    def gt_rank(self, arch_hash: str) -> int:
        """Rank counted from the worst: a bijection onto 1..r_max, where
        r_max is the best architecture and equal means are ordered by hash.
        The rank map is built with the table, which is not modified after
        construction."""
        if arch_hash not in self._worst_first:
            raise KeyError(f"architecture {arch_hash!r} not in the table")
        return self._worst_first[arch_hash]

    @property
    def r_max(self) -> int:
        return len(self._hashes)


# ------------------------------------------------------------ build

def _gt_job(args: tuple) -> BenchmarkEntry:
    spec, enc, macro, pconfig, dataset, base_seed, arch_hash, run_seed = args
    result = train_standalone(
        spec, enc, macro, pconfig, dataset,
        seed=derive_job_seed(base_seed, arch_hash, run_seed),
        arch_hash=arch_hash,
    )
    return BenchmarkEntry(arch_hash, enc, run_seed, result.val_accuracy, result.test_accuracy, result.param_count)


def build_micro_benchmark(
    spec: SearchSpaceSpec,
    macro: MacroParams,
    pconfig: ProtocolConfig,
    dspec: SyntheticDatasetSpec,
    base_seed: int,
    run_seeds: tuple[int, ...] = (0, 1, 2),
    jobs: int = 1,
    index: EnumerationIndex | None = None,
) -> BenchmarkTable:
    """Train every unique architecture once per run seed."""
    if not run_seeds:
        raise ValueError("need at least one run seed")
    if index is None:
        index = enumerate_space(spec)
    dataset = generate_dataset(dspec, base_seed)
    tasks = [
        (spec, index.representatives[h], macro, pconfig, dataset, base_seed, h, s)
        for h in index.hashes
        for s in run_seeds
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            entries = list(pool.map(_gt_job, tasks, chunksize=1))
    else:
        entries = [_gt_job(t) for t in tasks]
    meta = {
        "dataset": dspec.to_dict(),
        "protocol": pconfig.to_dict(),
        "base_seed": base_seed,
        "run_seeds": list(run_seeds),
        "multiplicity": {h: index.multiplicity[h] for h in index.hashes},
    }
    table = BenchmarkTable(
        spec=spec,
        macro=macro,
        digest=protocol_digest(pconfig, dspec, base_seed, run_seeds),
        entries=entries,
        meta=meta,
    )
    table.meta["max_seed_spread"] = table.max_seed_spread()
    return table


# ------------------------------------------------------- persistence

def save_table(table: BenchmarkTable, path: str | Path) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "space_id": table.spec.space_id,
        "spec": table.spec.to_dict(),
        "macro": table.macro.to_dict(),
        "protocol_digest": table.digest,
        "meta": table.meta,
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    lines += [json.dumps(e.to_dict(), sort_keys=True, separators=(",", ":")) for e in table.entries]
    write_atomic(path, "\n".join(lines) + "\n")


def load_table(path: str | Path) -> BenchmarkTable:
    text = Path(path).read_text().splitlines()
    if not text:
        raise ValueError(f"{path}: empty benchmark table")

    def fail(line_no: int, message: str):
        raise ValueError(f"{path}:{line_no}: {message}")

    try:
        header = json.loads(text[0])
    except json.JSONDecodeError as e:
        fail(1, f"bad header: {e}")
    if not isinstance(header, dict):
        fail(1, f"header must be a JSON object, got {text[0].strip()[:40]}")
    required = {"format_version", "space_id", "spec", "macro", "protocol_digest"}
    missing = required - set(header)
    if missing:
        fail(1, f"header missing keys {sorted(missing)}")
    if header["format_version"] != FORMAT_VERSION:
        fail(1, f"unsupported format_version {header['format_version']!r} (expected {FORMAT_VERSION})")
    try:
        spec = SearchSpaceSpec.from_dict(header["spec"])
        macro = MacroParams.from_dict(header["macro"])
    except ValueError as e:
        fail(1, f"bad header: {e}")
    if spec.space_id != header["space_id"]:
        fail(1, f"space_id {header['space_id']!r} does not match spec {spec.space_id!r}")
    entries = []
    seen = set()
    for line_no, line in enumerate(text[1:], start=2):
        if not line.strip():
            continue
        try:
            entry = BenchmarkEntry.from_dict(json.loads(line))
        except (json.JSONDecodeError, ValueError, KeyError, TypeError) as e:
            fail(line_no, f"bad entry: {e}")
        if (entry.arch_hash, entry.seed) in seen:
            fail(line_no, f"duplicate entry for architecture {entry.arch_hash} seed {entry.seed}")
        seen.add((entry.arch_hash, entry.seed))
        entries.append(entry)
    if not entries:
        fail(1, "table has no entries")
    return BenchmarkTable(
        spec=spec,
        macro=macro,
        digest=header["protocol_digest"],
        entries=entries,
        meta=header.get("meta", {}),
    )
