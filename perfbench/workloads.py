"""The three workloads: set-up, one timed round, and the checks on a round.

Every workload starts from the shipped micro-node-concat preset and runs
in this process with jobs=1. A round repeats the same operations, so the
share of failed operations is the same in every run. `setup` may run
several times; the last set-up feeds the rounds.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

import oracles
from wsnaslab.bench import BenchmarkEntry, BenchmarkTable, build_micro_benchmark, load_table, protocol_digest, save_table
from wsnaslab.cli import run_experiment
from wsnaslab.config import ExperimentConfig, load_config
from wsnaslab.data import generate_dataset
from wsnaslab.metrics import REPORT_FIELDS, EvalRecord, compute_report
from wsnaslab.protocol import evaluate_path
from wsnaslab.sampling import Sampler, sampling_histogram
from wsnaslab.searchspace import enumerate_space
from wsnaslab.supernet import build_standalone, build_supernet, path_param_count

PRESET = "micro-node-concat"


class Checks:
    """Collects the messages of failed checks."""

    def __init__(self):
        self.failures: list[str] = []

    def __call__(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def close(self, a: float | None, b: float | None, what: str, tol: float = 1e-9) -> None:
        same = (a is None and b is None) or (a is not None and b is not None and abs(a - b) <= tol)
        self(same, f"{what}: program {a!r}, oracle {b!r}")


def load_preset() -> ExperimentConfig:
    return load_config(resources.files("wsnaslab") / "presets" / f"{PRESET}.json")


def _fold_sizes(dataset, train_portion: float) -> tuple[int, int]:
    _, _, _, y_val = dataset.split(train_portion)
    return len(y_val), len(dataset.y_test)


def check_table_file(checks: Checks, path: Path, cfg: ExperimentConfig, folds: tuple[int, int]) -> dict[str, Fraction]:
    """Properties of a saved table, read without the program; returns exact gt means."""
    lines = path.read_text().splitlines()
    entries = [json.loads(line) for line in lines[1:]]
    pairs = [(e["arch_hash"], e["seed"]) for e in entries]
    checks(len(pairs) == len(set(pairs)), f"{path.name}: a (hash, seed) pair appears twice")
    val_fold, test_fold = folds
    accs: dict[str, list[float]] = {}
    for e in entries:
        checks(oracles.is_fold_multiple(e["val_accuracy"], val_fold), f"val accuracy {e['val_accuracy']} not k/{val_fold}")
        checks(oracles.is_fold_multiple(e["test_accuracy"], test_fold), f"test accuracy {e['test_accuracy']} not k/{test_fold}")
        enc = e["encoding"]
        check_param_count(checks, cfg, e["arch_hash"], e["param_count"], enc["nodes"], enc["edges"], enc["ops"])
        accs.setdefault(e["arch_hash"], []).append(e["test_accuracy"])
    return {h: oracles.exact_mean(v) for h, v in accs.items()}


def check_param_count(checks: Checks, cfg: ExperimentConfig, arch_hash: str, count: int, n_nodes, edges, ops) -> None:
    m = cfg.macro
    want = oracles.param_count([cfg.space.ops[o] for o in ops], oracles.output_in_degree(n_nodes, edges),
                               m.init_channels, m.in_channels, m.num_classes, m.num_layers)
    checks(count == want, f"{arch_hash}: param_count {count}, closed form {want}")


def check_round_trip(checks: Checks, path: Path) -> bytes:
    """save -> load -> save must reproduce the file byte for byte."""
    first = path.read_bytes()
    again = path.with_suffix(".again.jsonl")
    save_table(load_table(path), again)
    checks(again.read_bytes() == first, f"{path.name}: save/load/save round trip changed bytes")
    return first


def check_enumeration(checks: Checks, index, n_nodes: int, n_ops: int) -> None:
    """The program's dedup against brute-force isomorphism classes."""
    raw, classes = oracles.iso_classes(n_nodes, n_ops)
    checks(index.raw_count == raw, f"n={n_nodes}: {index.raw_count} raw encodings, oracle {raw}")
    checks(index.unique_count == len(classes), f"n={n_nodes}: {index.unique_count} unique, oracle {len(classes)}")
    keys = {}
    for h, enc in index.representatives.items():
        key = oracles.iso_key(n_nodes, enc.edges, enc.ops)
        checks(key not in keys, f"n={n_nodes}: {h} and {keys.get(key)} are isomorphic")
        keys[key] = h
        checks(index.multiplicity[h] == classes.get(key), f"n={n_nodes}: multiplicity of {h} differs from its class")


def synthesise_table(cfg: ExperimentConfig, spec, index, dataset, seed: int) -> tuple[BenchmarkTable, dict[str, Fraction]]:
    """A three-seed table with accuracies drawn from `seed`.

    Each architecture gets a mean of k / fold with k uniform in 40..140;
    its seeds read (k - d, k, k + d) / fold with d = k mod 5, so equal
    means have equal seed values. Parameter counts come from the program's
    stand-alone builder.
    """
    rng = np.random.default_rng([seed, 0x7AB1E])
    val_fold, test_fold = _fold_sizes(dataset, cfg.protocol.train_portion)
    run_seeds = (0, 1, 2)
    entries, means = [], {}
    for h in index.hashes:
        enc = index.representatives[h]
        params = path_param_count(build_standalone(spec, enc, cfg.macro, seed), enc)
        k = int(rng.integers(40, 141))
        d = k % 5
        means[h] = Fraction(k, test_fold)
        for s, kk in zip(run_seeds, (k - d, k, k + d)):
            val = int(rng.integers(10, val_fold + 1))
            entries.append(BenchmarkEntry(h, enc, s, val / val_fold, kk / test_fold, params))
    meta = {"synthesised_from_seed": seed, "run_seeds": list(run_seeds)}
    digest = protocol_digest(cfg.protocol, cfg.dataset, seed, run_seeds)
    return BenchmarkTable(spec, cfg.macro, digest, entries, meta), means


# ------------------------------------------------------------- gt-table


class GtTable:
    """Stand-alone ground truth for the 42-architecture preset space."""

    name = "gt-table"
    EPOCHS = 2        # the preset trains 20; one epoch reaches only ~0.37 mean accuracy
    RUN_SEEDS = (0,)

    def __init__(self, out: Path):
        self.out = out

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.cfg = load_preset()
        self.protocol = dataclasses.replace(self.cfg.protocol, epochs=self.EPOCHS)
        self.index = enumerate_space(self.cfg.space)
        self.folds = _fold_sizes(generate_dataset(self.cfg.dataset, seed), self.protocol.train_portion)
        self.first_bytes = None

    def check_setup(self, checks: Checks) -> None:
        check_enumeration(checks, self.index, self.cfg.space.n_nodes, len(self.cfg.space.ops))

    def run_round(self):
        return build_micro_benchmark(
            self.cfg.space, self.cfg.macro, self.protocol, self.cfg.dataset,
            base_seed=self.seed, run_seeds=self.RUN_SEEDS, jobs=1, index=self.index,
        )

    def check_round(self, table, checks: Checks) -> tuple[int, int, int]:
        path = self.out / "table.jsonl"
        save_table(table, path)
        data = check_round_trip(checks, path)
        if self.first_bytes is None:
            self.first_bytes = data
        checks(data == self.first_bytes, "gt-table: a repeated round built a different table")
        check_table_file(checks, path, self.cfg, self.folds)
        hashes = sorted({e.arch_hash for e in table.entries})
        checks(hashes == self.index.hashes, "gt-table: table architectures differ from the enumeration")
        mean_acc = float(np.mean([e.test_accuracy for e in table.entries]))
        checks(mean_acc > 1.0 / 3.0, f"gt-table: mean test accuracy {mean_acc:.4f} is not above chance")
        attempted = self.index.unique_count * len(self.RUN_SEEDS)
        return attempted, attempted - len(table.entries), len(table.entries)


# ---------------------------------------------------------- supernet-run


class SupernetRun:
    """`wsnaslab run` on the preset under a shortened protocol."""

    name = "supernet-run"
    EPOCHS = 16       # the preset trains 20; at 2 the last-epoch loss can exceed the first
    SUPERNET_SEEDS = (0,)

    def __init__(self, out: Path):
        self.out = out

    def setup(self, seed: int) -> None:
        base = load_preset()
        self.seed = seed
        self.cfg = dataclasses.replace(
            base,
            protocol=dataclasses.replace(base.protocol, epochs=self.EPOCHS),
            eval=dataclasses.replace(base.eval, supernet_seeds=self.SUPERNET_SEEDS),
            benchmark=dataclasses.replace(base.benchmark, base_seed=seed, path=str(self.out / "table.jsonl")),
        )
        self.index = enumerate_space(self.cfg.space)
        dataset = generate_dataset(self.cfg.dataset, seed)
        self.folds = _fold_sizes(dataset, self.cfg.protocol.train_portion)
        table, self.means = synthesise_table(self.cfg, self.cfg.space, self.index, dataset, seed)
        save_table(table, self.cfg.benchmark.path)
        self.table = load_table(self.cfg.benchmark.path)
        self.first_outputs = None

    def check_setup(self, checks: Checks) -> None:
        path = Path(self.cfg.benchmark.path)
        check_round_trip(checks, path)
        self.file_means = check_table_file(checks, path, self.cfg, self.folds)
        checks(self.file_means.keys() == self.means.keys()
               and all(abs(self.file_means[h] - m) < 1e-12 for h, m in self.means.items()),
               "supernet-run: table file means differ from the synthesised ones")

    def run_round(self):
        return run_experiment(self.cfg, self.seed, self.out / "run", self.table)

    def check_round(self, report, checks: Checks) -> tuple[int, int, int]:
        run = self.out / "run"
        metrics_text = (run / "metrics.csv").read_text()
        ranks_text = (run / "ranks.csv").read_text()
        if self.first_outputs is None:
            self.first_outputs = (metrics_text, ranks_text)
        checks((metrics_text, ranks_text) == self.first_outputs, "supernet-run: a repeated round wrote other CSVs")
        header, values = list(csv.reader(metrics_text.splitlines()))
        checks(tuple(header) == REPORT_FIELDS, f"metrics.csv columns {header}")
        written = {k: None if v == "NA" else float(v) for k, v in zip(header, values)}
        rows = [(r["arch_hash"], float(r["gt_accuracy"]), float(r["supernet_mean"]))
                for r in csv.DictReader(ranks_text.splitlines())]
        checks(sorted(r[0] for r in rows) == self.index.hashes, "ranks.csv does not list every architecture")
        n_nets = len(self.cfg.eval.supernet_seeds)
        for h, gt, sn in rows:
            checks(abs(gt - float(self.file_means[h])) < 1e-12, f"{h}: ranks.csv gt {gt} differs from the table file")
            checks(oracles.is_fold_multiple(sn, self.folds[0] * n_nets), f"{h}: super-net mean {sn} is no accuracy mean")
        mc = self.cfg.metrics
        want = oracles.rank_metrics([r[2] for r in rows], [r[1] for r in rows], mc.gt_rounding, mc.sparse_threshold)
        for name, value in want.items():
            checks.close(written[name], value, f"metrics.csv {name}")
        checks.close(written["final_performance"], oracles.top_k_mean(rows, mc.top_k), "final_performance", 1e-12)
        best = min(rows, key=lambda r: (-r[2], r[0]))[0]
        r = oracles.ranks_from_worst(self.file_means)[best]
        checks.close(written["p_surpass_random"], oracles.p_surpass(r, len(self.file_means), n_nets),
                     "p_surpass_random", 1e-12)
        for label in self.cfg.eval.supernet_seeds:
            log = list(csv.DictReader((run / f"trainlog_seed{label}.csv").read_text().splitlines()))
            checks(len(log) == self.EPOCHS, f"trainlog_seed{label}.csv has {len(log)} epochs")
            first, last = float(log[0]["loss"]), float(log[-1]["loss"])
            checks(last < first, f"super-net {label}: last-epoch loss {last:.4f} not below first {first:.4f}")
            checks((run / f"supernet_seed{label}.ckpt").stat().st_size > 0, f"checkpoint {label} is empty")
        return len(self.index.hashes), len(self.index.hashes) - len(rows), len(rows)


# -------------------------------------------------------------- rank-n3


@dataclasses.dataclass
class RankRound:
    index: object
    fair: dict
    uniform: dict
    accuracies: dict
    errors: dict
    gt: dict
    ranks: dict
    records: list
    best_rank: int
    report: object


class RankN3:
    """Forward-only ranking of the 1234-architecture n=3 space."""

    name = "rank-n3"
    DRAWS = 300       # plans (fairnas) and draws (random_nas) per histogram
    RANK_SAMPLE = 16  # gt_rank calls on sampled architectures

    def __init__(self, out: Path):
        self.out = out

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.cfg = load_preset()
        self.spec = dataclasses.replace(self.cfg.space, n_nodes=3)
        index = enumerate_space(self.spec)
        dataset = generate_dataset(self.cfg.dataset, seed)
        _, _, self.x_val, self.y_val = dataset.split(self.cfg.protocol.train_portion)
        self.table, self.means = synthesise_table(self.cfg, self.spec, index, dataset, seed)
        picked = np.random.default_rng([seed, 0x5A]).choice(index.unique_count, self.RANK_SAMPLE, replace=False)
        self.sample = [index.hashes[i] for i in sorted(picked)]
        self.first = None

    def check_setup(self, checks: Checks) -> None:
        for e in self.table.entries:
            enc = e.encoding
            check_param_count(checks, self.cfg, e.arch_hash, e.param_count, enc.n_nodes, enc.edges, enc.ops)

    def run_round(self) -> RankRound:
        cfg, spec, seed = self.cfg, self.spec, self.seed
        index = enumerate_space(spec)
        fair = sampling_histogram(Sampler("fairnas", spec), self.DRAWS, seed)
        uniform = sampling_histogram(Sampler("random_nas", spec), self.DRAWS, seed)
        p = cfg.protocol
        sn = build_supernet(spec, cfg.macro, cfg.supernet, seed, bn_affine=p.bn_affine, bn_track=p.bn_track,
                            bn_momentum=p.bn_momentum, bn_eps=p.bn_eps)
        accuracies, errors = {}, {}
        for h in index.hashes:
            try:
                accuracies[h] = evaluate_path(sn, index.representatives[h], self.x_val, self.y_val,
                                              p.batch_size, bn_mode=cfg.eval.bn_mode)
            except ValueError as e:
                errors[h] = str(e)
        gt = {h: self.table.gt_mean(h) for h in index.hashes}
        ranks = {h: self.table.gt_rank(h) for h in self.sample}
        records = [EvalRecord(h, gt[h], (acc,)) for h, acc in accuracies.items()]
        best = min(records, key=lambda r: (-r.supernet_mean, r.arch_hash)).arch_hash
        best_rank = self.table.gt_rank(best)
        report = compute_report(records, cfg.metrics, surpass=(best_rank, self.table.r_max, 1))
        return RankRound(index, fair, uniform, accuracies, errors, gt, ranks, records, best_rank, report)

    def check_round(self, res: RankRound, checks: Checks) -> tuple[int, int, int]:
        index, spec = res.index, self.spec
        if self.first is None:
            check_enumeration(checks, index, spec.n_nodes, len(spec.ops))
            self.first = res
        else:
            same = (res.errors == self.first.errors and res.accuracies == self.first.accuracies
                    and dataclasses.asdict(res.report) == dataclasses.asdict(self.first.report))
            checks(same, "rank-n3: a repeated round gave other results")
        hashes = set(index.hashes)
        for hist, visits in ((res.fair, self.DRAWS * len(spec.ops)), (res.uniform, self.DRAWS)):
            checks(sum(hist.values()) == visits, f"histogram counts sum to {sum(hist.values())}, expected {visits}")
            checks(set(hist) <= hashes, "histogram visits an architecture outside the enumeration")
        for h, message in res.errors.items():
            enc = index.representatives[h]
            checks("channel_pad cannot shrink" in message, f"{h}: unexpected failure {message!r}")
            checks(oracles.has_channel_fault(spec.n_nodes, enc.edges, self.cfg.macro.init_channels),
                   f"{h} failed without a node wider than its cell: {message!r}")
        fold = len(self.y_val)
        for h, acc in res.accuracies.items():
            checks(oracles.is_fold_multiple(acc, fold), f"{h}: accuracy {acc} is not k/{fold}")
        for h, value in res.gt.items():
            checks.close(value, float(self.means[h]), f"gt_mean({h})", 1e-12)
        want_ranks = oracles.ranks_from_worst(self.means)
        for h, r in res.ranks.items():
            checks(r == want_ranks[h], f"gt_rank({h}) = {r}, oracle {want_ranks[h]}")
        rows = [(r.arch_hash, r.gt_accuracy, r.supernet_mean) for r in res.records]
        mc = self.cfg.metrics
        want = oracles.rank_metrics([r[2] for r in rows], [r[1] for r in rows], mc.gt_rounding, mc.sparse_threshold)
        for name, value in want.items():
            checks.close(getattr(res.report, name), value, f"compute_report {name}")
        checks.close(res.report.final_performance, oracles.top_k_mean(rows, mc.top_k), "final_performance", 1e-12)
        best = min(rows, key=lambda r: (-r[2], r[0]))[0]
        checks(res.best_rank == want_ranks[best], f"gt_rank of the best architecture {res.best_rank}")
        checks.close(res.report.p_surpass_random, oracles.p_surpass(want_ranks[best], len(self.means), 1),
                     "p_surpass_random", 1e-12)
        return index.unique_count, len(res.errors), len(res.accuracies)


WORKLOADS = {w.name: w for w in (GtTable, SupernetRun, RankN3)}
