"""Command line front end.

Subcommands:
  enumerate        count and list the unique architectures of a space
  build-benchmark  train every architecture from scratch (ground truth table)
  run              train super-nets, rank architectures, report metrics
  sweep            run the dynamic-channel ablation grid (YY / YN / NN)
  landscape        loss surface on a 2d slice through weight space
  histogram        sampler visit counts per architecture
  gradcheck        finite-difference audit of the autodiff engine
  presets          list or emit the shipped configuration presets

Exit codes: 0 success, 2 bad usage, bad configuration or any other
library ValueError, 3 inconsistent inputs (table/config mismatch, unknown
architecture), 4 missing or unreadable files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from importlib import resources
from pathlib import Path

from .bench import BenchmarkTable, build_micro_benchmark, load_table, save_table
from .config import ExperimentConfig, load_config
from .data import generate_dataset
from .files import write_atomic, write_csv
from .metrics import NA, REPORT_FIELDS, EvalRecord, MetricsReport, compute_report, ordinal_ranks
from .nncore import ParamStore, finite_diff_check, load_checkpoint, named_rng, save_checkpoint, stream_key
from .protocol import loss_landscape_grid, standalone_landscape_loss_fn, supernet_landscape_loss_fn, train_supernet
from .sampling import Sampler, sampling_histogram
from .searchspace import SearchSpaceSpec, enumerate_space
from .supernet import MacroParams, SuperNetConfig, build_supernet, checkpoint_header, evaluate_path, path_loss

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISMATCH = 3
EXIT_IO = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read(load, path, what: str):
    """`load(path)`, with a missing or unreadable file as exit 4."""
    try:
        return load(path)
    except FileNotFoundError as e:
        raise CliError(f"{what} not found: {path}", EXIT_IO) from e
    except ValueError as e:
        raise CliError(str(e), EXIT_IO) from e


def _matching_table(config: ExperimentConfig, bench_path: str | None) -> BenchmarkTable:
    table = _read(load_table, bench_path or config.benchmark.path, "benchmark table")
    if table.spec != config.space:
        raise CliError(
            f"benchmark table was built for space {table.spec.space_id}, "
            f"config describes {config.space.space_id}",
            EXIT_MISMATCH,
        )
    if table.macro != config.macro:
        raise CliError("benchmark table macro settings differ from the config", EXIT_MISMATCH)
    return table


def _require_in_table(table: BenchmarkTable, hashes, what: str) -> None:
    known = set(table.hashes())
    missing = sum(h not in known for h in hashes)
    if missing:
        raise CliError(f"{missing} {what} missing from the table", EXIT_MISMATCH)


def derive_run_seed(seed: int, label: int) -> int:
    """Independent super-net seed from (global seed, seed label)."""
    return int(stream_key("supernet-run", seed, label) & 0x7FFFFFFF)


def _fmt(value) -> str:
    return repr(float(value))


# ------------------------------------------------------------ enumerate

def cmd_enumerate(args) -> int:
    config = load_config(args.config)
    index = enumerate_space(config.space)
    print(f"space {config.space.space_id}")
    print(f"raw encodings: {index.raw_count}")
    print(f"unique architectures: {index.unique_count}")
    repeated = {h: m for h, m in index.multiplicity.items() if m > 1}
    if repeated:
        print(f"hash classes with multiplicity > 1: {len(repeated)}")
    if args.out:
        payload = {
            "space_id": config.space.space_id,
            "raw_count": index.raw_count,
            "unique_count": index.unique_count,
            "architectures": {
                h: {
                    "multiplicity": index.multiplicity[h],
                    "encoding": index.representatives[h].to_dict(),
                }
                for h in index.hashes
            },
        }
        write_atomic(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return EXIT_OK


# ------------------------------------------------------- build-benchmark

def cmd_build_benchmark(args) -> int:
    config = load_config(args.config)
    out = args.out or config.benchmark.path
    index = enumerate_space(config.space)
    total = index.unique_count * len(config.benchmark.run_seeds)
    print(f"training {index.unique_count} architectures x {len(config.benchmark.run_seeds)} seeds "
          f"({total} runs, jobs={args.jobs})")
    table = build_micro_benchmark(
        config.space,
        config.macro,
        config.protocol,
        config.dataset,
        base_seed=config.benchmark.base_seed,
        run_seeds=config.benchmark.run_seeds,
        jobs=args.jobs,
        index=index,
    )
    save_table(table, out)
    print(f"wrote {out}")
    print(f"max seed spread: {table.max_seed_spread():.4f}")
    return EXIT_OK


# ------------------------------------------------------------------ run

def _select_eval_hashes(config: ExperimentConfig, index, seed: int) -> list[str]:
    """Architectures to rank; a sub-space super-net (fixed_k) ranks only its own."""
    hashes = list(index.hashes_with_output_degree(config.supernet.fixed_k))
    m = config.metrics.num_eval_archs
    if m < len(hashes):
        rng = named_rng(seed, "eval-archs")
        picked = rng.choice(len(hashes), size=m, replace=False)
        hashes = [hashes[i] for i in sorted(int(i) for i in picked)]
    if len(hashes) < config.metrics.eval_warning_floor:
        print(
            f"warning: evaluating {len(hashes)} architectures, below the floor of "
            f"{config.metrics.eval_warning_floor}; rank correlations will be noisy",
            file=sys.stderr,
        )
    return hashes


def run_experiment(
    config: ExperimentConfig,
    seed: int,
    out_dir: Path,
    table: BenchmarkTable,
) -> MetricsReport:
    """Full pipeline: super-net training, shared-weight ranking, report.

    Writes metrics.csv, ranks.csv, one checkpoint and train log per
    super-net seed, and the resolved config. Reruns with the same inputs
    produce byte-identical files.
    """
    index = enumerate_space(config.space)
    hashes = _select_eval_hashes(config, index, seed)
    _require_in_table(table, hashes, "evaluation architectures")
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = generate_dataset(config.dataset, config.benchmark.base_seed)
    _, _, x_val, y_val = dataset.split(config.protocol.train_portion)

    accuracies: dict[str, list[float]] = {h: [] for h in hashes}
    for label in config.eval.supernet_seeds:
        sn_seed = derive_run_seed(seed, label)
        sn, log = train_supernet(
            config.space, config.macro, config.supernet, config.protocol,
            dataset, sn_seed, index=index,
        )
        save_checkpoint(sn.store, out_dir / f"supernet_seed{label}.ckpt", header=checkpoint_header(sn))
        log.save_csv(out_dir / f"trainlog_seed{label}.csv")
        eval_rng = named_rng(seed, "eval-forward", label)
        for h in hashes:
            acc = evaluate_path(
                sn, index.representatives[h], x_val, y_val,
                config.protocol.batch_size, bn_mode=config.eval.bn_mode, rng=eval_rng,
            )
            accuracies[h].append(acc)
        print(f"super-net seed {label}: trained {config.protocol.epochs} epochs, "
              f"final loss {log.entries[-1]['loss']:.4f}")

    records = [EvalRecord(h, table.gt_mean(h), tuple(accuracies[h])) for h in hashes]
    gt_rank = ordinal_ranks(records, lambda r: r.gt_accuracy)
    sn_rank = ordinal_ranks(records, lambda r: r.supernet_mean)
    best = min(sn_rank, key=sn_rank.get)  # super-net rank 1
    surpass = (table.gt_rank(best), table.r_max, len(config.eval.supernet_seeds))
    report = compute_report(records, config.metrics, surpass=surpass)

    report.save_csv(out_dir / "metrics.csv")
    write_csv(out_dir / "ranks.csv", [
        ["arch_hash", "gt_accuracy", "supernet_mean", "gt_rank", "supernet_rank"],
        *([r.arch_hash, _fmt(r.gt_accuracy), _fmt(r.supernet_mean), gt_rank[r.arch_hash], sn_rank[r.arch_hash]]
          for r in sorted(records, key=lambda r: r.arch_hash)),
    ])
    write_atomic(
        out_dir / "config.json",
        json.dumps({"config": config.to_dict(), "seed": seed}, indent=2, sort_keys=True) + "\n",
    )
    for name, value in zip(REPORT_FIELDS, report.as_row()):
        print(f"{name}: {value}")
    return report


def cmd_run(args) -> int:
    config = load_config(args.config)
    table = _matching_table(config, args.bench)
    out_dir = Path(args.out or config.output.directory)
    run_experiment(config, args.seed, out_dir, table)
    print(f"wrote {out_dir}/metrics.csv")
    return EXIT_OK


# ---------------------------------------------------------------- sweep

ABLATION_GRID = (("YY", True, True), ("YN", True, False), ("NN", False, False))


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    if config.space.channel_mode != "dynamic":
        raise CliError("the dynamic-channel sweep needs a dynamic-channel space", EXIT_CONFIG)
    if config.supernet.channel_strategy == "disabled":
        raise CliError("the sweep toggles slicing, which 'disabled' never applies", EXIT_CONFIG)
    table = _matching_table(config, args.bench)
    out_dir = Path(args.out or config.output.directory)
    rows = [["variant", *REPORT_FIELDS]]
    for name, train_on, test_on in ABLATION_GRID:
        variant = dataclasses.replace(
            config.supernet, dynamic_channel_train=train_on, dynamic_channel_test=test_on
        )
        vc = dataclasses.replace(config, supernet=variant)
        print(f"--- variant {name} (train slicing {train_on}, test slicing {test_on})")
        report = run_experiment(vc, args.seed, out_dir / name, table)
        rows.append([name, *report.as_row()])
    write_csv(out_dir / "sweep.csv", rows)
    print(f"wrote {out_dir}/sweep.csv")
    return EXIT_OK


# ------------------------------------------------------------- landscape

def _load_supernet_checkpoint(path: str) -> tuple[ParamStore, str, int]:
    """(store, header, seed) of a checkpoint whose header is a JSON object."""
    store, header = load_checkpoint(path)
    try:
        meta = json.loads(header)
    except ValueError as e:
        raise ValueError(f"checkpoint {path} has a header that is not JSON: {e}") from e
    seed = meta.get("seed", 0) if isinstance(meta, dict) else None
    if not isinstance(seed, int):
        raise ValueError(f"checkpoint {path} has a header that is not a JSON object with an integer seed")
    return store, header, seed


def _restore_supernet(config: ExperimentConfig, seed: int, ckpt: str | None, dataset, index):
    if ckpt is None:
        sn, _ = train_supernet(
            config.space, config.macro, config.supernet, config.protocol,
            dataset, derive_run_seed(seed, config.eval.supernet_seeds[0]), index=index,
        )
        return sn
    store, header, ckpt_seed = _read(_load_supernet_checkpoint, ckpt, "checkpoint")
    sn = build_supernet(
        config.space, config.macro, config.supernet, ckpt_seed,
        bn_affine=config.protocol.bn_affine, bn_track=config.protocol.bn_track,
        bn_momentum=config.protocol.bn_momentum, bn_eps=config.protocol.bn_eps,
    )
    if header != checkpoint_header(sn):
        raise CliError(f"{ckpt} was written for a different space/macro/super-net setup", EXIT_MISMATCH)
    if set(store.keys()) != set(sn.store.keys()):
        raise CliError(f"{ckpt} parameter keys do not match the configured super-net", EXIT_MISMATCH)
    sn.store = store
    return sn


def cmd_landscape(args) -> int:
    config = load_config(args.config)
    index = enumerate_space(config.space)
    if args.arch and args.arch not in index.hashes_with_output_degree(config.supernet.fixed_k):
        raise CliError(f"architecture {args.arch!r} not in space {config.space.space_id}, "
                       f"fixed_k={config.supernet.fixed_k}", EXIT_MISMATCH)
    dataset = generate_dataset(config.dataset, config.benchmark.base_seed)
    x_train, y_train, _, _ = dataset.split(config.protocol.train_portion)
    batch = min(len(y_train), args.batch)
    x, y = x_train[:batch], y_train[:batch]
    sn = _restore_supernet(config, args.seed, args.ckpt, dataset, index)
    if args.arch:
        loss_fn = standalone_landscape_loss_fn(sn, index.representatives[args.arch], x, y)
    else:
        loss_fn = supernet_landscape_loss_fn(sn, x, y, index, num_paths=args.num_paths, seed=args.seed)
    grid = loss_landscape_grid(loss_fn, sn.store, args.seed, radius=args.radius, half_points=args.half_points)
    write_csv(args.out, [[_fmt(v) for v in row] for row in grid])
    print(f"wrote {args.out} ({grid.shape[0]}x{grid.shape[1]} grid)")
    return EXIT_OK


# ------------------------------------------------------------- histogram

def cmd_histogram(args) -> int:
    config = load_config(args.config)
    index = enumerate_space(config.space)
    table = _matching_table(config, args.bench) if args.bench else None
    if table is not None:
        _require_in_table(table, index.hashes, "architectures of the space")
    sampler = Sampler(config.protocol.sampler, config.space, index=index, k_filter=config.supernet.fixed_k)
    counts = sampling_histogram(sampler, args.draws, args.seed)
    rows = [["arch_hash", "count", "multiplicity", "gt_rank"]]
    for h in index.hashes:
        rank = table.gt_rank(h) if table is not None else NA
        rows.append([h, counts.get(h, 0), index.multiplicity[h], rank])
    write_csv(args.out, rows)
    visits = sum(counts.values())
    scope = f"{index.unique_count} architectures"
    if config.supernet.fixed_k is not None:
        reachable = len(index.hashes_with_output_degree(config.supernet.fixed_k))
        scope = f"{reachable} architectures (fixed_k={config.supernet.fixed_k} sub-space of {index.unique_count})"
    print(f"{args.draws} draws, {visits} visits over {scope}")
    print(f"wrote {args.out}")
    return EXIT_OK


# ------------------------------------------------------------- gradcheck

def cmd_gradcheck(args) -> int:
    spec = SearchSpaceSpec()
    macro = MacroParams(init_channels=4, num_layers=1, num_classes=3)
    sn = build_supernet(spec, macro, SuperNetConfig(), args.seed)
    index = enumerate_space(spec)
    enc = index.representatives[index.hashes[args.seed % index.unique_count]]
    rng = named_rng(args.seed, "gradcheck-batch")
    x = rng.standard_normal((4, macro.in_channels, 8, 8))
    y = rng.integers(0, macro.num_classes, size=4)

    def builder(store):
        original = sn.store
        sn.store = store
        try:
            loss, _ = path_loss(sn, enc, x, y, train=True, bn_mode="batch")
        finally:
            sn.store = original
        return loss

    result = finite_diff_check(
        builder, sn.store, epsilon=args.epsilon,
        max_elements_per_param=args.max_elements, seed=args.seed,
    )
    print(f"checked {result['elements_checked']} elements at epsilon={result['epsilon']}")
    for key in sorted(result["per_param"], key=result["per_param"].get, reverse=True)[:5]:
        print(f"  {key}: {result['per_param'][key]:.3e}")
    print(f"max relative error: {result['max_rel_err']:.3e}")
    if result["max_rel_err"] > args.tolerance:
        print(f"FAIL (tolerance {args.tolerance})")
        return 1
    print(f"ok (tolerance {args.tolerance})")
    return EXIT_OK


# --------------------------------------------------------------- presets

def cmd_presets(args) -> int:
    root = resources.files("wsnaslab").joinpath("presets")
    names = sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))
    if args.name is None:
        for name in names:
            print(name)
        return EXIT_OK
    if args.name not in names:
        raise CliError(f"unknown preset {args.name!r}; known: {names}", EXIT_CONFIG)
    text = root.joinpath(args.name + ".json").read_text()
    if args.out:
        write_atomic(args.out, text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


# ------------------------------------------------------------------ main

def _above(kind, bound):
    """argparse type: a finite `kind` value greater than `bound`, refused at parse time."""
    def parse(text: str):
        value = kind(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if not value > bound:
            raise argparse.ArgumentTypeError(f"must be greater than {bound}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid <type> value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wsnaslab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, bench=False, out=None):
        p.add_argument("--config", required=True, help="experiment config JSON")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if bench:
            p.add_argument("--bench", default=None, help="override the benchmark table path")
        if out is not None:
            p.add_argument("--out", default=None, help=out)

    p = sub.add_parser("enumerate", help="count unique architectures")
    common(p, seed=False, out="write the architecture listing as JSON")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("build-benchmark", help="train the ground-truth table")
    common(p, seed=False, out="table path (default: config benchmark.path)")
    p.add_argument("--jobs", type=_above(int, 0), default=1, help="parallel training processes")
    p.set_defaults(fn=cmd_build_benchmark)

    p = sub.add_parser("run", help="train super-nets and report ranking metrics")
    common(p, bench=True, out="output directory (default: config output.directory)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="dynamic-channel ablation grid")
    common(p, bench=True, out="output directory (default: config output.directory)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("landscape", help="loss surface slice")
    common(p)
    p.add_argument("--out", required=True, help="grid CSV path")
    p.add_argument("--ckpt", default=None, help="reuse a trained checkpoint instead of training")
    p.add_argument("--arch", default=None, help="fix one architecture instead of averaging paths")
    p.add_argument("--radius", type=_above(float, 0), default=1.0)
    p.add_argument("--half-points", type=_above(int, 0), default=10, dest="half_points")
    p.add_argument("--num-paths", type=_above(int, 0), default=16, dest="num_paths")
    p.add_argument("--batch", type=_above(int, 1), default=128,
                   help="training examples under the surface (at least 2, for batch statistics)")
    p.set_defaults(fn=cmd_landscape)

    p = sub.add_parser("histogram", help="sampler visit counts")
    common(p, bench=True)
    p.add_argument("--draws", type=_above(int, 0), default=1000)
    p.add_argument("--out", required=True, help="histogram CSV path")
    p.set_defaults(fn=cmd_histogram)

    p = sub.add_parser("gradcheck", help="finite-difference audit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--max-elements", type=int, default=8, help="probed elements per tensor")
    p.add_argument("--tolerance", type=_above(float, 0), default=1e-3)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("presets", help="list or emit shipped configs")
    p.add_argument("--name", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_presets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
