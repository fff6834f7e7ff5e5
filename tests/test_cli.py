"""Command line behavior: exit codes, artifacts, reruns."""

from __future__ import annotations

import csv
import json
import math
import struct
from importlib import resources
from pathlib import Path

import pytest

from wsnaslab import cli
from wsnaslab.bench import load_table
from wsnaslab.cli import main
from wsnaslab.config import ExperimentConfig
from wsnaslab.searchspace import enumerate_space


def tiny_config_dict(root: Path) -> dict:
    return {
        "space": {"n_nodes": 1, "ops": ["conv3x3", "conv1x1"]},
        "macro": {"init_channels": 4, "num_layers": 1, "num_classes": 3, "in_channels": 1},
        "protocol": {"epochs": 1, "batch_size": 8},
        "dataset": {"samples_per_class": 12, "image_size": 6},
        "metrics": {"num_eval_archs": 2, "eval_warning_floor": 1, "top_k": 1},
        "eval": {"supernet_seeds": [0, 1], "bn_mode": "batch"},
        "benchmark": {"path": str(root / "bench.jsonl"), "base_seed": 0, "run_seeds": [0, 1]},
        "output": {"directory": str(root / "runs")},
    }


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    """A config plus a built ground-truth table, shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(tiny_config_dict(root), indent=2))
    assert main(["build-benchmark", "--config", str(cfg)]) == 0
    return root


def config_path(root: Path) -> str:
    return str(root / "config.json")


@pytest.fixture(scope="module")
def prior_run(workdir) -> Path:
    """`run --out run_a` and `enumerate --out space.json` in the shared
    workdir, for the tests that read those files, in whatever order they run."""
    assert main(["run", "--config", config_path(workdir), "--out", str(workdir / "run_a")]) == 0
    assert main(["enumerate", "--config", config_path(workdir), "--out", str(workdir / "space.json")]) == 0
    return workdir


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


# ----------------------------------------------------------- exit codes

def test_missing_config_exits_4(tmp_path, capsys):
    assert main(["enumerate", "--config", str(tmp_path / "absent.json")]) == 4
    assert "error" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"protocol": {"epochs": 0}}))
    assert main(["enumerate", "--config", str(bad)]) == 2
    bad.write_text("{broken")
    assert main(["enumerate", "--config", str(bad)]) == 2


@pytest.mark.parametrize("key, value", [("num_classes", 4), ("num_classes", 2), ("in_channels", 3)])
def test_mismatched_class_or_channel_counts_exit_2_before_any_work(tmp_path, capsys, key, value):
    d = tiny_config_dict(tmp_path)
    d["dataset"][key] = value
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(d))
    assert main(["build-benchmark", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"macro.{key}" in err and f"dataset.{key}" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "bench.jsonl").exists()


def preset_dict(name: str) -> dict:
    return json.loads((resources.files("wsnaslab") / "presets" / f"{name}.json").read_text())


SUB_SPACE_FAULTS = {
    "fixed_k-0": ("micro-node-concat", 0, "fixed_k must be at least 1"),
    "fixed_k-n_nodes+1": ("micro-node-concat", 3, "supernet.fixed_k (3) exceeds 2"),
    "disabled-on-fixed-channels": ("edge-sum-fixed", 2, "supernet.fixed_k needs a dynamic-channel space"),
}
SUB_SPACE_COMMANDS = {
    "run": [],
    "histogram": ["--draws", "5"],
    "landscape": ["--half-points", "1", "--num-paths", "1", "--batch", "8"],
}


@pytest.mark.parametrize("command", list(SUB_SPACE_COMMANDS))
@pytest.mark.parametrize("fault", list(SUB_SPACE_FAULTS))
def test_fixed_k_outside_the_space_exits_2_at_load(tmp_path, capsys, fault, command):
    """No table is built, so a check after load would exit 4 for `run`."""
    preset, k, message = SUB_SPACE_FAULTS[fault]
    d = preset_dict(preset)
    d["supernet"].update(channel_strategy="disabled", fixed_k=k)
    d["benchmark"]["path"] = str(tmp_path / "bench.jsonl")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(d))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), *SUB_SPACE_COMMANDS[command]]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {cfg}: {message}")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""
    assert not out.exists()


def test_run_without_table_exits_4(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(tiny_config_dict(tmp_path)))
    assert main(["run", "--config", str(cfg)]) == 4


# ------------------------------------------------------------ enumerate

def test_enumerate_counts_and_listing(workdir, capsys):
    out = workdir / "space.json"
    assert main(["enumerate", "--config", config_path(workdir), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "raw encodings: 2" in stdout
    assert "unique architectures: 2" in stdout
    payload = json.loads(out.read_text())
    assert payload["unique_count"] == 2
    assert len(payload["architectures"]) == 2
    for h, info in payload["architectures"].items():
        assert info["multiplicity"] == 1
        assert info["encoding"]["nodes"] == 1


# ------------------------------------------------------ build-benchmark

def test_build_benchmark_refuses_a_batch_larger_than_the_training_fold(tmp_path, capsys):
    d = tiny_config_dict(tmp_path)
    d["protocol"]["batch_size"] = 64  # the 36-image pool leaves 32 for training
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(d))
    assert main(["build-benchmark", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "error: 32 training examples cannot fill a batch of 64\n"
    assert not (tmp_path / "bench.jsonl").exists()


def test_benchmark_table_written_by_fixture(workdir):
    table = load_table(workdir / "bench.jsonl")
    assert len(table.entries) == 4  # two architectures x two run seeds
    assert table.meta["run_seeds"] == [0, 1]
    assert set(table.meta["multiplicity"].values()) == {1}


# ------------------------------------------------------------------ run

def test_run_writes_report_and_reruns_byte_identical(workdir, capsys):
    out_a = workdir / "run_a"
    out_b = workdir / "run_b"
    assert main(["run", "--config", config_path(workdir), "--out", str(out_a)]) == 0
    stdout = capsys.readouterr().out
    assert "s_kdt:" in stdout and "p_surpass_random:" in stdout
    for name in (
        "metrics.csv", "ranks.csv", "config.json",
        "supernet_seed0.ckpt", "supernet_seed1.ckpt",
        "trainlog_seed0.csv", "trainlog_seed1.csv",
    ):
        assert (out_a / name).exists(), name

    assert main(["run", "--config", config_path(workdir), "--out", str(out_b)]) == 0
    for name in ("metrics.csv", "ranks.csv", "config.json", "supernet_seed0.ckpt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    rows = read_csv(out_a / "metrics.csv")
    assert len(rows) == 1
    assert rows[0]["p_surpass_random"] != "NA"
    float(rows[0]["supernet_accuracy"])

    ranks = read_csv(out_a / "ranks.csv")
    assert len(ranks) == 2
    assert {r["gt_rank"] for r in ranks} == {"1", "2"}
    assert {r["supernet_rank"] for r in ranks} == {"1", "2"}


@pytest.mark.usefixtures("prior_run")
def test_run_seed_changes_artifacts(workdir):
    out_c = workdir / "run_c"
    assert main(["run", "--config", config_path(workdir), "--out", str(out_c), "--seed", "9"]) == 0
    a = (workdir / "run_a" / "supernet_seed0.ckpt").read_bytes()
    c = (out_c / "supernet_seed0.ckpt").read_bytes()
    assert a != c


def test_run_with_corrupt_table_line_exits_4(workdir, tmp_path, capsys):
    corrupt = tmp_path / "corrupt.jsonl"
    lines = (workdir / "bench.jsonl").read_text().splitlines()
    corrupt.write_text("\n".join(lines[:2] + ['{"arch_hash": "truncated'] + lines[3:]) + "\n")
    assert main(["run", "--config", config_path(workdir), "--bench", str(corrupt),
                 "--out", str(tmp_path / "z")]) == 4
    assert capsys.readouterr().err.startswith(f"error: {corrupt}:3: bad entry")


def test_run_with_a_duplicate_table_line_exits_4(workdir, tmp_path, capsys):
    doubled = tmp_path / "doubled.jsonl"
    lines = (workdir / "bench.jsonl").read_text().splitlines()
    twin = dict(json.loads(lines[1]), test_accuracy=1.0)
    doubled.write_text("\n".join(lines + [json.dumps(twin)]) + "\n")
    assert main(["run", "--config", config_path(workdir), "--bench", str(doubled),
                 "--out", str(tmp_path / "z")]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {doubled}:{len(lines) + 1}: duplicate entry") and len(err.splitlines()) == 1
    assert not (tmp_path / "z").exists()


@pytest.mark.parametrize("key, value", [("spec", 5), ("macro", [])])
def test_run_with_a_table_header_section_that_is_not_an_object_exits_4(workdir, tmp_path, capsys, key, value):
    bad = tmp_path / "bad_header.jsonl"
    lines = (workdir / "bench.jsonl").read_text().splitlines()
    header = dict(json.loads(lines[0]), **{key: value})
    bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    assert main(["run", "--config", config_path(workdir), "--bench", str(bad),
                 "--out", str(tmp_path / "z")]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:1: ") and "must be an object" in err, err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "z").exists()


def test_run_with_mismatched_table_exits_3(workdir, tmp_path, capsys):
    d = tiny_config_dict(workdir)
    d["macro"]["init_channels"] = 8
    other = tmp_path / "other.json"
    other.write_text(json.dumps(d))
    assert main(["run", "--config", str(other), "--out", str(tmp_path / "x")]) == 3


def table_missing_one_architecture(workdir: Path, tmp_path: Path) -> Path:
    partial = tmp_path / "partial.jsonl"
    lines = (workdir / "bench.jsonl").read_text().splitlines()
    dropped = json.loads(lines[1])["arch_hash"]  # line 0 is the header
    kept = lines[:1] + [line for line in lines[1:] if json.loads(line)["arch_hash"] != dropped]
    partial.write_text("\n".join(kept) + "\n")
    return partial


def test_run_with_architectures_missing_from_the_table_exits_3(workdir, tmp_path, capsys):
    partial = table_missing_one_architecture(workdir, tmp_path)
    assert main(["run", "--config", config_path(workdir), "--bench", str(partial),
                 "--out", str(tmp_path / "x")]) == 3
    assert "1 evaluation architectures missing from the table" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_sweep_with_architectures_missing_from_the_table_makes_no_directory(workdir, tmp_path, capsys):
    partial = table_missing_one_architecture(workdir, tmp_path)
    assert main(["sweep", "--config", config_path(workdir), "--bench", str(partial),
                 "--out", str(tmp_path / "x")]) == 3
    assert "1 evaluation architectures missing from the table" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_run_tracked_eval_without_tracking_exits_2(workdir, tmp_path, capsys):
    d = tiny_config_dict(workdir)
    d["eval"]["bn_mode"] = "tracked"
    cfg = tmp_path / "tracked.json"
    cfg.write_text(json.dumps(d))
    for command in ("run", "sweep"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "y")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg}: eval.bn_mode 'tracked' needs protocol.bn_track true\n"
        assert not (tmp_path / "y").exists()


def test_run_with_disabled_slicing_ranks_its_sub_space(tmp_path, capsys):
    d = tiny_config_dict(tmp_path)
    d["space"] = {"n_nodes": 2, "ops": ["conv1x1"]}  # output in-degrees 1 and 2
    d["supernet"] = {
        "channel_strategy": "disabled", "fixed_k": 1,
        "dynamic_channel_train": False, "dynamic_channel_test": False,
    }
    d["benchmark"]["run_seeds"] = [0]
    cfg = tmp_path / "disabled.json"
    cfg.write_text(json.dumps(d))
    assert main(["build-benchmark", "--config", str(cfg)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    index = enumerate_space(ExperimentConfig.from_dict(d).space)
    in_degree_1 = {h for h in index.hashes if index.representatives[h].output_in_degree() == 1}
    assert 0 < len(in_degree_1) < index.unique_count
    assert {r["arch_hash"] for r in read_csv(tmp_path / "run" / "ranks.csv")} == in_degree_1


# ---------------------------------------------------------------- sweep

def test_sweep_writes_variant_grid(workdir, capsys):
    out = workdir / "sweep"
    assert main(["sweep", "--config", config_path(workdir), "--out", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")
    assert [r["variant"] for r in rows] == ["YY", "YN", "NN"]
    for name in ("YY", "YN", "NN"):
        assert (out / name / "metrics.csv").exists()
        assert (out / name / "ranks.csv").exists()


def test_sweep_requires_dynamic_space(workdir, tmp_path, capsys):
    d = tiny_config_dict(workdir)
    d["space"] = {
        "n_nodes": 1, "ops": ["conv3x3", "conv1x1"], "op_placement": "edge",
        "merge_rule": "sum", "channel_mode": "fixed",
    }
    cfg = tmp_path / "fixed.json"
    cfg.write_text(json.dumps(d))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2


def test_sweep_rejects_disabled_strategy(workdir, tmp_path, capsys):
    d = tiny_config_dict(workdir)
    d["supernet"] = {
        "channel_strategy": "disabled", "fixed_k": 1,
        "dynamic_channel_train": False, "dynamic_channel_test": False,
    }
    cfg = tmp_path / "disabled.json"
    cfg.write_text(json.dumps(d))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2


# ------------------------------------------------------------ histogram

def test_histogram_csv_contents(workdir, capsys):
    out = workdir / "hist.csv"
    assert main([
        "histogram", "--config", config_path(workdir),
        "--draws", "30", "--out", str(out),
        "--bench", str(workdir / "bench.jsonl"),
    ]) == 0
    rows = read_csv(out)
    assert len(rows) == 2
    assert sum(int(r["count"]) for r in rows) == 30
    assert {r["gt_rank"] for r in rows} == {"1", "2"}

    no_bench = workdir / "hist_nb.csv"
    assert main([
        "histogram", "--config", config_path(workdir),
        "--draws", "5", "--out", str(no_bench),
    ]) == 0
    assert {r["gt_rank"] for r in read_csv(no_bench)} == {"NA"}


def test_histogram_with_architectures_missing_from_the_table_exits_3(workdir, tmp_path, capsys):
    partial = tmp_path / "partial.jsonl"
    header, *lines = (workdir / "bench.jsonl").read_text().splitlines()
    dropped = json.loads(lines[-1])["arch_hash"]
    kept = [line for line in lines if json.loads(line)["arch_hash"] != dropped]
    partial.write_text("\n".join([header] + kept) + "\n")
    out = tmp_path / "hist.csv"
    assert main(["histogram", "--config", config_path(workdir), "--draws", "5",
                 "--out", str(out), "--bench", str(partial)]) == 3
    err = capsys.readouterr().err
    assert err == "error: 1 architectures of the space missing from the table\n"
    assert not out.exists()


def test_histogram_honours_fixed_k(tmp_path, capsys):
    preset = tmp_path / "preset.json"
    assert main(["presets", "--name", "micro-node-concat", "--out", str(preset)]) == 0
    d = json.loads(preset.read_text())
    d["supernet"] = {"channel_strategy": "disabled", "fixed_k": 1,
                     "dynamic_channel_train": False, "dynamic_channel_test": False}
    cfg = tmp_path / "disabled.json"
    cfg.write_text(json.dumps(d))
    out = tmp_path / "hist.csv"
    assert main(["histogram", "--config", str(cfg), "--draws", "20", "--out", str(out)]) == 0
    assert "visits over 18 architectures (fixed_k=1 sub-space of 42)" in capsys.readouterr().out
    index = enumerate_space(ExperimentConfig.from_dict(d).space)
    counts = {r["arch_hash"]: int(r["count"]) for r in read_csv(out)}
    assert len(counts) == 42 and sum(counts.values()) > 0
    for h, enc in index.representatives.items():
        if enc.output_in_degree() == 2:
            assert counts[h] == 0, h


# ------------------------------------------------------------ landscape

def test_landscape_grid_csv(workdir, capsys):
    out = workdir / "grid.csv"
    assert main([
        "landscape", "--config", config_path(workdir), "--out", str(out),
        "--half-points", "2", "--num-paths", "2", "--batch", "8",
    ]) == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 5 and all(len(r) == 5 for r in rows)
    for row in rows:
        for cell in row:
            assert cell == "nan" or isinstance(float(cell), float)


def test_landscape_on_the_shuffle_strategy_writes_the_same_finite_grid_twice(tmp_path, capsys):
    d = tiny_config_dict(tmp_path)
    d["supernet"] = {"channel_strategy": "shuffle"}
    cfg = tmp_path / "shuffle.json"
    cfg.write_text(json.dumps(d))
    grids = []
    for name in ("a.csv", "b.csv"):
        assert main(["landscape", "--config", str(cfg), "--out", str(tmp_path / name),
                     "--half-points", "1", "--num-paths", "2", "--batch", "8"]) == 0
        grids.append((tmp_path / name).read_bytes())
    assert grids[0] == grids[1]
    with open(tmp_path / "a.csv", newline="") as f:
        cells = [float(cell) for row in csv.reader(f) for cell in row]
    assert len(cells) == 9 and all(math.isfinite(c) for c in cells)


@pytest.mark.usefixtures("prior_run")
def test_landscape_single_arch_and_checkpoint_reuse(workdir, capsys):
    listing = json.loads((workdir / "space.json").read_text())
    arch = sorted(listing["architectures"])[0]
    out = workdir / "grid_arch.csv"
    ckpt = workdir / "run_a" / "supernet_seed0.ckpt"
    assert main([
        "landscape", "--config", config_path(workdir), "--out", str(out),
        "--arch", arch, "--ckpt", str(ckpt),
        "--half-points", "1", "--batch", "8",
    ]) == 0
    assert out.exists()

    assert main([
        "landscape", "--config", config_path(workdir), "--out", str(out),
        "--arch", "0000000000000000", "--half-points", "1", "--batch", "8",
    ]) == 3


def test_library_value_error_exits_2(tmp_path, capsys):
    d = tiny_config_dict(tmp_path)
    d["space"]["n_nodes"] = 6  # 27 candidate edges, over the skeleton enumeration guard
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps(d))
    assert main(["enumerate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot enumerate skeletons over 27 candidate edges")
    assert "Traceback" not in err and len(err.splitlines()) == 1


def _no_dataset(*args, **kwargs):
    raise AssertionError("a dataset was generated")


@pytest.mark.parametrize("flag, value", [
    ("--batch", "-5"), ("--batch", "0"), ("--batch", "1"),
    ("--num-paths", "0"), ("--half-points", "0"), ("--radius", "0"), ("--radius", "-1.5"),
])
def test_landscape_refuses_bad_values_when_parsing(tmp_path, capsys, monkeypatch, flag, value):
    monkeypatch.setattr(cli, "generate_dataset", _no_dataset)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(tiny_config_dict(tmp_path)))
    out = tmp_path / "grid.csv"
    with pytest.raises(SystemExit) as exit_info:
        main(["landscape", "--config", str(cfg), "--out", str(out), flag, value])
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be greater than" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_landscape_refuses_a_radius_that_is_not_finite_when_parsing(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setattr(cli, "generate_dataset", _no_dataset)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(tiny_config_dict(tmp_path)))
    out = tmp_path / "grid.csv"
    with pytest.raises(SystemExit) as exit_info:
        main(["landscape", "--config", str(cfg), "--out", str(out), "--radius", value])
    assert exit_info.value.code == 2
    assert f"argument --radius: must be finite, got {value}" in capsys.readouterr().err
    assert not out.exists()


def _no_training(*args, **kwargs):
    raise AssertionError("a super-net was trained")


@pytest.mark.parametrize("fixed_k", [None, 1])
def test_landscape_refuses_an_unranked_architecture_before_any_work(tmp_path, capsys, monkeypatch, fixed_k):
    """An unknown hash, or a hash outside the fixed_k sub-space, exits 3
    before the dataset is generated or a super-net is trained."""
    monkeypatch.setattr(cli, "generate_dataset", _no_dataset)
    monkeypatch.setattr(cli, "train_supernet", _no_training)
    d = tiny_config_dict(tmp_path)
    d["space"] = {"n_nodes": 2, "ops": ["conv1x1"]}  # output in-degrees 1 and 2
    if fixed_k is not None:
        d["supernet"] = {"channel_strategy": "disabled", "fixed_k": fixed_k,
                         "dynamic_channel_train": False, "dynamic_channel_test": False}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(d))
    index = enumerate_space(ExperimentConfig.from_dict(d).space)
    foreign = [h for h in index.hashes if index.representatives[h].output_in_degree() == 2]
    arches = ["0000000000000000"] + (foreign[:1] if fixed_k is not None else [])
    out = tmp_path / "grid.csv"
    for arch in arches:
        assert main(["landscape", "--config", str(cfg), "--out", str(out), "--arch", arch,
                     "--half-points", "1", "--batch", "8"]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: architecture {arch!r} not in space {index.spec.space_id}, fixed_k={fixed_k}\n"
        assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("build-benchmark", "--jobs", "0"), ("build-benchmark", "--jobs", "-2"),
    ("histogram", "--draws", "0"), ("histogram", "--draws", "-3"),
])
def test_job_and_draw_counts_below_one_are_refused_when_parsing(tmp_path, capsys, command, flag, value):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(tiny_config_dict(tmp_path)))
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", str(cfg), "--out", str(out), flag, value])
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be greater than 0, got {value}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command", list(SUB_SPACE_COMMANDS))
def test_ofa_kernel_without_both_kernels_exits_2_at_load(tmp_path, capsys, monkeypatch, command):
    """No table is built, so a check after load would exit 4 for `run`."""
    monkeypatch.setattr(cli, "generate_dataset", _no_dataset)
    d = tiny_config_dict(tmp_path)
    d["space"]["ops"] = ["conv3x3"]
    d["supernet"] = {"ofa_kernel": True}
    cfg = tmp_path / "ofa.json"
    cfg.write_text(json.dumps(d))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), *SUB_SPACE_COMMANDS[command]]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg}: supernet.ofa_kernel needs both conv3x3 and conv1x1 in space.ops\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.usefixtures("prior_run")
def test_landscape_checkpoint_errors(workdir, tmp_path, capsys):
    assert main([
        "landscape", "--config", config_path(workdir),
        "--out", str(tmp_path / "g.csv"), "--ckpt", str(tmp_path / "absent.ckpt"),
        "--half-points", "1", "--batch", "8",
    ]) == 4

    raw = (workdir / "run_a" / "supernet_seed0.ckpt").read_bytes()
    bare = tmp_path / "bare.ckpt"
    bare.write_bytes(raw[raw.index(b"NNPS"):])  # the store block without its header record
    capsys.readouterr()
    assert main([
        "landscape", "--config", config_path(workdir),
        "--out", str(tmp_path / "g.csv"), "--ckpt", str(bare),
        "--half-points", "1", "--batch", "8",
    ]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: bad checkpoint magic b'NNPS'") and len(err.splitlines()) == 1
    assert not (tmp_path / "g.csv").exists()

    # a well-formed header record whose text is not a JSON object with an integer seed
    for text in (b"not json", b"[1]", b'{"seed": "0"}', b"\xff"):
        bad = tmp_path / "bad_header.ckpt"
        bad.write_bytes(b"NNCK" + struct.pack("<II", 1, len(text)) + text + raw[raw.index(b"NNPS"):])
        assert main([
            "landscape", "--config", config_path(workdir),
            "--out", str(tmp_path / "g.csv"), "--ckpt", str(bad),
            "--half-points", "1", "--batch", "8",
        ]) == 4, text
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err and len(err.splitlines()) == 1, err
    assert not (tmp_path / "g.csv").exists()

    d = tiny_config_dict(workdir)
    d["macro"]["init_channels"] = 8
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps(d))
    assert main([
        "landscape", "--config", str(cfg),
        "--out", str(tmp_path / "g.csv"),
        "--ckpt", str(workdir / "run_a" / "supernet_seed0.ckpt"),
        "--half-points", "1", "--batch", "8",
    ]) == 3


# ------------------------------------------------------------- gradcheck

def test_gradcheck_passes_at_default_tolerance(capsys):
    assert main(["gradcheck", "--max-elements", "4"]) == 0
    stdout = capsys.readouterr().out
    assert "max relative error" in stdout
    assert "ok (tolerance" in stdout


@pytest.mark.parametrize("count", ["0", "-3"])
def test_gradcheck_refuses_to_probe_fewer_than_one_element(capsys, count):
    assert main(["gradcheck", "--max-elements", count]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: max_elements_per_param must be at least 1, got {count}\n"
    assert captured.out == ""


@pytest.mark.parametrize("epsilon", ["0", "nan"])
def test_gradcheck_refuses_an_epsilon_that_is_not_positive_and_finite(capsys, epsilon):
    assert main(["gradcheck", "--epsilon", epsilon]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: epsilon must be positive and finite, got {float(epsilon)}\n"
    assert captured.out == ""


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
def test_gradcheck_refuses_a_tolerance_that_is_not_positive_and_finite(capsys, tolerance):
    with pytest.raises(SystemExit) as exit_info:
        main(["gradcheck", "--max-elements", "1", "--tolerance", tolerance])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    message = "must be finite" if tolerance in ("nan", "inf") else "must be greater than 0"
    assert f"argument --tolerance: {message}, got {tolerance}" in captured.err
    assert captured.out == ""


def test_gradcheck_fails_at_impossible_tolerance(capsys):
    assert main(["gradcheck", "--max-elements", "2", "--tolerance", "1e-15"]) == 1
    assert "FAIL" in capsys.readouterr().out


# --------------------------------------------------------------- presets

def test_presets_list_and_emit(tmp_path, capsys):
    assert main(["presets"]) == 0
    names = capsys.readouterr().out.split()
    assert len(names) >= 3
    for name in names:
        out = tmp_path / f"{name}.json"
        assert main(["presets", "--name", name, "--out", str(out)]) == 0
        config = ExperimentConfig.from_dict(json.loads(out.read_text()))
        assert config.protocol.epochs >= 1

    assert main(["presets", "--name", "not-a-preset"]) == 2
