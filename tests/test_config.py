"""Experiment configuration files: strict sections, round trips."""

from __future__ import annotations

import json

import pytest

from wsnaslab.config import (
    CONFIG_SECTIONS,
    BenchmarkSettings,
    EvalSettings,
    ExperimentConfig,
    OutputSettings,
    load_config,
)


def test_default_config_round_trips():
    config = ExperimentConfig()
    assert set(config.to_dict()) == set(CONFIG_SECTIONS)
    assert ExperimentConfig.from_dict(config.to_dict()) == config


def test_partial_config_uses_section_defaults():
    config = ExperimentConfig.from_dict({"protocol": {"epochs": 5}})
    assert config.protocol.epochs == 5
    assert config.space == ExperimentConfig().space
    config = ExperimentConfig.from_dict({"space": {"ops": ["conv3x3", "conv1x1"]}})
    assert config.space.ops == ("conv3x3", "conv1x1")
    assert config.space.n_nodes == ExperimentConfig().space.n_nodes


def test_unknown_section_and_key_rejected():
    with pytest.raises(ValueError, match="unknown keys in config"):
        ExperimentConfig.from_dict({"spade": {}})
    with pytest.raises(ValueError, match="unknown protocol keys"):
        ExperimentConfig.from_dict({"protocol": {"optimizer": "adam"}})
    with pytest.raises(ValueError, match="must be an object"):
        ExperimentConfig.from_dict({"protocol": 5})


def test_eval_settings_validation():
    with pytest.raises(ValueError):
        EvalSettings(supernet_seeds=())
    with pytest.raises(ValueError):
        EvalSettings(supernet_seeds=(0, 0))
    with pytest.raises(ValueError):
        EvalSettings(bn_mode="running")
    s = EvalSettings.from_dict({"supernet_seeds": [3, 4], "bn_mode": "tracked"})
    assert s.supernet_seeds == (3, 4)


def test_benchmark_settings_validation():
    with pytest.raises(ValueError):
        BenchmarkSettings(run_seeds=())
    with pytest.raises(ValueError):
        BenchmarkSettings(run_seeds=(1, 1))
    b = BenchmarkSettings.from_dict({"path": "x.jsonl", "base_seed": 7, "run_seeds": [0]})
    assert b.base_seed == 7 and b.run_seeds == (0,)


def test_output_settings_round_trip():
    o = OutputSettings(directory="runs/exp1")
    assert OutputSettings.from_dict(o.to_dict()) == o


def test_load_config_error_paths(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "absent.json")

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_config(bad)

    bad.write_text("[1, 2]")
    with pytest.raises(ValueError, match="top level"):
        load_config(bad)

    bad.write_text(json.dumps({"protocol": {"epochs": 0}}))
    with pytest.raises(ValueError, match="bad.json"):
        load_config(bad)


@pytest.mark.parametrize("section, key, value", [
    ("macro", "init_channels", 8.7),
    ("protocol", "epochs", 2.5),
    ("benchmark", "base_seed", True),
    ("supernet", "wsbn", 1),
    ("supernet", "fixed_k", "1"),
    ("dataset", "kind", 3),
    ("eval", "supernet_seeds", [0, 1.0]),
])
def test_mistyped_values_fail_at_load(tmp_path, section, key, value):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({section: {key: value}}))
    with pytest.raises(ValueError, match=f"{section}.{key}"):
        load_config(path)


@pytest.mark.parametrize("macro, dataset", [
    ({"num_classes": 3}, {"num_classes": 4}),
    ({"num_classes": 3}, {"num_classes": 2}),
    ({"in_channels": 1}, {"in_channels": 3}),
])
def test_class_and_channel_counts_must_agree_at_load(tmp_path, macro, dataset):
    (key,) = macro
    path = tmp_path / "counts.json"
    path.write_text(json.dumps({"macro": macro, "dataset": dataset}))
    with pytest.raises(ValueError, match=rf"counts.json: macro\.{key} \(\d\) must equal dataset\.{key} \(\d\)"):
        load_config(path)
    matching = ExperimentConfig.from_dict({"macro": {key: dataset[key]}, "dataset": dataset})
    assert getattr(matching.macro, key) == getattr(matching.dataset, key) == dataset[key]


EDGE_SUM_FIXED = {"n_nodes": 2, "ops": ["conv3x3", "conv1x1"], "op_placement": "edge",
                  "merge_rule": "sum", "channel_mode": "fixed"}


@pytest.mark.parametrize("config, error, fixed", [
    pytest.param({"supernet": {"channel_strategy": "disabled", "fixed_k": 0}},
                 "fixed_k must be at least 1", {"supernet": {"fixed_k": 1}}, id="fixed_k-0"),
    pytest.param({"supernet": {"channel_strategy": "disabled", "fixed_k": 3}},
                 r"supernet\.fixed_k \(3\) exceeds 2, the largest output in-degree", {"supernet": {"fixed_k": 2}},
                 id="fixed_k-n_nodes+1"),
    pytest.param({"space": {"topology_mode": "chain"}, "supernet": {"channel_strategy": "disabled", "fixed_k": 2}},
                 r"supernet\.fixed_k \(2\) exceeds 1,", {"supernet": {"fixed_k": 1}}, id="fixed_k-2-on-a-chain"),
    pytest.param({"space": EDGE_SUM_FIXED, "supernet": {"channel_strategy": "disabled", "fixed_k": 2}},
                 "supernet.fixed_k needs a dynamic-channel space",
                 {"space": {"channel_mode": "dynamic", "op_placement": "node", "merge_rule": "concat"}},
                 id="disabled-on-fixed-channels"),
    pytest.param({"eval": {"bn_mode": "tracked"}},
                 "eval.bn_mode 'tracked' needs protocol.bn_track true", {"protocol": {"bn_track": True}},
                 id="tracked-eval-untracked-bn"),
    pytest.param({"space": {"n_nodes": 1, "ops": ["conv3x3", "avgpool3x3"]}, "supernet": {"ofa_kernel": True}},
                 "supernet.ofa_kernel needs both conv3x3 and conv1x1 in space.ops",
                 {"space": {"ops": ["conv3x3", "conv1x1", "avgpool3x3"]}}, id="ofa-kernel-without-conv1x1"),
])
def test_rules_across_sections_fail_at_load(tmp_path, config, error, fixed):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ValueError, match=f"rules.json: {error}"):
        load_config(path)
    # the same config with the offending value mended loads
    ExperimentConfig.from_dict({s: {**config.get(s, {}), **fixed.get(s, {})} for s in {*config, *fixed}})


def test_float_fields_keep_ints_and_optional_fields_take_null():
    config = ExperimentConfig.from_dict({"protocol": {"learning_rate": 1}, "supernet": {"fixed_k": None}})
    assert config.to_dict()["protocol"]["learning_rate"] == 1
    assert type(config.protocol.learning_rate) is int
    assert config.supernet.fixed_k is None


def test_save_and_load_config_round_trip(tmp_path):
    config = ExperimentConfig.from_dict({
        "space": {"n_nodes": 1, "ops": ["conv3x3", "conv1x1"]},
        "protocol": {"epochs": 2, "batch_size": 8},
        "eval": {"supernet_seeds": [0, 1], "bn_mode": "batch"},
    })
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")
    assert load_config(path) == config
