"""Build every shipped preset at one epoch and print the sha256 of each artifact.

    python3 tools/artifact_digest.py [--workdir DIR]

For each preset the script writes a config with `protocol.epochs: 1`, one
benchmark run seed and one super-net seed, then runs `build-benchmark`,
`run` and `enumerate --out` from inside `DIR/<preset>/`. Every path in the
config is relative to that directory, because `run` copies the config into
its outputs. It prints one `<sha256>  <preset>/<file>` line per artifact:
the table, the checkpoint, the train log, `metrics.csv`, `ranks.csv`,
`config.json` and the enumeration listing. A refactor that claims no
behaviour change must print the same lines as its parent commit.

wsnaslab is imported from the `src/` next to this script.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile
from importlib import resources
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wsnaslab.cli import main as wsnaslab_main  # noqa: E402

ARTIFACTS = (
    "table.jsonl",
    "run/supernet_seed0.ckpt",
    "run/trainlog_seed0.csv",
    "run/metrics.csv",
    "run/ranks.csv",
    "run/config.json",
    "enumeration.json",
)


def shipped_presets() -> list[str]:
    root = resources.files("wsnaslab").joinpath("presets")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def one_epoch_config(preset: str) -> dict:
    config = json.loads(resources.files("wsnaslab").joinpath("presets", preset + ".json").read_text())
    config["protocol"]["epochs"] = 1
    config["benchmark"]["run_seeds"] = [0]
    config["benchmark"]["path"] = "table.jsonl"
    config["eval"]["supernet_seeds"] = [0]
    config["output"]["directory"] = "run"
    return config


def build_preset(preset: str, directory: Path) -> None:
    directory.mkdir(parents=True)
    (directory / "config.json").write_text(json.dumps(one_epoch_config(preset), indent=2) + "\n")
    commands = (
        ["build-benchmark", "--config", "config.json"],
        ["run", "--config", "config.json", "--seed", "0"],
        ["enumerate", "--config", "config.json", "--out", "enumeration.json"],
    )
    cwd = Path.cwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            for argv in commands:
                code = wsnaslab_main(argv)
                if code != 0:
                    raise SystemExit(f"{preset}: wsnaslab {' '.join(argv)} exited {code}")
    finally:
        os.chdir(cwd)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workdir", default=None, help="where the presets are built (default: a temporary directory)")
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as stack:
        workdir = Path(args.workdir or stack.enter_context(tempfile.TemporaryDirectory()))
        for preset in shipped_presets():
            build_preset(preset, workdir / preset)
            for name in ARTIFACTS:
                digest = hashlib.sha256((workdir / preset / name).read_bytes()).hexdigest()
                print(f"{digest}  {preset}/{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
