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

The presets are built twice, each time in a fresh Python process, with
OpenBLAS on one thread and on two (in `DIR/openblas1/` and
`DIR/openblas2/`). The artifacts must not depend on the thread count: the
script prints the one list when both builds agree, and otherwise names
the files that differ on standard error and exits 1.

wsnaslab is imported from the `src/` next to this script.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

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
    from wsnaslab.cli import main as wsnaslab_main

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


def digests(workdir: Path) -> list[str]:
    """Build every preset under workdir; one `<sha256>  <preset>/<file>` line per artifact."""
    lines = []
    for preset in shipped_presets():
        build_preset(preset, workdir / preset)
        for name in ARTIFACTS:
            digest = hashlib.sha256((workdir / preset / name).read_bytes()).hexdigest()
            lines.append(f"{digest}  {preset}/{name}")
    return lines


def digests_with_threads(workdir: Path, threads: int) -> list[str]:
    """digests(workdir) in a fresh process, so that OpenBLAS reads its thread count at load."""
    code = (
        "import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
        "import artifact_digest; print(*artifact_digest.digests(Path(sys.argv[2])), sep='\\n')"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).resolve().parent), str(workdir)],
        env=dict(os.environ, OPENBLAS_NUM_THREADS=str(threads)),
        stdout=subprocess.PIPE,
        text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"the build with OPENBLAS_NUM_THREADS={threads} exited {done.returncode}")
    return done.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workdir", default=None, help="where the presets are built (default: a temporary directory)")
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as stack:
        workdir = Path(args.workdir or stack.enter_context(tempfile.TemporaryDirectory()))
        one, two = (digests_with_threads(workdir / f"openblas{t}", t) for t in (1, 2))
    differing = sorted({line.split("  ", 1)[1] for line in set(one) ^ set(two)})
    if differing:
        print("artifacts differ between OPENBLAS_NUM_THREADS=1 and =2:", *differing, sep="\n  ", file=sys.stderr)
        return 1
    print(*one, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
