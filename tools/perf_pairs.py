"""Compare two checkouts on one benchmark workload in alternating-order pairs.

    python3 tools/perf_pairs.py PARENT_DIR CHANGE_DIR --workload rank-n3 \\
        --pairs 10 --seconds 30 --seed-base 9100 > BENCH_<name>.json

Pair i runs `perfbench/run.py --workload W --seed B+i --seconds S --trace 0`
once in each checkout, each with that checkout's own `perfbench/` and
`src/`, one run at a time. Even pairs run the parent first and odd pairs
the change first, so a drift of the machine's speed over minutes falls on
both sides alike. The JSON on standard output gives, for each end-to-end
metric, the median and quartiles of each side, the change of the median,
whether the medians differ by more than the parent's interquartile range,
and in how many pairs the change did better (direction from the change's
`BENCHMARK.json`). Every run's own result line is kept under `runs`.
Progress goes to standard error. The exit code is 1 when a run fails or
reports `correct: false`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed-base", type=int, required=True, help="pair i runs with seed B+i on both sides")
    return p.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: no result line (exit {proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def directions(checkout: Path) -> dict[str, str]:
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.pairs < 2:
        print("error: need at least two pairs", file=sys.stderr)
        return 2
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    better = directions(dirs["change"])
    runs = []
    ok = True
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"pair": i, "seed": seed, "order": list(order)}
        for side in order:
            start = time.time()
            result = run_once(dirs[side], args.workload, seed, args.seconds)
            ok &= result["exit_code"] == 0 and result["correct"]
            pair[side] = result
            metrics = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"pair {i} seed {seed} {side}: {metrics} ({time.time() - start:.0f} s)", file=sys.stderr)
        runs.append(pair)

    report = {}
    for name, direction in better.items():
        values = {side: [r[side]["metrics"][name]["value"] for r in runs] for side in SIDES}
        sign = 1.0 if direction == "higher" else -1.0
        stats = {side: summary(values[side]) for side in SIDES}
        gap = stats["change"]["median"] - stats["parent"]["median"]
        report[name] = {
            "unit": runs[0]["parent"]["metrics"][name]["unit"],
            "better": direction,
            **stats,
            "median_change_pct": 100.0 * gap / stats["parent"]["median"],
            "gap_exceeds_parent_iqr": abs(gap) > stats["parent"]["iqr"],
            "pairs_won": sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])),
        }
    out = {
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": [args.seed_base + i for i in range(args.pairs)],
        "host": {"cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                 "machine": platform.machine()},
        "metrics": report,
        "runs": runs,
    }
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
