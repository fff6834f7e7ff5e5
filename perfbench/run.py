"""Benchmark entry point: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload gt-table --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; wsnaslab is imported from its src/.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones. A record of the run
goes to perfbench/out/.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """At most one BLAS thread per usable core; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def blas_facts() -> dict:
    """numpy's BLAS build and the thread count it runs with, asked of OpenBLAS."""
    import ctypes
    import glob

    import numpy as np

    facts = {"numpy": np.__version__, "env": {v: os.environ[v] for v in BLAS_VARS}}
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for key, symbol, restype in (("threads", "get_num_threads", ctypes.c_int),
                                     ("config", "get_config", ctypes.c_char_p)):
            fn = getattr(lib, f"scipy_openblas_{symbol}64_", None) or getattr(lib, f"openblas_{symbol}", None)
            if fn is not None:
                fn.restype = restype
                value = fn()
                facts[key] = value.decode() if isinstance(value, bytes) else value
    return facts


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("gt-table", "supernet-run", "rank-n3"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measure whole rounds for about this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_blas_threads()
    src = ROOT / "src"
    sys.path[:0] = [str(HERE), str(src)]
    try:
        import numpy  # noqa: F401

        import wsnaslab.cli  # noqa: F401  (loads every module the workloads touch)
    except ImportError as e:
        print(f"error: cannot import wsnaslab from {src}: {e}", file=sys.stderr)
        return 2
    if src not in Path(wsnaslab.cli.__file__).resolve().parents:
        print(f"error: wsnaslab was imported from {wsnaslab.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    import oracles
    import tracing
    import workloads
    from workloads import WORKLOADS, Checks

    import_s = time.perf_counter() - T0
    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    for failure in oracles.self_test():
        checks(False, failure)

    workload = WORKLOADS[args.workload](out)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install(callers=[workloads])
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(args.seed)
        setup_times.append(time.perf_counter() - start)
    if tracer:
        tracer.phase = "check"
    workload.check_setup(checks)

    round_times, attempted, failed, delivered = [], 0, 0, 0
    # stop at the round boundary nearest to --seconds
    while not round_times or sum(round_times) + round_times[-1] / 2 < args.seconds:
        if tracer:
            tracer.phase = "round"
        start = time.perf_counter()
        result = workload.run_round()
        round_times.append(time.perf_counter() - start)
        if len(round_times) == 1:
            # the allocator keeps some memory between rounds, so later rounds would
            # make the peak depend on how many rounds fit in --seconds
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.phase = "check"
        a, f, d = workload.check_round(result, checks)
        attempted, failed, delivered = attempted + a, failed + f, delivered + d

    wall_s = statistics.median(round_times)
    if tracer:
        tracer.uninstall()
        spans = OUT / "spans"
        spans.mkdir(exist_ok=True)
        tracer.write(spans / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = tracing.layer_metrics(tracer, len(round_times))
        metrics.update(tracing.isolated_primitives())
        metrics["trace.wall_s"] = (wall_s, "s")
    else:
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "wall_s": (wall_s, "s"),
            "archs_per_s": (delivered / sum(round_times), "archs/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": nproc,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "blas": blas_facts(),
            "settings_changed": "none: no cache drops, no CPU pinning, no frequency or governor settings",
        },
        "import_s": import_s,
        "setup_times_s": setup_times,
        "round_times_s": round_times,
        "check_failures": checks.failures,
        **result,
    }
    records = OUT / "records"
    records.mkdir(exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result), file=sys.__stdout__, flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    with contextlib.redirect_stdout(sys.stderr):
        sys.exit(main())
