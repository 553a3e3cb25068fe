"""csflow benchmark: three workloads, end-to-end metrics, and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload flagship-dumbbell --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 1

One invocation runs one workload in this process, with BLAS threads pinned
to 1. It sets the workload up several times, then repeats it until
``--seconds`` of timed work are spent, checks every operation's output, and
prints each metric by name with its unit. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics, or with ``--trace 1`` the per-layer ones).
``--workload all`` runs every workload in its own process, one after
another, and prints a table of all of them.

With ``--trace 1`` untraced and traced repetitions alternate; the traced
ones time the public functions of each csflow module through the wrappers
in ``spans.py``. Results and spans are written under ``perfbench/out/``.
The sources are imported from ``src/`` next to this directory; without
them the benchmark exits with status 2 and prints no result.
"""

import os

# pin BLAS threads before NumPy is imported
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("flagship-dumbbell", "flow-n1024", "profile-table")
SETUP_REPS = 3
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _fresh_import_seconds() -> float:
    """Import time of csflow and the benchmark's modules in a new interpreter."""
    probe = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
        "import spans, workloads; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(ROOT / "src"), str(BENCH_DIR)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def host_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
        "platform": platform.platform(),
    }


def measure(workload, seconds: float, tracer) -> list[dict]:
    """Repeat the workload until ``seconds`` of timed work are spent.

    A repetition starts only if at least half of one as long as the last
    would still fit, so a run spends about ``seconds`` on average. With a
    tracer, repetitions alternate untraced and traced, at least one of each.
    """
    reps = []
    spent = 0.0
    while True:
        index = len(reps)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install(index)
        try:
            outcomes = workload.rep()
        finally:
            if traced:
                tracer.uninstall()
        wall = sum(o.seconds for o in outcomes)
        reps.append({"rep": index, "traced": traced, "wall_s": wall, "outcomes": outcomes})
        spent += wall
        have_both = tracer is None or index >= 1
        if have_both and spent + wall / 2 > seconds:
            return reps


def wall_estimate(reps: list[dict]) -> float:
    """Time of one repetition: the sum over its operations of each one's
    median across ``reps``.

    With one operation per repetition this is the median repetition. With
    several it sets aside a slow stretch of the host that hit one operation
    in one repetition and another in the next, which a median of whole
    repetitions would keep.
    """
    times: dict[str, list[float]] = {}
    for r in reps:
        for o in r["outcomes"]:
            times.setdefault(o.op, []).append(o.seconds)
    return sum(statistics.median(t) for t in times.values())


def run_workload(args) -> int:
    load_before = os.getloadavg()[0]
    src = ROOT / "src"
    if not (src / "csflow" / "__init__.py").is_file():
        print(f"error: no csflow sources under {src}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import spans
    import workloads  # imports csflow

    import_s = time.perf_counter() - t0

    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
    tracer = spans.Tracer() if args.trace else None
    try:
        # the import happens once per process, so later set-ups time it afresh
        import_times = [import_s]
        setup_times = []
        for i in range(SETUP_REPS):
            if i:
                import_times.append(_fresh_import_seconds())
            t = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t)
        if args.write_reference:
            if workload.reference_path is None:
                print("error: no reference applies to this seed and size", file=sys.stderr)
                return 2
            path = workload.write_reference()
            print(f"wrote {path.relative_to(ROOT)}")
            return 0
        reps = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_after = os.getloadavg()[0]

    untraced = [r["wall_s"] for r in reps if not r["traced"]]
    q1, q3 = _quartiles(untraced)
    import_median = statistics.median(import_times)
    setup_median = statistics.median(setup_times)
    end_to_end = {
        "wall_s": wall_estimate([r for r in reps if not r["traced"]]),
        "setup_s": import_median + setup_median,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    outcomes = [(r["rep"], o) for r in reps for o in r["outcomes"]]
    failures = [f"rep {i} {o.op}: {o.failure}" for i, o in outcomes if o.failure]
    attempted, failed = len(outcomes), len(failures)

    per_layer = None
    if tracer is not None:
        traced = [r for r in reps if r["traced"]]
        per_layer = spans.median_metrics([tracer.layer_metrics(r["rep"]) for r in traced])
        traced_wall = wall_estimate(traced)
        per_layer["trace.untraced_wall_s"] = end_to_end["wall_s"]
        per_layer["trace.traced_wall_s"] = traced_wall
        per_layer["trace.overhead_s"] = traced_wall - end_to_end["wall_s"]

    host = host_record()
    print(
        f"csflow benchmark: workload {args.workload}, seed {args.seed}, "
        f"size {args.size}, trace {args.trace}"
    )
    print("host: " + json.dumps(host, sort_keys=True))
    print(f"load average (1 min): {load_before:.2f} before, {load_after:.2f} after")
    print(
        f"wall_s       {end_to_end['wall_s']:.4f} s    per-operation medians over "
        f"{len(untraced)} untraced repetitions, which took {q1:.4f} .. {q3:.4f} s "
        f"(quartiles)"
    )
    print(
        f"setup_s      {end_to_end['setup_s']:.4f} s    median of {SETUP_REPS} imports "
        f"{import_median:.4f} s + median of {SETUP_REPS} set-ups {setup_median:.4f} s"
    )
    print(f"peak_rss_mb  {end_to_end['peak_rss_mb']:.1f} MiB")
    print(f"error_rate   {failed / attempted:.4g}    {failed} failed of {attempted} operations")
    for line in failures:
        print("failure: " + line)
    if per_layer is not None:
        print(f"per-layer, median of {len(traced)} traced repetitions:")
        for name, unit in spans.LAYER_UNITS.items():
            print(f"  {name:<42} {per_layer[name]:.6g} {unit}")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.{args.size}.trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host,
        "load_1min": {"before": load_before, "after": load_after},
        "import_times_s": import_times,
        "setup_times_s": setup_times,
        "reps": [
            {
                "rep": r["rep"],
                "traced": r["traced"],
                "wall_s": r["wall_s"],
                "ops": {o.op: o.seconds for o in r["outcomes"]},
            }
            for r in reps
        ],
        "wall_s_quartiles": [q1, q3],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        (OUT_DIR / f"{stem}.spans.json").write_text(json.dumps(tracer.to_json()) + "\n")

    if per_layer is None:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    else:
        metrics = {k: {"value": per_layer[k], "unit": u} for k, u in spans.LAYER_UNITS.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one table of all of them."""
    records = {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size,
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: {name} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode
        stem = f"{name}.seed{args.seed}.{args.size}.trace{args.trace}"
        records[name] = json.loads((OUT_DIR / f"{stem}.json").read_text())

    print()
    print("| metric | unit | " + " | ".join(records) + " |")
    print("| --- | --- |" + " ---: |" * len(records))
    for metric, unit in END_TO_END_UNITS.items():
        cells = [f"{r['end_to_end'][metric]:.4g}" for r in records.values()]
        print(f"| {metric} | {unit} | " + " | ".join(cells) + " |")
    cells = [f"{r['failed']}/{r['attempted']}" for r in records.values()]
    print("| error_rate | failed/attempted | " + " | ".join(cells) + " |")
    from spans import LAYER_UNITS

    if args.trace:
        for metric, unit in LAYER_UNITS.items():
            cells = [f"{r['per_layer'][metric]:.4g}" for r in records.values()]
            print(f"| {metric} | {unit} | " + " | ".join(cells) + " |")

    combined = OUT_DIR / f"all.seed{args.seed}.{args.size}.trace{args.trace}.json"
    combined.write_text(json.dumps(records, indent=2) + "\n")
    print(f"combined record: {combined.relative_to(ROOT)}")
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    key = "per_layer" if args.trace else "end_to_end"
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            f"{name}.{metric}": {"value": r[key][metric], "unit": unit}
            for name, r in records.items()
            for metric, unit in units.items()
        },
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0, help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload for the self-test",
    )
    parser.add_argument(
        "--write-reference", action="store_true",
        help="store this workload's output as the reference for its seed",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
