"""Benchmark of bornverifier: closed loop, one caller, one thread.

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 30 --trace 0

Each workload is a fixed round of ops made from ``--seed``; the run
repeats whole rounds until ``--seconds`` have passed, checks every
output, and prints one JSON line last.  ``--trace 0`` reports the
end-to-end metrics, with the op timings scaled to the reference speed
of ``calibration``; ``--trace 1`` routes the program's layers through
``tracing`` and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify-suite", "probe-sweep", "experiments")
SETUP_SAMPLES = 7
SINGLE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import the package, build the inputs, print 'ready' and exit",
    )
    return parser.parse_args(argv)


def _build(args):
    """Everything between a fresh interpreter and the first op."""
    if not (ROOT / "src" / "bornverifier").is_dir():
        raise FileNotFoundError(f"no package source at {ROOT / 'src' / 'bornverifier'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads.build(args.workload, args.seed, ROOT)


def _setup_seconds(args) -> float:
    """Median time from starting a fresh interpreter until it has built
    the workload's inputs and its first op is ready."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit code {code})")
        samples.append(ready - start)
    return statistics.median(samples)


def _warm_up(workload) -> set[str]:
    """Run the round's first ops once, untimed; return the problems found."""
    problems: set[str] = set()
    for op in workload.ops[: workload.warmup]:
        try:
            problems.update(op.check(op.run()))
        except Exception:  # counted in the timed rounds, where the op fails again
            pass
    return problems


def _run(workload, seconds: float, calibration, tracer=None):
    """Run whole rounds until ``seconds`` have passed, sampling the
    calibration loop between ops.

    An op fails when it raises or when a check finds a problem in its
    output.  Returns per-op wall and CPU times, the counts and the
    problems found.
    """
    wall = [[] for _ in workload.ops]
    cpu = [[] for _ in workload.ops]
    attempted = failed = 0
    problems: set[str] = set()
    calibration.sample()
    deadline = time.perf_counter() + seconds
    while True:
        for i, op in enumerate(workload.ops):
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                result = op.run()
                error = None
            except Exception as exc:  # a failed op is counted, not fatal
                error = exc
            c1, w1 = time.process_time(), time.perf_counter()
            if tracer is not None:
                tracer.end_op()
            wall[i].append(w1 - w0)
            cpu[i].append(c1 - c0)
            attempted += 1
            if error is not None:
                failed += 1
                print(f"op {i} ({op.kind}) failed: {error!r}", file=sys.stderr)
                continue
            found = op.check(result)
            if found:
                failed += 1
                problems.update(f"op {i} ({op.kind}): {p}" for p in found)
            calibration.sample_if_due()
        if time.perf_counter() >= deadline:
            break
    calibration.sample()
    return wall, cpu, attempted, failed, problems


def _median_of_medians(per_op) -> float:
    """Median over the round's ops of each op's median across rounds."""
    return statistics.median(statistics.median(samples) for samples in per_op)


def main(argv=None) -> int:
    args = _parse_args(argv)
    os.environ.update(SINGLE_THREAD)  # before numpy is first imported
    if args.setup_only:
        _build(args)
        print("ready", flush=True)
        return 0
    try:
        workload = _build(args)
        setup_s = None if args.trace else _setup_seconds(args)
    except (FileNotFoundError, ImportError, RuntimeError) as exc:
        print(f"cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2

    import calibration
    import checks
    import tracing

    problems = _warm_up(workload)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    speed = calibration.Calibration()
    wall, cpu, attempted, failed, found = _run(workload, args.seconds, speed, tracer)
    problems |= found
    for problem in sorted(problems):
        print(f"wrong output: {problem}", file=sys.stderr)
    wrong = [p for p in problems if checks.KNOWN_FAULT not in p]

    measured = {
        "ops_per_s": attempted / sum(map(sum, wall)),
        "op_p50_ms": _median_of_medians(wall) * 1e3,
        "op_cpu_ms": _median_of_medians(cpu) * 1e3,
        "calibration_ms": statistics.median(speed.wall) * 1e3,
    }
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": measured["ops_per_s"] / speed.wall_scale(), "unit": "1/s"},
            "op_p50_ms": {"value": measured["op_p50_ms"] * speed.wall_scale(), "unit": "ms"},
            "op_cpu_ms": {"value": measured["op_cpu_ms"] * speed.cpu_scale(), "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    else:
        metrics = tracer.metrics()
    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(dict(result, measured=measured, rounds=len(wall[0])), handle, indent=1)
    if tracer is not None:
        tracer.write_first_op(OUT / f"{stem}-spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
