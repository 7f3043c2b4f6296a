#!/usr/bin/env python3
"""Solve benchmark: time every stage of a platoon-coordination solve, for all
four methods and the CLI, and check every output against an independent
reference.

    python3 solvebench/run.py                     # every workload, traced
    python3 solvebench/run.py --workload ref-1k --seed 3 --seconds 45 --trace 0

Each workload runs in its own single-threaded worker process (worker.py).
`--trace 0` reports the end-to-end metrics; set-up time is the median over
five worker processes, two before and two after the measuring one. Every
time is scaled by the host-speed factor measured next to it (calibrate.py).
`--trace 1` alternates untraced and traced rounds in one process and reports
the per-layer metrics, with the tracing overhead between the two. Without
`--workload`, every workload runs traced and both kinds of metric are
reported. The last line of standard output is
one JSON object with the keys `correct`, `attempted`, `failed` and `metrics`;
the full record, stamped with the environment, goes to .solvebench/results/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".solvebench"
MARK = "@@solvebench"
SETUP_SAMPLES = 5      # worker processes timed from start to ready
TIME_LIMIT_S = 170.0   # per workload, whole run


class WorkerError(RuntimeError):
    pass


def spawn(role, workload, seed, seconds, trace, workdir, deadline, spans=None):
    """Start one worker; returns (seconds from start to ready scaled by the
    worker's speed factor, raw seconds, result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", str(workdir)]
    if spans:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMBA_NUM_THREADS="1", PYTHONHASHSEED="0")
    ready = factor = result = None
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            if not line.startswith(MARK):
                continue
            kind = line.split(maxsplit=2)[1]
            if ready is None and kind == "ready":
                ready = time.perf_counter() - start
            elif kind == "speed":
                factor = float(line.split()[2])
            elif kind == "result":
                result = json.loads(line.split(maxsplit=2)[2])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None or factor is None or (role == "run" and result is None):
        raise WorkerError(f"{workload} {role} worker ended with status {code}")
    return ready * factor, ready, result


def run_workload(workload, seed, seconds, trace, setup_samples):
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = STATE / f"work-{workload}-{os.getpid()}"
    spans = STATE / "results" / f"{workload}-seed{seed}-spans.jsonl" if trace else None
    # Set-up probes run before and after the measuring worker, so that the
    # samples fall in different stretches of the host's load.
    probes = [setup_samples // 2, (setup_samples - 1) - setup_samples // 2]
    try:
        setups = [spawn("setup", workload, seed, seconds, 0, workdir, deadline)[:2]
                  for _ in range(probes[0])]
        scaled, raw, result = spawn("run", workload, seed, seconds, trace, workdir,
                                    deadline, spans)
        setups.append((scaled, raw))
        setups += [spawn("setup", workload, seed, seconds, 0, workdir, deadline)[:2]
                   for _ in range(probes[1])]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_samples"] = setups  # [scaled, raw] seconds per worker
    result["end_to_end"]["setup_s"] = statistics.median(s for s, _ in setups)
    return result


def environment(results):
    try:
        import numba  # noqa: F401
        numba_ok = True
    except ImportError:
        numba_ok = False
    return {
        "python": platform.python_version(),
        "numpy": results[0]["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numba_importable": numba_ok,
        "dp_backends": sorted({b for r in results for b in r["backends"]}),
        "machine": platform.machine(),
    }


def metric_block(values, units):
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items() if name in values}


def print_table(workload, result):
    print(f"== {workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for text in result["problems"]:
        print(f"   problem: {text}")
    print(f"   samples per operation: {result['samples']}"
          + (f", traced {result['traced_samples']}" if result["traced_samples"] else ""))
    for group, units in (("end_to_end", spec.END_TO_END), ("per_layer", spec.PER_LAYER)):
        for name, unit in units.items():
            if name in result[group]:
                print(f"   {name:<46} {result[group][name]:>16.6g} {unit}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=spec.WORKLOADS,
                   help="one workload (default: all, each untraced and traced)")
    p.add_argument("--seed", type=int, default=spec.DEFAULT_SEED,
                   help=f"workload seed (default {spec.DEFAULT_SEED}); see README")
    p.add_argument("--seconds", type=int, default=45,
                   help="measuring time per run; whole rounds are always completed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "platoon_coord" / "__init__.py").is_file():
        print(f"error: no solver sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    (STATE / "results").mkdir(parents=True, exist_ok=True)
    workloads = [args.workload] if args.workload else list(spec.WORKLOADS)
    trace = args.trace if args.workload else 1
    results = {}
    try:
        for workload in workloads:
            setup_samples = SETUP_SAMPLES if (args.trace == 0 or not args.workload) else 1
            results[workload] = run_workload(workload, args.seed, args.seconds,
                                             trace, setup_samples)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = environment(list(results.values()))
    print(f"environment: {json.dumps(env)}")
    metrics = {}
    for workload, result in results.items():
        print_table(workload, result)
        blocks = {"end_to_end": metric_block(result["end_to_end"], spec.END_TO_END),
                  "per_layer": metric_block(result["per_layer"], spec.PER_LAYER)}
        record = dict(result, workload=workload, seed=args.seed, seconds=args.seconds,
                      trace=trace, environment=env, **blocks)
        out = STATE / "results" / f"{workload}-seed{args.seed}-trace{trace}.json"
        out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        if args.workload:
            metrics = blocks["per_layer" if trace else "end_to_end"]
        else:
            for block in blocks.values():
                metrics.update({f"{workload}.{k}": v for k, v in block.items()})
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
