"""Benchmark of proxysplat.core, driven from outside through its public API.

    python3 perfbench/run.py --workload train-1m --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One workload runs per process as a closed loop with one client and one
thread. `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
untraced and traced ops and prints the per-layer metrics. `--workload all`
runs every workload both ways, each in its own process. Each run prints
every metric with its unit, writes a results file (and, when traced, its
spans) under perfbench/results/, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for the workloads and the layer -> metric map.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

THREAD_CAP = 1  # one client, one thread: BLAS and OpenMP pools are capped to this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# The timed loop is split into rounds, each opened by a set-up, so that the
# set-up samples behind setup_s are spread over the run like the op samples.
ROUNDS = 8
COPY_REPEATS = 3
SC_LEVEL3_CACHE_SIZE = 194  # glibc sysconf name


def load_library():
    """Import proxysplat.core from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "proxysplat" / "core.py").is_file():
        raise SystemExit(f"run.py: no proxysplat sources under {src}")
    sys.path.insert(0, str(src))
    from proxysplat import core

    if Path(core.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"run.py: imported proxysplat from {core.__file__}, not {src}")
    return core


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def llc_bytes() -> int | None:
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        libc.sysconf.argtypes = [ctypes.c_int]
        size = libc.sysconf(SC_LEVEL3_CACHE_SIZE)
    except (OSError, AttributeError):
        return None
    return size if size > 0 else None


def copy_gbps(nbytes: int) -> float:
    """Bytes read plus bytes written per second by a numpy copy of nbytes."""
    import numpy as np

    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    dst.fill(0.0)  # fault the pages in before timing
    times = []
    for _ in range(COPY_REPEATS):
        t0 = perf_counter()
        np.copyto(dst, src)
        times.append(perf_counter() - t0)
    return 2 * src.nbytes / statistics.median(times) / 1e9


def machine_record() -> dict:
    import numpy as np

    llc = llc_bytes()
    copy_bytes = 4 * (llc or 128 * 2**20)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_cap": THREAD_CAP,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "llc_bytes": llc,
        "copy_bytes": copy_bytes,
        "copy_gbps": copy_gbps(copy_bytes),
    }


def measure(core, name: str, seed: int, seconds: float, trace: bool, n: int | None = None):
    """Run one workload; returns (result line, extra info, op errors, recorder)."""
    # numpy and the modules that use it load only after run_one caps the threads.
    from spans import OP_ID, Recorder, layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, n)
    recorder = Recorder(core) if trace else None
    setup_times, plain, traced = [], [], []
    ops = []  # per op, its output samples, or the traceback it raised
    loop_s = 0.0
    k = 1
    for _ in range(ROUNDS):
        t0 = perf_counter()
        first = wl.setup()
        warm = wl.op(0)
        setup_times.append(perf_counter() - t0)
        ops.append([s for s in (first, warm) if s is not None])
        gc.collect()
        round_start = perf_counter()
        round_end = round_start + seconds / ROUNDS
        while True:
            tracing = trace and k % 2 == 0
            if tracing:
                recorder.install()
                span = recorder.open(OP_ID, wl.n)
            t0 = perf_counter()
            try:
                ops.append([wl.op(k)])
            except Exception:
                ops.append(traceback.format_exc())
            t1 = perf_counter()
            if tracing:
                recorder.close(span)
                recorder.uninstall()
            (traced if tracing else plain).append(t1 - t0)
            k += 1
            if t1 >= round_end and (traced or not trace):
                break
        loop_s += t1 - round_start
    rss = peak_rss_mb()

    errors = []
    for op in ops:
        if isinstance(op, str):
            errors.append(op)
            continue
        try:
            errors.append("; ".join(e for s in op for e in wl.check(s)))
        except Exception:
            errors.append(traceback.format_exc())
    errors = [e for e in errors if e]
    attempted = len(ops)

    if trace:
        metrics = layer_metrics(recorder.arrays())
        metrics["trace.overhead_pct"] = (
            100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0), "%")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_p90_ms": (1e3 * p90(plain), "ms"),
            "gaussians_per_s": (wl.n * len(plain) / loop_s, "gaussians/s"),
            "peak_rss_mb": (rss, "MB"),
        }
    # Printed and recorded, but not in BENCHMARK.json: see perfbench/README.md.
    info = {
        "n": (wl.n, "gaussians"), "error_rate": (len(errors) / attempted, "ratio"),
        "op_p50_ms": (1e3 * statistics.median(plain), "ms"),
        "op_samples": (len(plain), "count"), "traced_op_samples": (len(traced), "count"),
        "loop_s": (loop_s, "s"), "setup_samples": (ROUNDS, "count"),
        "peak_rss_mb": (rss, "MB"),
    }
    result = {
        "correct": not errors, "attempted": attempted, "failed": len(errors),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    return result, info, errors, recorder


def run_one(args) -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    core = load_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)} or all")
    result, info, errors, recorder = measure(
        core, args.workload, args.seed, args.seconds, bool(args.trace))
    machine = machine_record()
    if args.trace:
        result["metrics"]["machine.copy_gbps"] = {"value": machine["copy_gbps"], "unit": "GB/s"}

    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if recorder is not None:
        recorder.save(RESULTS_DIR / f"{stem}-spans.npz")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loop": "closed", "clients": 1, "machine": machine,
              "info": info, "errors": errors[:10], "result": result}
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for key, value in machine.items():
        print(f"# machine.{key} = {value}")
    print(f"# workload {args.workload}: seed {args.seed}, closed loop, 1 client, "
          f"{args.seconds} s, trace {args.trace}")
    for e in errors[:10]:
        print(f"# error: {e}", file=sys.stderr)
    for key, (value, unit) in info.items():
        print(f"{key:<36} {value:>16.6g} {unit}")
    for key, m in result["metrics"].items():
        print(f"{key:<36} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))


def run_all(args) -> None:
    """Each workload untraced, then traced, each in a process of its own."""
    load_library()
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode:
                raise SystemExit(proc.returncode)
            result = json.loads(proc.stdout.splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, m in result["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    (run_all if args.workload == "all" else run_one)(args)


if __name__ == "__main__":
    main()
