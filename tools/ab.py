"""proxysplat at a git revision against the working tree, side by side in one process.

    python3 tools/ab.py                  # HEAD against this working tree
    python3 tools/ab.py --rev HEAD~1 --processes 5 quaternion_to_covariance project_point
    python3 tools/ab.py --processes 0    # equality only

The revision is unpacked with `git archive` into a temporary directory, which
is removed at the end, as in bench_pairs. Its `src/proxysplat` and that of
the working tree this file is in are imported side by side as the packages
`ab_base` and `ab_work`. The cases, in `ab_cases.py` beside this file, build
the same inputs for both and hand back a list of calls for each.

Equality: every call of every named case is made once on each side, and the
two results are compared leaf by leaf: an array by dtype, shape, strides
and bytes, a float by type and bits, a value object by its class name and
fields. The tool prints each case's count of equal results and its first
difference, and exits 1 if any result differs.

Timing: in each of --processes fresh processes, one after another, each case
is timed for SECONDS, and at least MIN_PAIRS pairs, in pairs of calls: one
call per side on the same input, the side that goes first alternating, with
the garbage collector off. Each process reports, per case, the median over
its pairs of the revision's time / the tree's time, so above 1 the tree is
faster. These are in-process ratios, not a gate, and they claim nothing by
themselves: the benchmark is perfbench, and tools/bench_pairs.py pairs its
runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path
from time import perf_counter

import numpy as np

from ab_cases import CASES

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 1.0  # per case per process
MIN_PAIRS = 20


def load(tree: Path, name: str):
    """Import `tree`'s src/proxysplat as the package `name`, dropping any earlier import of it.

    The package is put in sys.modules before it runs, so its relative imports
    load its own submodules under `name`.
    """
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    pkg = tree / "src" / "proxysplat"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def leaves(x, path="result"):
    """(path, key) pairs whose keys fix the value of `x` bit for bit, in a fixed order."""
    if isinstance(x, np.ndarray):
        yield path, ("ndarray", x.dtype.str, x.shape, x.strides, x.tobytes())
    elif isinstance(x, (list, tuple)):
        yield path, (type(x).__name__, len(x))
        for i, v in enumerate(x):
            yield from leaves(v, f"{path}[{i}]")
    elif isinstance(x, dict):
        yield path, ("dict", tuple(x))
        for k, v in x.items():
            yield from leaves(v, f"{path}[{k!r}]")
    elif dataclasses.is_dataclass(x):
        yield path, (type(x).__qualname__,)
        for f in dataclasses.fields(x):
            yield from leaves(getattr(x, f.name), f"{path}.{f.name}")
    else:
        yield path, (type(x).__qualname__, x.hex() if isinstance(x, float) else repr(x))


def first_difference(a, b) -> str | None:
    """Where results `a` and `b` first differ, and how, or None if they are equal."""
    la, lb = list(leaves(a)), list(leaves(b))
    for (path, ka), (_, kb) in zip(la, lb):
        if ka == kb:
            continue
        if ka[0] == "ndarray" and ka[:4] == kb[:4]:
            # The first element whose bytes differ: -0.0 against 0.0, or NaN payloads, too.
            x, y = (np.frombuffer(k[4], np.dtype(k[1])).reshape(k[2]) for k in (ka, kb))
            xb, yb = (np.frombuffer(k[4], np.uint8).reshape(x.size, -1) for k in (ka, kb))
            i = tuple(map(int, np.unravel_index(np.flatnonzero((xb != yb).any(1))[0], x.shape)))
            return f"{path}[{i}]: {x[i]!r} vs {y[i]!r}"
        return f"{path}: {ka} vs {kb}"
    return None if len(la) == len(lb) else f"result: {len(la)} vs {len(lb)} leaves"


def compare(base, work, names) -> dict[str, tuple[int, int, str | None]]:
    """Per case: (equal results, calls, first difference or None)."""
    out = {}
    for name in names:
        diffs = [first_difference(a(), b()) for a, b in zip(CASES[name](base), CASES[name](work))]
        bad = [d for d in diffs if d is not None]
        out[name] = (len(diffs) - len(bad), len(diffs), bad[0] if bad else None)
    return out


def time_pairs(base_calls, work_calls) -> float:
    """Median over pairs of (base time / work time), pairs made for SECONDS, first side
    alternating, the garbage collector off."""
    for call in (*base_calls, *work_calls):  # warm up
        call()
    ratios = []
    gc.collect()
    gc.disable()
    try:
        end = perf_counter() + SECONDS
        while perf_counter() < end or len(ratios) < MIN_PAIRS:
            k = len(ratios)
            pair = (base_calls[k % len(base_calls)], work_calls[k % len(work_calls)])
            t = [0.0, 0.0]
            for side in (0, 1) if k % 2 == 0 else (1, 0):
                t0 = perf_counter()
                pair[side]()
                t[side] = perf_counter() - t0
            ratios.append(t[0] / t[1])
    finally:
        gc.enable()
    return statistics.median(ratios)


def timing_process(base_tree: str, names: list[str]) -> dict:
    """One process's median ratio per case; run in a fresh process."""
    base, work = load(Path(base_tree), "ab_base"), load(ROOT, "ab_work")
    return {name: time_pairs(CASES[name](base), CASES[name](work)) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("cases", nargs="*", help=f"of {', '.join(CASES)} (default: all)")
    parser.add_argument("--rev", default="HEAD", help="revision to unpack (default: HEAD)")
    parser.add_argument("--processes", type=int, default=3,
                        help="fresh timing processes, one after another; 0 times nothing")
    args = parser.parse_args(argv)
    names = args.cases or list(CASES)
    if set(names) - set(CASES):
        parser.error(f"unknown cases {sorted(set(names) - set(CASES))}")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "base"
        tree.mkdir()
        subprocess.run(["git", "archive", "--output", f"{tree}.tar", args.rev], cwd=ROOT,
                       check=True)
        subprocess.run(["tar", "-xf", f"{tree}.tar", "-C", str(tree)], check=True)
        print(f"{args.rev} against the working tree {ROOT}")
        equal = compare(load(tree, "ab_base"), load(ROOT, "ab_work"), names)
        width = max(map(len, names))
        for name, (same, calls, diff) in equal.items():
            print(f"  {name:<{width}}  equal {same}/{calls}" + (f"  first difference {diff}"
                                                                 if diff else ""))
        total = [sum(v[i] for v in equal.values()) for i in (0, 1)]
        print(f"  all cases: equal {total[0]}/{total[1]}")
        if args.processes > 0:
            print(f"speed-up, {args.rev} time / tree time, median of per-pair ratios "
                  f"in each of {args.processes} processes ({SECONDS} s per case):")
            runs = []
            for _ in range(args.processes):
                with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
                    runs.append(pool.submit(timing_process, str(tree), names).result())
            for name in names:
                print(f"  {name:<{width}}  " + "  ".join(f"{r[name]:.3f}" for r in runs))
    return 0 if total[0] == total[1] else 1


if __name__ == "__main__":
    sys.exit(main())
