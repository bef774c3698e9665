"""Paired benchmark runs of the last commit (HEAD) against the working tree.

    python3 tools/bench_pairs.py --out BENCH_9.json \
        --workloads objects-2k train-1m eval-100k --seeds 931-940 \
        --traced objects-2k

For a one-CPU record, pin the tool, and so every run it starts, to one CPU:

    taskset -c 0 python3 tools/bench_pairs.py --out BENCH_1cpu.json \
        --workloads train-1m --seeds 1-10

HEAD is unpacked with `git archive` into a temporary directory, which is
removed at the end. Both sides must have the same benchmark (BENCHMARK.json
and the paths it lists), or the tool stops before any run. Each pair runs
perfbench/run.py once on each side, for BENCHMARK.json's run_seconds, with
this interpreter's full path; pair k runs the parent first when k is even and
the change first when k is odd; a workload named by --traced also runs
traced pairs, on the first TRACED_PAIRS seeds. A run that exits non-zero or
leaves no readable result counts as failed, and the summary names its side,
seed and exit code. The output file holds the tool's own arguments (`argv`),
every run's result line and machine record, and a summary per workload:
median [quartiles] of each side, their ratio, the pairs the change wins, the
median gap against the parent's interquartile range, `gain` where the change
meets the rule for claiming one (see `gain`) and, for each end-to-end metric, a
verdict against its BENCHMARK.json bound (see `verdict`). The failed ops get a
verdict too: `worse` when the change fails a larger share of the ops it
attempted than the parent does, else `within`. Traced runs are summarised by
each layer's self time, and by its calls per op where the sides' medians
differ. Each workload's header gives the CPUs each side's runs could use:
the library splits a kernel of 4 * BLOCK rows or more between two threads
on any number of CPUs, but the threads overlap only where two are allowed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARENT = "HEAD"
TRACED_PAIRS = 2
COMMAND = "<python3 full path> perfbench/run.py --workload <w> --seed <s> --seconds <run_seconds> --trace <0|1>"


def seeds(text: str) -> list[int]:
    lo, sep, hi = text.partition("-")
    try:
        out = list(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must be a or a-b, got {text!r}") from None
    if not out:
        raise argparse.ArgumentTypeError(f"the seed range {text} holds no seeds")
    return out


def run(side: str, tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    record_file = tree / "perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    result, info, machine = None, {}, None
    if proc.returncode == 0:
        try:
            record = json.loads(record_file.read_text())
            info = {k: v[0] for k, v in record["info"].items()}
            result, machine = json.loads(proc.stdout.splitlines()[-1]), record["machine"]
        except (OSError, ValueError, LookupError, AttributeError, TypeError) as e:
            print(f"{side} {workload} seed {seed}: unreadable output: {e!r}", file=sys.stderr)
    return {"workload": workload, "seed": seed, "side": side, "trace": trace,
            "returncode": proc.returncode, "result": result, "info": info, "machine": machine}


def value(r: dict, metric: str) -> float:
    m = r["result"]["metrics"]
    return m[metric]["value"] if metric in m else r["info"][metric]


def quartiles(v: list[float]) -> list[float]:
    return statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else v * 3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """`worse` when the change's median is worse than the parent's by more than `bound`, as a
    share of the parent's median, else `within`; `unresolved` when the parent's IQR / median
    is wider than `bound`, since the parent's own spread then hides a change of that size,
    unless every run of the change is better than every run of the parent."""
    (p1, pm, p3), cm = quartiles(parent), statistics.median(change)
    all_better = max(change) < min(parent) if better == "lower" else min(change) > max(parent)
    if not p3 - p1 <= bound * abs(pm) and not all_better:
        return f"unresolved (parent IQR {p3 - p1:.4g} > bound {bound} x median {pm:.4g})"
    worse = (cm - pm if better == "lower" else pm - cm) > bound * abs(pm)
    return f"{'worse' if worse else 'within'} bound {bound}"


def gain(wins: int, pairs: int, parent: list[float], change: list[float], better: str) -> bool:
    """Whether a gain may be claimed (choosing-metrics, section 8): at least ten pairs, the
    change won at least 9 of every 10, and its median beats the parent's by more than the
    parent's interquartile range."""
    (p1, pm, p3), cm = quartiles(parent), statistics.median(change)
    return (pairs >= 10 and 10 * wins >= 9 * pairs
            and (cm - pm if better == "higher" else pm - cm) > p3 - p1)


def summary(runs: list[dict], directions: dict[str, str], bounds: dict[str, float]) -> list[str]:
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        for trace in (0, 1):
            mine = [r for r in runs if r["workload"] == workload and r["trace"] == trace]
            sides = {s: [r for r in mine if r["side"] == s] for s in ("parent", "change")}
            failed = [f"{r['side']} seed {r['seed']} exit {r['returncode']}"
                      for r in mine if r["result"] is None]
            if failed:
                lines += [f"== {workload} trace {trace}: a run failed",
                          f"  failed runs: {', '.join(failed)}"]
            if not mine or failed:
                continue
            counts = {s: (sum(r["result"]["failed"] for r in rs),
                          sum(r["result"]["attempted"] for r in rs)) for s, rs in sides.items()}
            (pf, pa), (cf, ca) = counts["parent"], counts["change"]
            cpus = {s: ",".join(sorted({str(r["machine"]["affinity_cpus"]) for r in rs}))
                    for s, rs in sides.items()}
            lines.append(
                f"== {workload}{' traced' if trace else ''}: {len(sides['parent'])} pairs; "
                f"affinity_cpus parent {cpus['parent']} change {cpus['change']}; "
                f"failed/attempted parent {pf}/{pa} change {cf}/{ca} "
                f"{'worse' if cf * pa > pf * ca else 'within'}; "  # cf/ca > pf/pa, in integers
                f"all correct {all(r['result']['correct'] for r in mine)}")
            # Traced runs: the self time of each layer the workload calls, and its calls per
            # op where the two sides' medians differ, since a layer may stop being called.
            names = directions if not trace else {
                m: "lower" for m in mine[0]["result"]["metrics"]
                if m.endswith(".self_ms") and any(value(r, m) for r in mine)
                or m.endswith(".calls") and len({statistics.median(value(r, m) for r in rs)
                                                 for rs in sides.values()}) > 1}
            width = max(map(len, names), default=0)
            for metric, better in names.items():
                p = [value(r, metric) for r in sides["parent"]]
                c = [value(r, metric) for r in sides["change"]]
                (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
                sign = 1 if better == "higher" else -1
                wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
                bound = bounds.get(metric)
                lines.append(
                    f"  {metric:<{width}} parent {pm:.4g} [{p1:.4g}, {p3:.4g}] -> change {cm:.4g} "
                    f"[{c1:.4g}, {c3:.4g}]  ratio {cm / pm if pm else float('nan'):.3f}  "
                    f"wins {wins}/{len(p)}  gap {cm - pm:.4g} vs parent IQR {p3 - p1:.4g}"
                    + ("  gain" if gain(wins, len(p), p, c, better) else "")
                    + (f"  {verdict(p, c, better, bound)}" if bound is not None else ""))
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="one seed per pair: a or a-b")
    parser.add_argument("--traced", nargs="*", default=[],
                        help=f"workloads to run traced too, on the first {TRACED_PAIRS} seeds")
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]} | {"op_p50_ms": "lower"}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    harness = ["BENCHMARK.json", *spec["paths"]]
    changed = subprocess.run(["git", "status", "--porcelain", "--untracked-files=all", "--",
                              *harness], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                             text=True).stdout
    if changed:
        sys.exit(f"the benchmark differs from {PARENT}; commit or undo this first:\n{changed}")
    parent = subprocess.run(["git", "rev-parse", "--short", PARENT], cwd=ROOT, check=True,
                            stdout=subprocess.PIPE, text=True).stdout.strip()
    plan = [(w, pair, s, 0) for w in args.workloads for pair, s in enumerate(args.seeds)]
    plan += [(w, pair, s, 1) for w in args.traced
             for pair, s in enumerate(args.seeds[:TRACED_PAIRS])]
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "parent"
        tree.mkdir()
        subprocess.run(["git", "archive", "--output", f"{tree}.tar", parent], cwd=ROOT, check=True)
        subprocess.run(["tar", "-xf", f"{tree}.tar", "-C", str(tree)], check=True)
        for workload, pair, seed, trace in plan:
            order = [("parent", tree), ("change", ROOT)][::1 if pair % 2 == 0 else -1]
            for i, (side, where) in enumerate(order):
                r = run(side, where, workload, seed, seconds, trace)
                runs.append({**r, "pair": pair, "first": i == 0})
                print(f"{workload} seed {seed} trace {trace} {side}: exit {r['returncode']}",
                      file=sys.stderr, flush=True)
    out = {
        "what": "perfbench/run.py, parent commit vs this change, alternating pairs; each run's "
                "last stdout line (its JSON result) with its workload, seed, side, trace flag, "
                "and the info and machine record from its results file",
        "command": COMMAND, "argv": argv, "parent": parent,
        "pairing": "pair k runs the parent first when k is even and the change first when k is odd",
        "summary": summary(runs, directions, bounds), "runs": runs,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print("\n".join(out["summary"]))


if __name__ == "__main__":
    main()
