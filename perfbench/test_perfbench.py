"""Tests of the benchmark itself. Run with: python3 -m pytest perfbench"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from proxysplat import core  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY_N = 64


def _inputs(w):
    params = w.params if isinstance(w.params, list) else [w.params]
    arrays = [a for p in params for a in p]
    arrays += [getattr(w, attr) for attr in ("reference", "deltas") if hasattr(w, attr)]
    return [w.idx, np.array([w.phase])] + arrays


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_deterministic_for_a_seed(name):
    cls = workloads.WORKLOADS[name]
    same = zip(_inputs(cls(7, TINY_N)), _inputs(cls(7, TINY_N)))
    assert all(np.array_equal(a, b) for a, b in same)
    assert not np.array_equal(cls(7, TINY_N).params[0], cls(8, TINY_N).params[0])


def test_self_time_on_nested_tree():
    # op [0, 10] holds covariances [1, 7], which holds rotations [2, 4];
    # op also holds project [7.5, 9].
    start = np.array([0.0, 1.0, 2.0, 7.5])
    end = np.array([10.0, 7.0, 4.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert np.allclose(spans.self_times(start, end, parent), [2.5, 4.0, 2.0, 1.5])


def test_layer_metrics_average_over_ops():
    ids = {name: i for i, name in enumerate(spans.LAYER_NAMES)}
    op = spans.OP_ID
    # two ops of 10 s; the second calls covariances twice
    tree = [  # (layer, start, end, parent, rows)
        (op, 0, 10, -1, 5), (ids["covariances"], 1, 7, 0, 5), (ids["rotations"], 2, 4, 1, 5),
        (op, 20, 30, -1, 5), (ids["covariances"], 21, 23, 3, 5), (ids["covariances"], 24, 26, 3, 5),
    ]
    cols = list(zip(*tree))
    metrics = spans.layer_metrics({
        "layer": np.array(cols[0]), "start": np.array(cols[1], float),
        "end": np.array(cols[2], float), "parent": np.array(cols[3]), "rows": np.array(cols[4]),
    })
    assert metrics["covariances.calls"][0] == 1.5
    assert metrics["covariances.rows"][0] == 7.5
    assert metrics["covariances.self_ms"][0] == pytest.approx(1e3 * (4 + 2 + 2) / 2)
    assert metrics["covariances.share"][0] == pytest.approx(8 / 20)
    assert metrics["rotations.share"][0] == pytest.approx(2 / 20)
    assert metrics["covariances.gbps"][0] == pytest.approx(15 * 168 / 8 / 1e9)
    assert metrics["psnr.calls"][0] == 0 and metrics["psnr.gbps"][0] == 0


def test_benchmark_json_names_and_units():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    entries = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    for e in entries:
        assert NAME.fullmatch(e["name"]) and len(e["name"]) <= 64
    for e in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", e["unit"])
        assert e["better"] in ("higher", "lower")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_passes_its_checks_and_emits_the_listed_metrics(name, trace):
    result, info, errors, recorder = run.measure(core, name, 3, 0.05, bool(trace), n=TINY_N)
    assert errors == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > run.ROUNDS
    emitted = {k: m["unit"] for k, m in result["metrics"].items()}
    if trace:
        emitted["machine.copy_gbps"] = "GB/s"  # run_one adds it after the run
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert emitted == listed
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    assert not hasattr(core.psnr, "__wrapped__")  # tracing is uninstalled after each op


def test_traced_calls_nest_under_their_callers():
    train = workloads.TrainStep(5, TINY_N)
    objects = workloads.ObjectsAPI(5, TINY_N)
    objects.setup()
    recorder = spans.Recorder(core)
    recorder.install()
    try:
        train.op(1)
        objects.op(1)
    finally:
        recorder.uninstall()
    got = recorder.arrays()
    layer, parent = got["layer"], got["parent"]

    def parents_of(child):
        mine = parent[layer == spans.LAYER_NAMES.index(child)]
        return {spans.LAYER_NAMES[layer[i]] if i >= 0 else "root" for i in mine}

    assert parents_of("rotations") == {"covariances"}
    assert parents_of("project") == {"root", "project_point"}
    assert parents_of("gaussian3d") == {"root", "to_gaussians"}
    assert parents_of("ingest") == {"root", "from_gaussians"}
    assert isinstance(vars(core.GaussianSet)["from_gaussians"], staticmethod)
    assert not hasattr(core.GaussianSet.__init__, "__wrapped__")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_checks_catch_wrong_outputs(name):
    w = workloads.WORKLOADS[name](9, TINY_N)
    samples = [s for s in (w.setup(), w.op(1)) if s is not None]
    errors = []
    for sample in samples:
        assert w.check(sample) == []
        bad = dict(sample)
        for key, offset in (("cov", 1e-9), ("pix", 1e-6), ("psnr", 1e-6)):
            if key in sample:
                bad[key] = sample[key] + offset
        errors += w.check(bad)
    assert any("oracle" in e for e in errors)
    assert any("project/unproject" in e for e in errors)
    assert any(e.startswith("psnr") for e in errors) == any("psnr" in s for s in samples)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-100k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
