import argparse
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DIRECTIONS = {"gaussians_per_s": "higher", "op_p90_ms": "lower"}


def _run(side, pair, gaussians_per_s, op_p90_ms, workload="w", failed=0, attempted=4, cpus=2):
    return {"workload": workload, "seed": 100 + pair, "side": side, "trace": 0, "pair": pair,
            "returncode": 0, "info": {}, "machine": {"affinity_cpus": cpus},
            "result": {"metrics": {"gaussians_per_s": {"value": gaussians_per_s},
                                   "op_p90_ms": {"value": op_p90_ms}},
                       "failed": failed, "attempted": attempted, "correct": True}}


def _line(lines, metric):
    (line,) = [x for x in lines if x.strip().startswith(metric + " ")]
    return line


def test_seeds():
    assert bench_pairs.seeds("931-935") == [931, 932, 933, 934, 935]
    assert bench_pairs.seeds("7") == [7]
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.seeds("940-931")


def test_an_empty_seed_range_stops_before_any_run(tmp_path):
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit):
        bench_pairs.main(["--out", str(out), "--workloads", "w", "--seeds", "940-931"])
    assert not out.exists()


def test_quartiles():
    assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == [2.0, 3.0, 4.0]
    assert bench_pairs.quartiles([7.0]) == [7.0, 7.0, 7.0]


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    parent = [(10.0, 5.0), (10.0, 5.0), (10.0, 5.0)]
    change = [(10.0, 5.0), (11.0, 4.0), (9.0, 6.0)]  # a tie, a win, a loss on each metric
    runs = [_run("parent", k, *v) for k, v in enumerate(parent)]
    runs += [_run("change", k, *v) for k, v in enumerate(change)]
    lines = bench_pairs.summary(runs, DIRECTIONS, {})
    assert lines[0].startswith("== w: 3 pairs; affinity_cpus parent 2 change 2;")
    assert "wins 1/3" in _line(lines, "gaussians_per_s")
    assert "wins 1/3" in _line(lines, "op_p90_ms")  # a drop in a "lower" metric is its win
    lower = bench_pairs.summary(
        [_run("parent", 0, 10.0, 5.0), _run("change", 0, 10.0, 4.0)], DIRECTIONS, {})
    assert "wins 1/1" in _line(lower, "op_p90_ms")
    assert "wins 0/1" in _line(lower, "gaussians_per_s")


def test_summary_reports_a_failed_run():
    runs = [_run("parent", 0, 10.0, 5.0), {**_run("change", 0, 10.0, 5.0), "result": None},
            _run("parent", 0, 10.0, 5.0, workload="v"), _run("change", 0, 11.0, 5.0, workload="v")]
    lines = bench_pairs.summary(runs, DIRECTIONS, {})
    assert "== w trace 0: a run failed" in lines
    assert any(line.startswith("== v: 1 pairs;") for line in lines)


@pytest.mark.parametrize("parent, change, expected", [
    ((0, 4), (0, 5), "within"), ((1, 4), (2, 8), "within"), ((1, 4), (2, 9), "within"),
    ((1, 4), (2, 7), "worse"), ((0, 4), (1, 100), "worse")])
def test_summary_gives_a_verdict_on_the_failed_share(parent, change, expected):
    # The share failed/attempted is compared, not the count: more ops attempted may fail more.
    runs = [_run("parent", 0, 10.0, 5.0, failed=parent[0], attempted=parent[1]),
            _run("change", 0, 10.0, 5.0, failed=change[0], attempted=change[1])]
    header = bench_pairs.summary(runs, DIRECTIONS, {})[0]
    assert f"failed/attempted parent {parent[0]}/{parent[1]} change {change[0]}/{change[1]} " \
           f"{expected};" in header


def test_verdict_against_the_bound():
    parent = [9.0, 10.0, 10.0, 10.0, 11.0]  # median 10, IQR 0
    assert bench_pairs.verdict(parent, [12.4] * 5, "lower", 0.25) == "within bound 0.25"
    assert bench_pairs.verdict(parent, [12.6] * 5, "lower", 0.25) == "worse bound 0.25"
    assert bench_pairs.verdict(parent, [7.6] * 5, "higher", 0.25) == "within bound 0.25"
    assert bench_pairs.verdict(parent, [7.4] * 5, "higher", 0.25) == "worse bound 0.25"
    assert bench_pairs.verdict(parent, [1.0] * 5, "lower", 0.25) == "within bound 0.25"
    # The parent's spread is wider than the bound: no verdict either way.
    # Quartiles 0.0605, 0.0710, 0.0798: IQR / median 0.27, as objects-2k setup_s in BENCH_10.json.
    noisy = [0.0550, 0.0605, 0.0710, 0.0798, 0.0900]
    assert bench_pairs.quartiles(noisy) == [0.0605, 0.0710, 0.0798]
    assert bench_pairs.verdict(noisy, [0.0735] * 5, "lower", 0.25).startswith("unresolved")
    assert bench_pairs.verdict(noisy, [0.0900] * 5, "lower", 0.25).startswith("unresolved")


def test_summary_gives_a_verdict_only_to_bounded_metrics():
    runs = [_run("parent", k, 10.0, 5.0) for k in range(3)]
    runs += [_run("change", k, 10.0, 7.0) for k in range(3)]
    lines = bench_pairs.summary(runs, DIRECTIONS, {"op_p90_ms": 0.2})
    assert _line(lines, "op_p90_ms").endswith("worse bound 0.2")
    assert "bound" not in _line(lines, "gaussians_per_s")


def test_header_gives_each_side_its_cpus():
    runs = [_run("parent", 0, 10.0, 5.0, cpus=1), _run("parent", 1, 10.0, 5.0, cpus=2),
            _run("change", 0, 10.0, 5.0, cpus=2), _run("change", 1, 10.0, 5.0, cpus=2)]
    header = bench_pairs.summary(runs, DIRECTIONS, {})[0]
    assert "; affinity_cpus parent 1,2 change 2;" in header


def _pairs(parent, change):
    runs = [_run("parent", k, v, 5.0) for k, v in enumerate(parent)]
    return runs + [_run("change", k, v, 5.0) for k, v in enumerate(change)]


PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.0]  # IQR 0.2


@pytest.mark.parametrize("change, expected", [
    ([12.0] * 10, True),  # 10/10 wins, gap 2 > IQR 0.2
    ([12.0] * 9 + [9.0], True),  # 9/10 wins is enough
    ([12.0] * 8 + [9.0, 9.0], False),  # 8/10 is not
    ([10.15] * 10, False),  # 10/10 wins, but the gap 0.15 is within the IQR
])
def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_iqr(change, expected):
    line = _line(bench_pairs.summary(_pairs(PARENT, change), DIRECTIONS, {}), "gaussians_per_s")
    assert ("  gain" in line) is expected
    assert bench_pairs.gain(sum(c > p for p, c in zip(PARENT, change)), 10, PARENT, change,
                            "higher") is expected


def test_gain_needs_ten_pairs():
    line = _line(bench_pairs.summary(_pairs(PARENT[:9], [12.0] * 9), DIRECTIONS, {}),
                 "gaussians_per_s")
    assert "wins 9/9" in line and "gain" not in line


def test_gain_on_a_lower_is_better_metric_is_a_drop():
    parent = [5.0, 5.1, 4.9, 5.0, 5.0, 5.2, 4.8, 5.0, 5.0, 5.0]
    assert bench_pairs.gain(10, 10, parent, [4.0] * 10, "lower")
    assert not bench_pairs.gain(0, 10, parent, [6.0] * 10, "lower")
    assert bench_pairs.gain(10, 10, parent, [6.0] * 10, "higher")  # a rise, were higher better
