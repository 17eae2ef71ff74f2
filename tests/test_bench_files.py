"""Every committed benchmark evidence file, BENCH_*.json at the repository
root, parses, names only what BENCHMARK.json declares, holds at least five
runs per side, and stores summaries that its own runs reproduce."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
END_TO_END = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
SIDES = ("parent", "change")
MIN_RUNS = 5

FILES = sorted(ROOT.glob("BENCH_*.json"))


def iqr_over_median(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(values)


def test_there_is_an_evidence_file():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_evidence_file(path):
    bench = json.loads(path.read_text())
    assert bench["context"]["parent"], path.name
    assert bench["context"]["change"], path.name
    assert bench["workloads"] and set(bench["workloads"]) <= WORKLOADS
    for workload, entry in bench["workloads"].items():
        for side in SIDES:
            runs = entry[side]["runs"]
            assert len(runs) >= MIN_RUNS, (workload, side)
            for summary in ("median", "iqr_over_median"):
                assert set(entry[side][summary]) <= set(END_TO_END), (workload, side)
            for metric, median in entry[side]["median"].items():
                values = [run[metric] for run in runs]
                assert median == statistics.median(values), (workload, side, metric)
                assert entry[side]["iqr_over_median"][metric] == pytest.approx(
                    iqr_over_median(values), abs=1e-4), (workload, side, metric)
            assert all(set(run) <= set(END_TO_END) for run in runs), (workload, side)

    # a claimed gain: the per-pair wins and the median change, recomputed
    claim = bench.get("claim")
    if claim is not None:
        entry = bench["workloads"][claim["workload"]]
        metric = claim["metric"]
        parent = [run[metric] for run in entry["parent"]["runs"]]
        change = [run[metric] for run in entry["change"]["runs"]]
        assert len(parent) == len(change) == claim["pairs"]
        sign = 1 if END_TO_END[metric] == "lower" else -1
        assert claim["wins"] == sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        assert claim["median_change"] == pytest.approx(
            statistics.median(change) / statistics.median(parent) - 1, abs=1e-4)

    # a traced pair: per-layer metrics of one declared workload
    trace = bench.get("trace")
    if trace is not None:
        assert trace["workload"] in WORKLOADS
        for side in SIDES:
            assert set(trace[side]) <= PER_LAYER, side
