"""Tests of the benchmark harness itself (not of tmf3).

    python3 -m pytest perfbench/tests

The setup-import test runs every workload's operations once, about half a
minute in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, digest, judge  # noqa: E402

JSON_OP = Op(("qexp", "--eisenstein", "8", "--json"))


def _payload(checks, result="x"):
    return json.dumps({"command": "c", "inputs": {}, "result": result,
                       "checks": checks})


def _launch(argv):
    return run.run_process([sys.executable, "-c", run.LAUNCH, *argv],
                           run.child_env(), deadline=time.perf_counter() + 600)


def test_corrupted_golden_counts_as_failed():
    bench = run.Run(Namespace(workload="cli", seed=0, seconds=1, trace=0))
    op = Op(("qexp", "--eisenstein", "8"))
    assert op.key in bench.goldens
    bench.ops = [op]
    bench.run_pass()
    assert (bench.attempted, bench.failed, bench.ok) == (1, 0, 1)
    bench.goldens = dict(bench.goldens)
    bench.goldens[op.key] = dict(bench.goldens[op.key], sha256=digest("1/240*c4\n"))
    bench.run_pass()
    assert (bench.attempted, bench.failed, bench.ok) == (2, 1, 1)
    assert bench.failures[0]["reason"] == "stdout differs from the golden output"


def test_golden_exit_code_mismatch_fails():
    goldens = {JSON_OP.key: {"rc": 0, "sha256": digest("")}}
    assert judge(JSON_OP, 1, "", "error: x", goldens)[0] == "failed"


def test_verify_timings_are_not_compared():
    a = "[ok] item 3 (5.31s) maps: fine\n[ok] item 4 (0s) isogeny: fine"
    b = "[ok] item 3 (7.02s) maps: fine\n[ok] item 4 (12.5s) isogeny: fine"
    assert digest(a) == digest(b)
    assert digest(a) != digest(a.replace("fine", "FAIL"))


@pytest.mark.parametrize("stdout, verdict", [
    (_payload([{"name": "a", "pass": True, "detail": ""}]), "ok"),
    (_payload([]), "ok"),
    (_payload([{"name": "a", "pass": True}, {"name": "b", "pass": False}]), "failed"),
    (_payload([{"name": "a", "pass": "true"}]), "failed"),
    (json.dumps({"result": "x"}), "failed"),
    (json.dumps([1, 2]), "failed"),
    ("1/480*c4^2\n", "failed"),
    ("", "failed"),
])
def test_json_checks_parsing(stdout, verdict):
    assert judge(JSON_OP, 0, stdout, "", {})[0] == verdict


def test_nonzero_exit_without_golden_fails():
    assert judge(JSON_OP, 3, _payload([]), "", {})[0] == "failed"


def test_known_defect_is_neither_ok_nor_failed():
    op = workloads.workload_ops("chart", 0)[-1]
    err = f"error: window (12, 300, 8) is too small: {workloads.CHART_DEFECT} at (12,288)"
    assert judge(op, 1, "", err, {})[0] == "defect"
    assert judge(op, 1, "", "error: something else", {})[0] == "failed"
    assert judge(op, 0, "chart\n", "", {})[0] == "ok"     # the defect fixed


def test_results_that_must_agree():
    ops = workloads.cli_ops(0)
    index = next(i for i, op in enumerate(ops) if op.same_result_as is not None)
    op = ops[index]
    earlier = [None] * index
    earlier[op.same_result_as] = json.loads(_payload([], result="a1"))
    assert judge(op, 0, _payload([], result="a1"), "", {}, earlier)[0] == "ok"
    assert judge(op, 0, _payload([], result="a3"), "", {}, earlier)[0] == "failed"


def test_invariant_oracle_catches_a_wrong_value():
    op = Op(("invariants", "--curve=0,0,1,-1,0", "--json"))
    rc, out, err, *_ = _launch(op.argv)
    assert judge(op, rc, out, err, {})[0] == "ok"
    wrong = out.replace('"b2": "0"', '"b2": "4"')
    assert wrong != out
    assert judge(op, rc, wrong, err, {})[0] == "failed"


def test_negative_values_are_passed_with_equals():
    for seed in range(10):
        for op in workloads.cli_ops(seed):
            assert not any(a[:1] == "-" and a[1:2] != "-" for a in op.argv), op.key


def test_cli_inputs_follow_the_seed():
    assert [o.key for o in workloads.cli_ops(7)] == [o.key for o in workloads.cli_ops(7)]
    assert [o.key for o in workloads.cli_ops(7)] != [o.key for o in workloads.cli_ops(8)]


MODULE_DUMP = ("import sys\nfrom tmf3.cli import main\ntry:\n    main(sys.argv[1:])\n"
               "finally:\n    print('MODULES', *sorted(m for m in sys.modules"
               " if m.startswith('tmf3.')), file=sys.stderr)")


@pytest.mark.parametrize("workload", ["verify", "cli", "chart"])
def test_setup_imports_match_the_workload(workload):
    bench = run.Run(Namespace(workload=workload, seed=0, seconds=1, trace=0))
    assert bench.setup()
    loaded = set()
    for op in bench.ops:
        _, _, err, *_ = run.run_process([sys.executable, "-c", MODULE_DUMP, *op.argv],
                                        bench.env, deadline=time.perf_counter() + 600)
        loaded.update(err.rpartition("MODULES")[2].split())
    assert sorted(loaded) == bench.setup_modules


def _traced(argv):
    rc, _, err, *_ = run.run_process([sys.executable, str(run.TRACER), *argv],
                                     run.child_env(), deadline=time.perf_counter() + 600)
    assert rc == 0
    return {k: v["calls"] for k, v in run.split_report(err)[1]["spans"].items()}


def test_traced_counts_repeat_and_cover_copies():
    argv = ["delta", "--delta-pow", "3", "--range", "3..6", "--json"]
    counts = _traced(argv)
    assert counts == _traced(argv)
    # `from .rationals import val_p_int` copies the name into levelmaps
    assert counts["levelmaps.delta_mod2_Delta_pow"] == 4
    assert counts["rationals.val_p_int"] >= 4
    # the items are called through the list verify.ITEMS
    assert _traced(["verify", "--item", "2"])["verify.item2"] == 1


def test_times_are_scaled_by_the_reference_runs_around_them(monkeypatch):
    refs = iter([0.1, 0.3, 0.25, 0.2])
    children = iter([1.0, 3.0])

    def fake_run_process(cmd, env, deadline, pause=None):
        if pause is None:                      # a reference run
            wall = next(refs)
            return 0, "", "", wall, wall / 2, 0
        marks = []
        if cmd == ["long"]:                    # stopped once, after 2 s
            pause()
            marks = [2.0]
        return 0, "", "", next(children), 0.0, 0, marks

    monkeypatch.setattr(run, "run_process", fake_run_process)
    series = run.Series(Namespace(env={}, deadline=0.0))
    assert series.run(["short"])[0] == 0
    assert series.run(["long"])[0] == 1
    scales = series.scales()
    # gaps: before "short", between the two, inside "long", after it
    assert series.reference_times() == [0.1, 0.3, 0.25, 0.2]
    ref = run.REFERENCE_S
    wall_scales = [ref / 0.2, (2.0 * ref / 0.275 + 1.0 * ref / 0.225) / 3.0]
    assert [w for w, _ in scales] == pytest.approx(wall_scales)
    # CPU times are scaled by the reference runs' CPU times
    assert [c for _, c in scales] == pytest.approx([2 * k for k in wall_scales])


def test_a_long_child_is_stopped_for_reference_runs(monkeypatch):
    monkeypatch.setattr(run, "REFERENCE_PAUSE_S", 0.3)
    pauses = []

    def pause():
        pauses.append(time.perf_counter())
        time.sleep(0.2)
        return 0.0

    rc, out, _, wall, cpu, _, marks = run.run_process(
        [sys.executable, "-c", "import time; t = time.time()\n"
         "while time.time() < t + 1.0: pass\nprint('done')"],
        run.child_env(), time.perf_counter() + 60, pause)
    assert (rc, out) == (0, "done\n")
    assert len(marks) == len(pauses) >= 2
    assert marks == sorted(marks) and marks[-1] < wall
    # the child spun for 1 s of real time, part of it stopped; its own time
    # leaves the stops out
    assert wall < 1.0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SETUP_IMPORTS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "cli",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
