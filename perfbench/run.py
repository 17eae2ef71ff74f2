"""tmf3 benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload verify --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
A closed loop with one client: each operation is a fresh ``tmf3`` process
(the console script's ``from tmf3.cli import main``), started only after the
previous one ended. Every run is cold: nothing is warmed before timing,
because each command a user types pays for the imports, the module-level
constants and the caches again.

A run first measures set-up (`setup_s`: a fresh interpreter importing the
tmf3 modules the workload's commands load, median of several), then repeats
passes over the workload's operations: at least ``MIN_PASSES``, then more
while the next pass is expected to end within ``--seconds``. Every
operation's output is checked (see ``workloads.judge``). Runs of a fixed
reference program between the operations give the host's speed of the
moment, and the end-to-end times are reported at a fixed reference speed
(see ``REFERENCE``).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced pass (``tracer.py``) and reports the per-layer metrics,
the untraced wall time per command family and the tracing overhead.

Earlier stdout lines hold the run's context and per-operation failures; the
last line is the result object.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"
LAUNCH = "import sys; from tmf3.cli import main; sys.exit(main())"

# `setup_s` is the median of at least SETUP_MIN_REPEATS imports, repeated
# until SETUP_BUDGET_S have been spent on them.
SETUP_MIN_REPEATS = 5
SETUP_BUDGET_S = 3.0
# A run must end within 180 s; an operation still running at this point is
# killed and counted as failed.
RUN_DEADLINE_S = 165.0
# Every run makes at least this many passes, whatever the host's speed, so
# that a pass longer than half of ``--seconds`` (verify's) still gets a
# second sample.
MIN_PASSES = 2
# On a host shared with other tenants, the speed of a fresh process moves by
# a third from one second to the next and drifts over minutes (NOTES.md,
# "Host speed and the reference program"). So the run's child processes are
# interleaved with gaps of runs of a fixed stdlib-only program in a fresh
# interpreter (`REFERENCE`, see `Series`), and the end-to-end times are given
# at a fixed reference speed: the wall (CPU) time of each stretch of a child
# between two gaps is scaled by REFERENCE_S over the mean wall (CPU) time of
# the reference runs in those gaps. A change in the program moves the scaled
# time as it moves the raw one; the raw times are in the result's context
# line.
REFERENCE = """
from fractions import Fraction
acc = Fraction(0)
rows = {}
for k in range(1, 6001):
    acc += Fraction(k % 89, 1 + k % 97) * Fraction(1 + k % 7, 1 + k % 11)
    x = (k * 0x9E3779B97F4A7C15) & ((1 << 192) - 1)
    while x:
        top = x.bit_length() - 1
        if top not in rows:
            rows[top] = x
            break
        x ^= rows[top]
"""
REFERENCE_S = 0.2
# A gap comes before the first child, after the last, and between two
# children once REFERENCE_EVERY_S of child wall time have passed since the
# last gap. A child still running after REFERENCE_PAUSE_S is stopped
# (SIGSTOP) for a gap and continued, and so on every REFERENCE_PAUSE_S, so
# that a long child (verify's) is scaled by the host speed of its whole run,
# not of its ends. A gap lasts at least REFERENCE_SHARE of the child time
# since the last gap.
REFERENCE_EVERY_S = 0.5
REFERENCE_PAUSE_S = 1.0
REFERENCE_SHARE = 0.1

# the subcommands the workloads run (`isogeny` runs only inside `verify`)
FAMILIES = ("invariants", "normalize", "maps", "delta", "qexp", "chart", "verify")

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "frac", "higher"),
]


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    names = []
    for _, _, span, stats in tracer.SPANS:
        names += [f"{span}.{stat}" for stat in stats]
    names += [f"verify.item{i}.total_s" for i in range(1, tracer.VERIFY_ITEMS + 1)]
    names += ["sseq.E2.cells", "funfield.import_s", "cli.import_s",
              "levelmaps.cached_pow.hit_frac", "levelmaps.tpow.hit_frac"]
    names += [f"cli.{family}.cold_s" for family in FAMILIES]
    names += ["trace.overhead_s"]

    def unit(name):
        if name.endswith("_s"):
            return "s"
        return "frac" if name.endswith("_frac") else "count"

    return [(n, unit(n), "higher" if n.endswith("hit_frac") else "lower")
            for n in names]


# -- processes -------------------------------------------------------------------

class Deadline(Exception):
    """An operation outlived the run's deadline and was killed."""


def run_process(cmd, env, deadline, pause=None):
    """Run `cmd` to completion. Returns (rc, stdout, stderr, wall_s, cpu_s,
    maxrss_kb). CPU is the change in this process's children rusage, which
    only this child adds to, as operations run one at a time; maxrss_kb is
    the largest ``ru_maxrss`` of any child so far.

    With `pause`, the child is stopped every REFERENCE_PAUSE_S of its
    running time while ``pause()`` runs, which returns the CPU seconds its
    own children used; wall_s and cpu_s leave the stop out. The result then
    has a seventh item, the child's running time at each stop."""
    if deadline - time.perf_counter() <= 0:
        raise Deadline(" ".join(cmd[-6:]))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    stopped = other_cpu = 0.0
    marks = []
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            encoding="utf-8")
    try:
        while True:
            timeout = deadline - time.perf_counter()
            if pause is not None:
                running = time.perf_counter() - t0 - stopped
                timeout = min(timeout, (len(marks) + 1) * REFERENCE_PAUSE_S - running)
            try:
                out, err = proc.communicate(timeout=max(timeout, 0.0))
                break
            except subprocess.TimeoutExpired:
                if pause is None or time.perf_counter() >= deadline:
                    raise Deadline(" ".join(cmd[-6:])) from None
            proc.send_signal(signal.SIGSTOP)
            stop = time.perf_counter()
            marks.append(stop - t0 - stopped)
            other_cpu += pause()
            proc.send_signal(signal.SIGCONT)
            stopped += time.perf_counter() - stop
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.communicate()
    wall = time.perf_counter() - t0 - stopped
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime) - other_cpu
    result = (proc.returncode, out, err, wall, cpu, after.ru_maxrss)
    return result if pause is None else result + (marks,)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # fixed string hashing, so set iteration order and the exact counts of
    # the traced run repeat from run to run
    env["PYTHONHASHSEED"] = "0"
    # read the byte code compiled at start-up, write none (the checkout is
    # the only place a run may write)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_context(args):
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "sympy": sympy_version, "nproc": os.cpu_count(), "git_sha": sha}


# -- a run -----------------------------------------------------------------------

class Run:
    """State of one benchmark run: operation outcomes and samples."""

    def __init__(self, args):
        self.workload = args.workload
        self.seconds = args.seconds
        self.ops = workloads.workload_ops(args.workload, args.seed)
        self.goldens = workloads.load_goldens()
        self.env = child_env()
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.ok = 0
        self.peak_rss_kb = 0
        self.failures = []
        self.setup_modules = None
        self.samples = []     # per pass: [untraced] or [untraced, traced]
        self.series = Series(self)
        self.setup_walls = []  # (child index, wall) of each setup import

    def setup(self):
        """Run fresh interpreters that import the workload's modules (at
        least SETUP_MIN_REPEATS, until SETUP_BUDGET_S are spent); record which
        tmf3 modules that import loads. False if an import failed."""
        code = ("import sys, " + ", ".join(workloads.SETUP_IMPORTS[self.workload])
                + "; print(' '.join(sorted(m for m in sys.modules"
                " if m.startswith('tmf3.'))))")
        while (len(self.setup_walls) < SETUP_MIN_REPEATS
               or sum(w for _, w in self.setup_walls) < SETUP_BUDGET_S):
            child, (rc, out, err, wall, _, _) = self.series.run([sys.executable, "-c", code])
            if rc != 0:
                self.fail("setup import", err.strip()[-300:])
                return False
            self.setup_walls.append((child, wall))
            self.setup_modules = out.split()
        return True

    def fail(self, what, reason):
        self.attempted += 1
        self.failed += 1
        self.failures.append({"op": what, "reason": reason})

    def run_pass(self, traced=False):
        """One pass over the operations. Returns per-operation wall and CPU
        seconds and, for a traced pass, the tracer's reports."""
        walls, cpus, children, reports, payloads = [], [], [], [], []
        for op in self.ops:
            prefix = [sys.executable, str(TRACER)] if traced else [sys.executable, "-c", LAUNCH]
            child, (rc, out, err, wall, cpu, rss) = self.series.run(prefix + list(op.argv),
                                                                    stoppable=not traced)
            if traced:
                err, report = split_report(err)
                reports.append(report)
            walls.append(wall)
            cpus.append(cpu)
            children.append(child)
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
            verdict, reason = workloads.judge(op, rc, out, err, self.goldens, payloads)
            payloads.append(workloads.parse_json_output(out)[0] if "--json" in op.argv else None)
            self.attempted += 1
            if verdict == "ok":
                self.ok += 1
            elif verdict == "failed":
                self.failed += 1
                self.failures.append({"op": op.key, "traced": traced, "reason": reason})
        return {"wall": walls, "cpu": cpus, "child": children, "reports": reports}

    def run_passes(self, traced_too):
        """Repeat passes (an untraced then a traced one when `traced_too`):
        MIN_PASSES of them, then more while the next is expected to end
        within the run's seconds."""
        t0 = time.perf_counter()
        while True:
            start = time.perf_counter()
            sample = [self.run_pass()]
            if traced_too:
                sample.append(self.run_pass(traced=True))
            self.samples.append(sample)
            now = time.perf_counter()
            if len(self.samples) >= MIN_PASSES and now + (now - start) > t0 + self.seconds:
                return

    def finish(self):
        """End the series of children; add each pass's times at the reference
        speed (`wall_ref`, `cpu_ref`) and return the scaled `setup_s`."""
        scales = self.series.scales()
        for sample in self.samples:
            for p in sample:
                p["wall_ref"] = [w * scales[c][0] for w, c in zip(p["wall"], p["child"])]
                p["cpu_ref"] = [t * scales[c][1] for t, c in zip(p["cpu"], p["child"])]
        if not self.setup_walls:
            return None
        return statistics.median(w * scales[c][0] for c, w in self.setup_walls)


class Series:
    """A run's child processes, one after another, and the gaps of reference
    runs between and inside them (see ``REFERENCE_EVERY_S``)."""

    def __init__(self, run):
        self.owner = run
        self.gaps = []       # per gap: (wall, CPU) seconds of each reference run
        self.since = 0.0     # child wall time since the last gap
        self.children = []   # per child: (index of the gap before it, the
                             # wall time of each stretch between two gaps)

    def gap(self):
        """Run the reference program; returns the CPU seconds it used."""
        times = []
        while not times or sum(w for w, _ in times) < REFERENCE_SHARE * self.since:
            rc, _, err, wall, cpu, _ = run_process([sys.executable, "-c", REFERENCE],
                                                   self.owner.env, self.owner.deadline)
            if rc != 0:
                raise RuntimeError(f"the reference program failed: {err.strip()[-300:]}")
            times.append((wall, cpu))
        self.gaps.append(times)
        self.since = 0.0
        return sum(c for _, c in times)

    def run(self, cmd, stoppable=True):
        """`run_process(cmd)`, with gaps; returns the child's index and the
        result. A child that times itself from inside (a traced one) is not
        `stoppable`: a stop would count in its spans."""
        if not self.gaps or self.since >= REFERENCE_EVERY_S:
            self.gap()
        first = len(self.gaps) - 1

        def pause():
            self.since = REFERENCE_PAUSE_S
            return self.gap()

        if stoppable:
            *result, marks = run_process(cmd, self.owner.env, self.owner.deadline, pause)
        else:
            result, marks = run_process(cmd, self.owner.env, self.owner.deadline), []
        wall = result[3]
        self.children.append((first, [b - a for a, b in zip([0.0] + marks, marks + [wall])]))
        self.since = wall - marks[-1] if marks else self.since + wall
        return len(self.children) - 1, tuple(result)

    def scales(self):
        """End the series; each child's (wall, CPU) scale to the reference
        speed: the mean over its stretches, weighted by their wall time, of
        REFERENCE_S over the mean time of the reference runs around each. A
        child's CPU time is scaled by the reference runs' CPU time, so that
        time the host gives to others moves neither."""
        self.gap()
        scales = []
        for first, stretches in self.children:
            wall = cpu = 0.0
            for k, stretch in enumerate(stretches):
                refs = self.gaps[first + k] + self.gaps[first + k + 1]
                wall += stretch * REFERENCE_S / statistics.fmean(w for w, _ in refs)
                cpu += stretch * REFERENCE_S / statistics.fmean(c for _, c in refs)
            total = sum(stretches)
            scales.append((wall / total, cpu / total) if total else (1.0, 1.0))
        return scales

    def reference_times(self):
        return [wall for times in self.gaps for wall, _ in times]


def split_report(stderr):
    """Separate the tracer's report line from the program's stderr."""
    head, sep, line = stderr.rpartition(tracer.REPORT_PREFIX)
    if not sep:
        return stderr, None
    return head, json.loads(line)


def merge_reports(reports):
    """Sum the per-process trace reports of one pass."""
    spans, imports, caches, modules = {}, {}, {}, set()
    for report in reports:
        if report is None:
            continue
        for name, agg in report["spans"].items():
            total = spans.setdefault(name, dict.fromkeys(agg, 0))
            for key, value in agg.items():
                total[key] = total.get(key, 0) + value
        for name, seconds in report["imports"].items():
            imports[name] = imports.get(name, 0.0) + seconds
        for name, (hits, misses) in report["caches"].items():
            h, m = caches.get(name, (0, 0))
            caches[name] = (h + hits, m + misses)
        modules.update(report["modules"])
    return spans, imports, caches, sorted(modules)


def layer_values(spans, imports, caches):
    """The per-layer metrics one traced pass measures itself."""
    def stat(span, name):
        agg = spans.get(span, {})
        calls = agg.get("calls", 0)
        if name == "calls":
            return calls
        if name == "total_s":
            return agg.get("total", 0.0)
        if name == "self_s":
            return agg.get("self", 0.0)
        if name == "none_frac":
            return agg.get("none", 0) / calls if calls else 0.0
        return agg.get(name, 0)

    def hit_frac(name):
        hits, misses = caches.get(name, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    values = {}
    for _, _, span, stats in tracer.SPANS:
        for name in stats:
            values[f"{span}.{name}"] = stat(span, name)
    for i in range(1, tracer.VERIFY_ITEMS + 1):
        values[f"verify.item{i}.total_s"] = stat(f"verify.item{i}", "total_s")
    values["sseq.E2.cells"] = stat("sseq.build_E2", "cells")
    values["funfield.import_s"] = imports.get("tmf3.funfield", 0.0)
    values["cli.import_s"] = imports.get("tmf3.cli", 0.0)
    values["levelmaps.cached_pow.hit_frac"] = hit_frac("cached_pow")
    values["levelmaps.tpow.hit_frac"] = hit_frac("tpow")
    return values


def median_sum(passes, field, keep=None):
    """Sum over the operations (those `keep` accepts) of each operation's
    median over the passes. From three passes on, a stall in one pass moves
    no total; with two the median is their mean."""
    return sum(statistics.median(p[field][i] for p in passes)
               for i in range(len(passes[0][field])) if keep is None or keep(i))


def measure(args):
    run = Run(args)
    context = run_context(args)
    try:
        if run.setup():
            run.run_passes(traced_too=bool(args.trace))
        setup_s = run.finish()
    except Deadline as exc:
        run.fail(str(exc), f"killed after the run's {RUN_DEADLINE_S:.0f} s deadline")
        run.samples = []
    samples = run.samples
    untraced = [s[0] for s in samples]
    metrics = {}
    if samples and args.trace:
        metrics, modules = traced_metrics(run.ops, samples)
        if run.setup_modules is not None and modules != sorted(run.setup_modules):
            context["setup_imports_stale"] = {"setup": run.setup_modules,
                                              "operations": modules}
    elif samples:
        metrics = {
            "wall_s": median_sum(untraced, "wall_ref"),
            "cpu_s": median_sum(untraced, "cpu_ref"),
            "setup_s": setup_s,
            "peak_rss_mb": run.peak_rss_kb / 1024,
            "ok_frac": run.ok / run.attempted,
        }
    if samples:
        context["raw"] = {"wall_s": median_sum(untraced, "wall"),
                          "cpu_s": median_sum(untraced, "cpu"),
                          "setup_s": statistics.median(w for _, w in run.setup_walls)}
        context["reference_s"] = statistics.median(run.series.reference_times())
    context["pass_wall_s"] = [round(sum(p["wall"]), 4) for p in untraced]
    print(json.dumps({"context": context}))
    for failure in run.failures:
        print(json.dumps({"failure": failure}))
    units = {name: unit for name, unit, _ in END_TO_END + per_layer_spec()}
    return {
        "correct": run.failed == 0 and bool(samples),
        "attempted": max(run.attempted, 1),
        "failed": run.failed if samples else max(run.failed, 1),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def traced_metrics(ops, samples):
    """The per-layer metrics (each the median over traced passes), and the
    tmf3 modules the traced operations loaded."""
    untraced = [s[0] for s in samples]
    traced = [s[1] for s in samples]
    per_pass = []
    for p in traced:
        spans, imports, caches, modules = merge_reports(p["reports"])
        per_pass.append(layer_values(spans, imports, caches))
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    for family in FAMILIES:
        metrics[f"cli.{family}.cold_s"] = median_sum(
            untraced, "wall_ref", lambda i: ops[i].family == family)
    metrics["trace.overhead_s"] = (median_sum(traced, "wall_ref")
                                   - median_sum(untraced, "wall_ref"))
    return metrics, modules


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.SETUP_IMPORTS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tmf3" / "cli.py").is_file():
        print(f"error: no tmf3 sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if not workloads.GOLDENS_PATH.is_file():
        print(f"error: missing {workloads.GOLDENS_PATH}", file=sys.stderr)
        return 2
    # the build: byte-compile the sources once, as an install would
    compileall.compile_dir(str(SRC / "tmf3"), quiet=1)
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
