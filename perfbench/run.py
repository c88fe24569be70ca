"""Benchmark runner: one workload, closed loop, outputs checked.

    python3 perfbench/run.py --workload run2d [--seed 0] [--seconds 30] [--trace 0]

Run from anywhere inside a checkout; chemolab is imported from its ``src``.
Each invocation is one chemolab CLI process started only after the previous
one exited (one client, closed loop).  The loop starts invocations until the
next one would end after ``--seconds`` (at least ``MIN_SAMPLES`` of them;
default: BENCHMARK.json's run_seconds).

``--trace 0`` measures the end-to-end metrics (wall_s, setup_s, peak_rss_mb)
with tracing off.  Each invocation sits between two runs of the workload's
calibration (calibrate.py), and its times are divided by how much slower
than the calibration's ``reference_s`` those ran: wall_s and setup_s are
seconds at the reference speed (README.md, "Steadiness"); set-up times
are scaled by the calibration's own set-up time in the same way.  ``--trace 1``
alternates untraced and traced invocations of the same input and reports the
per-layer metrics of layers.py, taken from the traced ones, plus
``trace.overhead_frac``.  Every metric is the median over the run's
invocations.  Both print a table with the median, quartiles, sample count
and spread against the bound (raw, unscaled times too), then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Artifacts go to
``.perfbench_out/<workload>-seed<seed>-trace<t>/`` in the checkout.

Exit code 2, with no result line, when the checkout holds no chemolab source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
MIN_SAMPLES = 3
MIN_TRACE_PAIRS = 2
INVOCATION_TIMEOUT_S = 90.0


@dataclass
class Sample:
    wall_s: float
    peak_rss_mb: float
    setup_s: float | None
    verdict: checks.Verdict
    traced: bool
    layer: dict = field(default_factory=dict)
    slowdown: float = 1.0  # calibration time around the invocation / reference_s
    setup_slowdown: float = 1.0  # calibration set-up time around it / SETUP_REFERENCE_S


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def child_env(extra: dict[str, str]) -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in ("PERFBENCH_MARK", "PERFBENCH_TRACE", "PERFBENCH_RUN_ID"):
        env.pop(key, None)
    env.update(extra)
    return env


def spawn(argv: list[str], env: dict, log: Path) -> tuple[int, int, float, float, float]:
    """Run one process to exit: (pid, exit code, start time, wall s, peak RSS MB).

    Peak RSS comes from wait4, which reports the largest of the process and
    the descendants it waited for (a sweep's pool workers).
    """
    with open(log, "wb") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT, start_new_session=True
        )
        timer = threading.Timer(INVOCATION_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:  # workers the process failed to reap
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    return proc.pid, proc.returncode, t0, wall, usage.ru_maxrss / 1024.0


def chemolab(args: list[str], extra_env: dict[str, str], log: Path):
    """``chemolab <args>`` through launch.py; returns what ``spawn`` returns."""
    return spawn([sys.executable, str(HERE / "launch.py"), *args], child_env(extra_env), log)


def calibrate(cal: workloads.Calibration, logs: list[Path]) -> tuple[float, float, list[str]]:
    """Run ``cal.procs`` calibrate.py processes at once: (wall s, set-up s, results).

    The wall time is the mean over the processes of start to exit, the
    set-up time the mean of start to the end of their imports, and the
    results are their first output lines.  Each process is
    reaped by a blocking wait in its own thread (``Popen.wait`` with a
    timeout polls, which would round every time up to 50 ms steps).  Raises
    RuntimeError if one fails: that is the benchmark's fault, not the
    program's, so the run ends without a result.
    """
    argv = [sys.executable, str(HERE / "calibrate.py"), *cal.argv()]
    procs: list[subprocess.Popen] = []
    ends: list[float] = []

    def reap(proc: subprocess.Popen) -> None:
        proc.wait()
        ends.append(time.monotonic())

    t0 = time.monotonic()
    try:
        for log in logs:
            with open(log, "wb") as out:
                procs.append(subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT))
        reapers = [threading.Thread(target=reap, args=(p,)) for p in procs]
        for r in reapers:
            r.start()
        for r in reapers:
            r.join(INVOCATION_TIMEOUT_S)
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    codes = [p.returncode for p in procs]
    if any(codes) or len(ends) < len(procs):
        raise RuntimeError(f"calibration failed with exit codes {codes}, see {logs[0].parent}")
    outputs = [log.read_text(encoding="utf-8").splitlines() for log in logs]
    setup = statistics.fmean(float(out[1]) - t0 for out in outputs)
    return statistics.fmean(end - t0 for end in ends), setup, [out[0] for out in outputs]


class Bench:
    def __init__(self, sc: workloads.Scenario, work: Path, reference: dict | None):
        self.sc = sc
        self.work = work
        self.checker = checks.OutputChecker(sc, reference)
        self.count = 0
        self.kept_trace: Path | None = None
        self.calibration_output: list[str] | None = None
        self.calibration_s: list[float] = []

    def calibrate(self) -> tuple[float, float]:
        """Time the workload's calibration once; check it did the same work as before.

        Returns its slowdowns against the reference: (wall, set-up).
        """
        cal = self.sc.calibration
        logs = [self.work / f"calibration{i}.txt" for i in range(cal.procs)]
        wall, setup, output = calibrate(cal, logs)
        if self.calibration_output is None:
            self.calibration_output = output
        elif output != self.calibration_output:
            raise RuntimeError(f"calibration output changed: {output} != {self.calibration_output}")
        self.calibration_s.append(wall)
        return wall / cal.reference_s, setup / workloads.SETUP_REFERENCE_S

    def invoke(self, traced: bool) -> Sample:
        sc = self.sc
        self.count += 1
        inv = self.work / f"inv{self.count:03d}{'-traced' if traced else ''}"
        inv.mkdir()
        if traced:
            extra = {"PERFBENCH_TRACE": str(inv), "PERFBENCH_RUN_ID": f"{sc.workload}-{sc.seed}-{self.count}"}
        else:
            extra = {"PERFBENCH_MARK": str(inv / "setup_end")}
        args = [sc.command, str(self.work / sc.input_name), "--outdir", str(inv / "out")]
        pid, code, t0, wall, rss = chemolab(args, extra, inv / "output.txt")

        verdict = self.checker.check(inv / "out", code)
        marks = inv / "setup_end"
        setup = min(float(x) for x in marks.read_text().split()) - t0 if marks.exists() else None
        sample = Sample(wall, rss, setup, verdict, traced)
        if traced:
            csv = inv / "out" / ("sweep_summary.csv" if sc.command == "sweep" else "timeseries.csv")
            csv_bytes = csv.stat().st_size if csv.exists() else 0
            sample.layer = layers.invocation_metrics(
                spans.load(inv), pid, wall, sc.cells, csv_bytes, sc.parallelism
            )
        if verdict.failed:
            return sample  # keep the directory for inspection
        if traced:  # keep the spans of the latest traced invocation
            if self.kept_trace is not None:
                shutil.rmtree(self.kept_trace)
            self.kept_trace = inv
        else:
            shutil.rmtree(inv)
        return sample


def measure(bench: Bench, seconds: float, trace: bool) -> list[Sample]:
    """Closed loop until the next invocation would end after ``seconds``.

    Untraced, each invocation is preceded and followed by a calibration, and
    its slowdowns are the means of the two (consecutive invocations share one).
    """
    samples: list[Sample] = []
    start = time.monotonic()
    if trace:
        while True:
            samples.append(bench.invoke(traced=False))
            samples.append(bench.invoke(traced=True))
            step = statistics.median(s.wall_s for s in samples) * 2
            if len(samples) >= 2 * MIN_TRACE_PAIRS and time.monotonic() - start + step > seconds:
                return samples
    before = bench.calibrate()
    while True:
        sample = bench.invoke(traced=False)
        after = bench.calibrate()
        sample.slowdown = 0.5 * (before[0] + after[0])
        sample.setup_slowdown = 0.5 * (before[1] + after[1])
        before = after
        samples.append(sample)
        step = statistics.median(s.wall_s for s in samples) + statistics.median(bench.calibration_s)
        if len(samples) >= MIN_SAMPLES and time.monotonic() - start + step > seconds:
            return samples


def provenance(sc: workloads.Scenario) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cells": sc.cells,
        "command": f"chemolab {sc.command} {sc.input_name}",
        "loop": "closed, one client",
    }


def summarize(name: str, values: list[float], unit: str, bound: float | None) -> dict:
    q1, med, q3 = quartiles(values)
    spread = (q3 - q1) / med if med else 0.0
    return {"name": name, "unit": unit, "median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": spread, "bound": bound}


def format_row(row: dict) -> str:
    bound = f"{row['bound']:.0%}" if row["bound"] is not None else "-"
    return (f"{row['name']:<42} {row['unit']:>5} {row['median']:>14.6g} "
            f"{row['q1']:>12.6g} {row['q3']:>12.6g} {row['n']:>3} {row['spread']:>8.2%} {bound:>6}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chemolab" / "cli.py").is_file():
        print(f"perfbench: no chemolab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    sc = workloads.scenario(args.workload, args.seed)

    work = ROOT / ".perfbench_out" / f"{sc.workload}-seed{sc.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / sc.input_name).write_text(sc.input_text, encoding="utf-8")

    # Compile and page in chemolab and numpy once; users pay this only once too.
    # A broken program shows up as failed invocations below, not here.
    chemolab(["exponents", "--chi", "0.5", "--k", "1", "--n", "2"], {}, work / "warmup.txt")

    bench = Bench(sc, work, reference.get(sc.workload))
    samples = measure(bench, args.seconds, bool(args.trace))
    attempted = sum(s.verdict.attempted for s in samples)
    failed = sum(s.verdict.failed for s in samples)
    prov = provenance(sc)

    timed = [s for s in samples if not s.verdict.failed] or samples  # a fast failure is no timing
    rows = []
    metrics = {}
    if args.trace:
        traced = [s for s in timed if s.traced]
        untraced = [s for s in timed if not s.traced]
        overhead = (statistics.median(s.wall_s for s in traced)
                    / statistics.median(s.wall_s for s in untraced) - 1.0)
        for m in spec["per_layer"]:
            name, unit = m["name"], m["unit"]
            values = [overhead] if name == "trace.overhead_frac" else [s.layer[name] for s in traced]
            rows.append(summarize(name, values, unit, None))
            metrics[name] = {"value": rows[-1]["median"], "unit": unit}
        prov["solver.steps"] = metrics["solver.steps"]["value"]
    else:
        columns = {
            "wall_s": [s.wall_s / s.slowdown for s in timed],
            "setup_s": [s.setup_s / s.setup_slowdown for s in timed if s.setup_s is not None],
            "peak_rss_mb": [s.peak_rss_mb for s in timed],
        }
        for m in spec["end_to_end"]:
            name, unit = m["name"], m["unit"]
            values = columns[name]
            rows.append(summarize(name, values, unit, m["bound"]) if values else None)
            metrics[name] = {"value": rows[-1]["median"] if values else None, "unit": unit}
        # What the clock showed, before scaling to the reference speed.
        rows.append(summarize("raw.wall_s", [s.wall_s for s in timed], "s", None))
        setups = [s.setup_s for s in timed if s.setup_s is not None]
        rows.append(summarize("raw.setup_s", setups, "s", None) if setups else None)
        rows.append(summarize("calibration.slowdown", [s.slowdown for s in timed], "x", None))
        rows.append(summarize("calibration.setup_slowdown", [s.setup_slowdown for s in timed], "x", None))
        cal = sc.calibration
        prov["calibration"] = (f"{cal.procs} x calibrate.py {' '.join(cal.argv())}, "
                               f"reference_s={cal.reference_s}, "
                               f"setup reference_s={workloads.SETUP_REFERENCE_S}")
        prov["solver.steps"] = "reported by --trace 1"

    print(f"perfbench workload={sc.workload} seed={sc.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"{'metric':<42} {'unit':>5} {'median':>14} {'q1':>12} {'q3':>12} "
          f"{'n':>3} {'spread':>8} {'bound':>6}")
    for row in rows:
        print(format_row(row) if row else "(no samples)")
    fail_frac = failed / attempted
    print(f"{'failed_frac':<42} {'frac':>5} {fail_frac:>14.6g}   n={attempted} attempted, {failed} failed")
    for s in samples:
        for problem in s.verdict.problems:
            print(f"FAILED: {problem}")

    (work / "result.json").write_text(json.dumps({
        "workload": sc.workload, "seed": sc.seed, "trace": args.trace, "provenance": prov,
        "summary": rows, "failed_frac": fail_frac,
        "calibration_s": bench.calibration_s,
        "samples": [{"wall_s": s.wall_s, "setup_s": s.setup_s, "peak_rss_mb": s.peak_rss_mb,
                     "slowdown": s.slowdown, "setup_slowdown": s.setup_slowdown, "traced": s.traced,
                     "failed": s.verdict.failed, "problems": s.verdict.problems, "layer": s.layer}
                    for s in samples],
    }, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
