"""Command-line harness: ``chemolab exponents | run | sweep``.

``exponents`` prints the threshold quantities and the bootstrap chain for a
parameter triple.  ``run`` integrates one configured scenario and writes
``timeseries.csv`` plus ``report.txt``; on Linux with two CPUs or more, a
run whose row work (``row_work``: rows after t = 0 x cells x monitored
orders) reaches ``ROW_PROCESS_MIN_WORK`` has a forked process compute its
rows beside the stepping (``_RowProcess``).
``sweep`` executes a (chi, k) grid of runs and writes ``sweep_summary.csv``,
one row per grid point in chi-major order.  Grid points that share their first
time step advance together as one ``solver.run_batch`` task of at most
``solver.BATCH_CELLS`` cells (one point when the mesh alone is larger), and
the parallelism level (CHEMOLAB_THREADS overrides it; never more than the
points or CPUs) counts the processes that step the tasks: this one and, on
Linux only, forked children.  Each row is bit-identical to a run of its point
alone, so the summary depends neither on the batching nor on the parallelism.

All real numbers in CSV output carry 17 significant digits, so files are
round-trippable and byte-comparable across repeated and parallel runs.

Exit codes: 0 success (run: completed with all checks passing), 1 malformed
input or configuration, 2 exponents outside the applicable chi range,
3 run completed but a check failed, 4 suspected blow-up, 5 dt collapse,
6 positivity lost (a scheme fault: ``stable_dt`` keeps u >= 0 and v > 0
for every accepted dt_safety).
"""

from __future__ import annotations

import argparse
import atexit
import gc
import math
import os
import pickle
import sys
from array import array
from pathlib import Path

from . import solver
from .diagnostics import (
    MonitorConfig,
    TimeSeries,
    dissipation_check,
    floor_gap,
    gronwall_check,
    mass_drift,
    min_v_floor_check,
)
from .errors import ConfigError, DomainError, InsufficientRows, NotApplicable
from .exponents import (
    ModelParams,
    bootstrap,
    center_ratio_bounds,
    chi_star,
    is_below_threshold,
    p_max,
)
from .runconfig import (
    SweepSpec,
    build_initial,
    build_mesh,
    build_params,
    build_scheme,
    load_run_config,
    load_sweep_spec,
    point_config,
    resolve_monitors,
)
from .solver import (
    BATCH_CELLS,
    STATUS_BLOWUP,
    STATUS_COMPLETED,
    STATUS_DT_COLLAPSE,
    STATUS_POSITIVITY_LOST,
    RunReport,
    stable_dt,
)
from .solver import run_batch as run_solver


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _label(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------


def cmd_exponents(args) -> int:
    params = ModelParams(chi=args.chi, k=args.k, n=args.n)
    threshold = chi_star(params.k, params.n)
    print(f"chi_star(k={_label(params.k)}, n={params.n}) = {_fmt(threshold)}")
    print(f"p_max = {_fmt(p_max(params.chi, params.k))}")
    below = is_below_threshold(params.chi, params.k, params.n)
    if params.n >= 3 and below:
        bounds = center_ratio_bounds(params.chi, params.k, params.n)
        print(f"c0 = {_fmt(bounds.c0)}")
        print(f"c_sup = {_fmt(bounds.c_sup)}")
    else:
        print("c0 = n/a")
        print("c_sup = n/a")
    if not below:
        print(f"chi = {_label(params.chi)} is not below the threshold: not applicable")
        return 2
    print(f"chi = {_label(params.chi)} is below the threshold: applicable")

    chain = bootstrap(params, theta=args.theta, max_steps=args.max_steps)
    print(f"bootstrap chain (theta = {_label(args.theta)}):")
    header = f"{'l':>4} {'p':>22} {'r':>22} {'q':>22} {'upper_used':>22}"
    print(header)
    for idx, step_rec in enumerate(chain.steps):
        print(
            f"{idx:>4} {step_rec.p:>22.12g} {step_rec.r:>22.12g} "
            f"{step_rec.q:>22.12g} {step_rec.upper_used:>22.12g}"
        )
    if chain.terminated:
        print(f"terminated after {len(chain.steps)} step(s); final q = {_fmt(chain.final_q)}")
    else:
        print(f"did not terminate within {args.max_steps} steps")
    if args.csv:
        lines = ["l,p,r,q,upper_used"]
        for idx, step_rec in enumerate(chain.steps):
            lines.append(
                f"{idx},{_fmt(step_rec.p)},{_fmt(step_rec.r)},"
                f"{_fmt(step_rec.q)},{_fmt(step_rec.upper_used)}"
            )
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


# Rows of timeseries.csv formatted and written per write, so that the text
# held at once is one chunk's, not the file's.  Writing 1,501 rows of 20
# columns raised a process's peak RSS by 0.12 MB at 32 rows per chunk, 0.25 MB
# at 64 and 1.0 MB at 256, in about 21 ms each (2-core x86_64, Python 3.11).
CSV_CHUNK_ROWS = 32

# The least ``row_work`` for which ``run`` forks its row process: the fork,
# the sends of u and v and a slower exit cost a few ms that only enough row
# work wins back.  A 64x64-cell run with bootstrap monitors (2 norms and 1
# pair) broke even between 768 and 1,024 rows, 9.4M to 12.6M (README,
# "Command line").
ROW_PROCESS_MIN_WORK = 10_000_000


def row_work(scheme, mesh, monitors: MonitorConfig) -> int:
    """The row work of a run on ``mesh`` with the ``SchemeConfig`` ``scheme``:
    rows after t = 0 (t_end / output_interval, rounded up) x cells x
    monitored orders (the q-norms and (p, r) pairs of ``monitors``), counted
    before the run starts."""
    rows = math.ceil(scheme.t_end / scheme.output_interval - 1e-9)
    return rows * mesh.cell_count * (len(monitors.q_list) + len(monitors.pr_pairs))


def timeseries_csv(series: TimeSeries, out) -> None:
    """Write ``series`` as CSV to the text stream ``out``: the column names,
    then one line per row, every value with 17 significant digits.  Rows
    are formatted and written ``CSV_CHUNK_ROWS`` at a time."""
    width, values = series.width, series.values
    out.write(",".join(series.names) + "\n")
    chunk = CSV_CHUNK_ROWS * width
    for start in range(0, len(values), chunk):
        texts = [f"{x:.17g}" for x in values[start : start + chunk]]  # _fmt, inlined
        lines = [",".join(texts[i : i + width]) for i in range(0, len(texts), width)]
        out.write("\n".join(lines) + "\n")


def _gronwall_over_pairs(report: RunReport, monitors: MonitorConfig):
    """(all passed, worst ratio) of the Gronwall check over the (p, r) pairs; nan without pairs."""
    passed = True
    worst = math.nan
    for pair in monitors.pr_pairs:
        verdict = gronwall_check(report.series, pair, monitors.tolerance_rel)
        passed = passed and verdict.passed
        if math.isnan(worst) or verdict.worst > worst:
            worst = verdict.worst
    return passed, worst


def evaluate_checks(report: RunReport, monitors: MonitorConfig):
    """(all_passed, worst_gronwall, gronwall, dissipation, floor) verdict strings."""
    gronwall_ok, worst = _gronwall_over_pairs(report, monitors)
    dissipation_state = "pass"
    for pair in monitors.pr_pairs:
        try:
            if not dissipation_check(report.series, pair, monitors.tolerance_rel).passed:
                dissipation_state = "fail"
        except InsufficientRows:
            if dissipation_state == "pass":
                dissipation_state = "skipped"
    floor = min_v_floor_check(report.series, floor_factors=report.floor_factors, steps=report.steps)
    all_passed = gronwall_ok and dissipation_state != "fail" and floor.passed
    return (
        all_passed,
        worst,
        "pass" if gronwall_ok else "fail",
        dissipation_state,
        "pass" if floor.passed else "fail",
    )


def report_text(report: RunReport, checks) -> str:
    _, worst_gronwall, gronwall_state, dissipation_state, floor_state = checks
    return (
        f"status: {report.status}\n"
        f"t_final: {_fmt(report.t_final)}\n"
        f"steps: {report.steps}\n"
        f"max_u_over_run: {_fmt(report.max_u_over_run)}\n"
        f"min_v_over_run: {_fmt(report.min_v_over_run)}\n"
        f"mass_drift: {_fmt(mass_drift(report.series))}\n"
        f"worst_gronwall_ratio: {_fmt(worst_gronwall)}\n"
        f"gronwall: {gronwall_state}\n"
        f"dissipation: {dissipation_state}\n"
        f"min_v_floor: {floor_state}\n"
        f"min_v_floor_gap: {_fmt(floor_gap(report.series, report.floor_factors))}\n"
    )


def cmd_run(args) -> int:
    cfg = load_run_config(args.config)
    params = build_params(cfg)
    mesh = build_mesh(cfg)
    monitors = resolve_monitors(cfg, params)
    init = build_initial(cfg, mesh)
    scheme = build_scheme(cfg)
    with _RowProcess(row_work(scheme, mesh, monitors)) as append_row:
        report = run_solver(init, [params], mesh, scheme, [monitors], append_row)[0]

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "timeseries.csv", "w", encoding="utf-8") as out:
        timeseries_csv(report.series, out)
    checks = evaluate_checks(report, monitors)
    (outdir / "report.txt").write_text(report_text(report, checks), encoding="utf-8")

    if report.status == STATUS_COMPLETED:
        return 0 if checks[0] else 3
    return {STATUS_BLOWUP: 4, STATUS_DT_COLLAPSE: 5, STATUS_POSITIVITY_LOST: 6}[report.status]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


class _SweepPoint:
    """One grid point of a sweep, built once in the parent process; ``index``
    is its position in the chi-major grid, ``params`` holds its chi and k,
    and ``dt`` is its first time step."""

    __slots__ = ("index", "params", "monitors", "dt")

    def __init__(self, index: int, params: ModelParams, monitors: MonitorConfig, dt: float):
        self.index, self.params, self.monitors, self.dt = index, params, monitors, dt


def _work(points: list[_SweepPoint]) -> float:
    return len(points) / points[0].dt  # a batch's work estimate


def _sweep_row(chi: float, k: float, n: int, status: str, max_u: float, worst: float) -> str:
    below = "true" if is_below_threshold(chi, k, n) else "false"
    return f"{_fmt(chi)},{_fmt(k)},{_fmt(chi_star(k, n))},{below},{status},{_fmt(max_u)},{_fmt(worst)}"


def _error_row(chi: float, k: float, n: int, exc: Exception) -> str:
    return _sweep_row(chi, k, n, f"error:{type(exc).__name__}", math.nan, math.nan)


def _sweep_point(task) -> list[str]:
    """One batch of grid points -> their CSV rows, in batch order.

    ``task`` is ``(mesh, scheme, initial, points)``: the points (``_SweepPoint``)
    share the mesh, scheme and initial state and advance as one
    ``run_solver`` batch.  Failures are recorded in their point's row, never
    raised; a batch whose run raises is run again point by point, so the
    error lands in the row of the point that raised it.
    """
    mesh, scheme, initial, points = task
    try:
        reports = run_solver(initial, [p.params for p in points], mesh, scheme, [p.monitors for p in points])
    except Exception as exc:  # per-point failures stay in-row
        if len(points) == 1:
            params = points[0].params
            return [_error_row(params.chi, params.k, params.n, exc)]
        return [row for point in points for row in _sweep_point((mesh, scheme, initial, [point]))]
    rows = []
    for point, report in zip(points, reports):
        chi, k, n = point.params.chi, point.params.k, point.params.n
        try:
            _, worst = _gronwall_over_pairs(report, point.monitors)
        except Exception as exc:  # per-point failures stay in-row
            rows.append(_error_row(chi, k, n, exc))
        else:
            rows.append(_sweep_row(chi, k, n, report.status, report.max_u_over_run, worst))
    return rows


def _split(seq: list, parts: int) -> list[list]:
    """``seq`` cut into ``parts`` contiguous pieces whose lengths differ by at most one."""
    size, extra = divmod(len(seq), parts)
    pieces, start = [], 0
    for i in range(parts):
        end = start + size + (i < extra)
        pieces.append(seq[start:end])
        start = end
    return pieces


def _plan_sweep(spec: SweepSpec, workers: int):
    """Build every input of a sweep once and cut its points into batch tasks.

    The mesh, scheme and initial state come from ``spec.base`` (no grid point
    changes them); each point's params and monitors are built in its own
    ``try``.  Points are grouped by their first-step ``stable_dt``, each group
    is cut into batches of at most ``BATCH_CELLS`` cells (one point each when
    the mesh alone is larger), and the batches with the most work
    (points / dt) are halved until there are ``min(points, workers)`` tasks.

    Returns ``(rows, tasks)``: the CSV rows of the points that failed to
    build, by grid index, and the ``_sweep_point`` tasks, largest work first.
    """
    base = spec.base
    shared_error = None
    try:
        mesh = build_mesh(base)
        scheme = build_scheme(base)
        initial = build_initial(base, mesh)
    except Exception as exc:  # every point reports it, in its own row
        shared_error = exc
    rows: dict[int, str] = {}
    groups: dict[float, list[_SweepPoint]] = {}
    for index, (chi, k) in enumerate(spec.points):
        try:
            cfg = point_config(spec, chi, k)
            params = build_params(cfg)
            monitors = resolve_monitors(cfg, params, missing_ok=True)
            if shared_error is not None:
                raise shared_error
            dt = stable_dt(initial, params, mesh, scheme)
        except Exception as exc:  # per-point failures stay in-row
            rows[index] = _error_row(chi, k, base.n, exc)
            continue
        groups.setdefault(dt, []).append(_SweepPoint(index, params, monitors, dt))
    if not groups:
        return rows, []

    cap = max(1, BATCH_CELLS // mesh.cell_count)
    batches = [piece for members in groups.values() for piece in _split(members, -(-len(members) // cap))]
    wanted = min(sum(len(members) for members in groups.values()), workers)
    while len(batches) < wanted:
        largest = max((b for b in batches if len(b) > 1), key=_work)
        batches.remove(largest)
        batches += _split(largest, 2)
    batches.sort(key=_work, reverse=True)
    return rows, [(mesh, scheme, initial, members) for members in batches]


def _fork(body) -> tuple[int, int]:
    """(pid, pipe read end) of a forked child that writes the pipe by ``body``, then ``os._exit``s."""
    read, write = os.pipe()
    if (pid := os.fork()) == 0:  # the child never returns into the caller
        try:
            os.close(read)
            with open(write, "wb") as out:
                body(out)
        except BaseException:
            os._exit(1)
        os._exit(0)
    os.close(write)
    return pid, read


def _run_shares(tasks: list, processes: int) -> dict[int, str]:
    """Each point's row, by grid index, from ``processes`` processes: each
    task (largest first) goes to the share with the least work so far, this
    process steps share 0 (the largest task's) and, on Linux only, a
    ``_fork``-ed child steps each other share and sends its rows.  Every
    child is read and reaped, even if this process's share raises; one that
    fails or sends the wrong row count gives each of its points an
    ``error:ChildProcessError`` row."""
    shares, loads = [[] for _ in range(processes)], [0.0] * processes
    for task in tasks:
        least = loads.index(min(loads))
        shares[least].append(task)
        loads[least] += _work(task[3])
    here, forked = (shares[:1], shares[1:]) if sys.platform.startswith("linux") else (shares, [])
    rows, children = {}, []  # children: (pid, read end of its pipe, the points of its share)
    try:
        for share in forked:
            pid, read = _fork(lambda out: out.write("\n".join(r for t in share for r in _sweep_point(t)).encode()))
            children.append((pid, read, [point for task in share for point in task[3]]))
        for task in (task for share in here for task in share):
            rows.update(zip((point.index for point in task[3]), _sweep_point(task)))
    finally:
        for pid, read, points in children:
            with open(read, "rb") as pipe:
                texts = pipe.read().decode().split("\n")
            if os.waitpid(pid, 0)[1] != 0 or len(texts) != len(points):
                texts = [_error_row(p.params.chi, p.params.k, p.params.n, ChildProcessError(pid)) for p in points]
            rows.update(zip((point.index for point in points), texts))
    return rows


class _RowProcess:
    """``run_batch``'s ``append_row`` for a one-point run of row work
    ``work`` (``row_work``), or None off Linux, with one CPU or with less
    work than ``ROW_PROCESS_MIN_WORK``.  A forked child computes each row
    after t = 0 while the series holds zeros in its place; when the run ends
    it sends back the first exception that a row raised (or None), raised
    again here, and then the rows, read into those places."""

    def __init__(self, work: int):
        self.pid, self.pays = None, work >= ROW_PROCESS_MIN_WORK

    def __enter__(self):
        return self if self.pays and sys.platform.startswith("linux") and (os.cpu_count() or 1) > 1 else None

    def __call__(self, state, mesh, series, extremes) -> None:
        if self.pid is None:  # the child computes this row from its copy of the state
            rows, self.write = os.pipe()
            self.series, self.start, self.blank = series, len(series.values), array("d", bytes(8 * series.width))
            self.pid, self.read = _fork(lambda out: self._serve(state, mesh, extremes, rows, out))
            os.close(rows)
        elif os.writev(self.write, (array("d", (state.t, *extremes)), state.u, state.v)) < 24 + 16 * state.u.size:
            raise BrokenPipeError  # a short write: the child died, as when writev raises it
        series.values.extend(self.blank)

    def _serve(self, state, mesh, extremes, rows, out) -> None:
        os.close(self.write)
        series, error, header, uv = self.series, None, array("d", bytes(24)), state.uv()  # uv: a new (2, N) array
        with open(rows, "rb") as pipe:
            while True:
                try:
                    solver.compute_row(state, mesh, series, extremes)
                except Exception as exc:  # the first is raised again in the parent
                    error = error or exc
                if not (pipe.readinto(header) and pipe.readinto(uv)):
                    break
                state.u, state.v, state.t, extremes = uv[0], uv[1], header[0], (header[1], header[2])
        pickle.dump(error, out)
        out.write(memoryview(series.values)[self.start :])

    def __exit__(self, kind, value, traceback) -> None:
        if self.pid is not None:
            os.close(self.write)
            lost = ChildProcessError(f"the row process (pid {self.pid}) failed before sending its rows")
            error = lost if kind is BrokenPipeError else None
            try:  # a child that failed sent less than a pickle and every row
                with open(self.read, "rb") as pipe:
                    if kind is None and (error := pickle.load(pipe)) is None:
                        with memoryview(self.series.values)[self.start :] as rows:
                            error = None if pipe.readinto(rows) == rows.nbytes else lost
            except (EOFError, pickle.UnpicklingError):
                error = lost
            finally:
                os.waitpid(self.pid, 0)
            if error is not None:
                raise error from None


def _resolve_parallelism(spec: SweepSpec) -> int:
    env = os.environ.get("CHEMOLAB_THREADS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"CHEMOLAB_THREADS must be an integer, got {env!r}") from None
        if not SweepSpec.RULES["parallelism"].test(value):
            raise ConfigError(f"CHEMOLAB_THREADS must be >= 1, got {value}")
        return value
    return spec.parallelism


def cmd_sweep(args) -> int:
    spec = load_sweep_spec(args.spec)
    workers = min(_resolve_parallelism(spec), len(spec.points), os.cpu_count() or 1)
    rows, tasks = _plan_sweep(spec, workers)
    rows.update(_run_shares(tasks, min(workers, len(tasks))))
    header = "chi,k,chi_star,below_threshold,status,max_u_over_run,worst_gronwall_ratio"
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    lines = [header] + [rows[index] for index in range(len(spec.points))]
    (outdir / "sweep_summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemolab",
        description="Exponent calculus and finite-volume runs for the "
        "singular-sensitivity chemotaxis system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("exponents", help="thresholds and the bootstrap chain")
    p_exp.add_argument("--chi", type=float, required=True, help="chemotactic sensitivity")
    p_exp.add_argument("--k", type=float, required=True, help="chemical diffusivity")
    p_exp.add_argument("--n", type=int, required=True, help="space dimension")
    p_exp.add_argument("--theta", type=float, default=0.5, help="interval selection fraction")
    p_exp.add_argument("--max-steps", type=int, default=50)
    p_exp.add_argument("--csv", help="also write the chain rows to this CSV path")

    p_run = sub.add_parser("run", help="integrate one configured scenario")
    p_run.add_argument("config", help="run configuration file")
    p_run.add_argument("--outdir", default=".", help="where to write timeseries.csv and report.txt")

    p_sweep = sub.add_parser("sweep", help="grid of runs over (chi, k)")
    p_sweep.add_argument("spec", help="sweep specification file")
    p_sweep.add_argument("--outdir", default=".", help="where to write sweep_summary.csv")
    return parser


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    Also registers ``gc.freeze`` to run at exit, after every exit handler
    registered later, so that the collection of interpreter shutdown skips
    the ~22k objects of numpy and chemolab: a ``run`` took 8 ms instead of
    28 ms to exit once ``main`` had returned (medians of 6, 2-core x86_64,
    Python 3.11).  Every file chemolab writes is closed before ``main``
    returns, so nothing waits for that collection.  Registered once per
    process, however often ``main`` is called.
    """
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    handlers = {"exponents": cmd_exponents, "run": cmd_run, "sweep": cmd_sweep}
    try:
        return handlers[args.command](args)
    except (ConfigError, DomainError, NotApplicable, OSError) as exc:
        print(f"chemolab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
