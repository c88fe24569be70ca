"""Which chemolab functions the traced run wraps, and the per-layer metrics.

The modules import names directly (``cli`` does ``from .solver import run as
run_solver``; ``solver`` imports ``compute_row``), so each wrapper replaces the
name where its caller looks it up, not where it is defined.  Span names are
``<layer>.<function>``, with the layers named after the chemolab modules.

BENCHMARK.json lists the per-layer metrics with their units; README.md says
what each one measures and which end-to-end metric, on which workload, it
should move.
"""

from __future__ import annotations

import statistics

from spans import SpanTable, self_times, top_level

MESH_METHODS = (
    "laplacian",
    "chemotactic_divergence",
    "advective_outflow_max",
    "diffusion_outflow_max",
    "integrate",
    "cell_centers",
)

BUILD = (
    "runconfig.build_params",
    "runconfig.build_mesh",
    "runconfig.build_scheme",
    "runconfig.build_initial",
    "runconfig.resolve_monitors",
    "runconfig.point_config",
)
LOAD = ("runconfig.load_run_config", "runconfig.load_sweep_spec")
CHECKS = ("cli.evaluate_checks", "diagnostics.gronwall_check")


def install(tracer) -> None:
    """Replace every traced name with a span-recording wrapper."""
    import chemolab.cli as cli
    import chemolab.meshes as meshes
    import chemolab.runconfig as runconfig
    import chemolab.solver as solver

    targets = [
        ("cli.main", cli, "main"),
        ("cli.sweep_point", cli, "_sweep_point"),
        ("cli.timeseries_csv", cli, "timeseries_csv"),
        ("cli.evaluate_checks", cli, "evaluate_checks"),
        ("diagnostics.gronwall_check", cli, "gronwall_check"),
        ("solver.run", cli, "run_solver"),
        ("solver.step", solver, "step"),
        ("solver.stable_dt", solver, "stable_dt"),
        ("diagnostics.compute_row", solver, "compute_row"),
        ("exponents.bootstrap", runconfig, "bootstrap"),
    ]
    targets += [(name, cli, name.split(".")[1]) for name in LOAD + BUILD]
    for cls in (meshes.CartesianMesh2D, meshes.RadialShellMesh):
        targets += [(f"meshes.{m}", cls, m) for m in MESH_METHODS]
    for name, owner, attr in targets:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))


class _Spans:
    """Per-name sums over the span tables of one invocation (all its processes)."""

    def __init__(self, tables: list[SpanTable]):
        self.tables = tables
        self.selfs = [self_times(t) for t in tables]

    def _each(self, name):
        for t, s in zip(self.tables, self.selfs):
            mask = t.name == name
            yield t, s, mask

    def calls(self, name) -> int:
        return int(sum(mask.sum() for _, _, mask in self._each(name)))

    def total(self, name) -> float:
        return float(sum(t.duration[mask].sum() for t, _, mask in self._each(name)))

    def self_total(self, name) -> float:
        return float(sum(s[mask].sum() for _, s, mask in self._each(name)))

    def busy(self, names) -> float:
        return float(sum(t.duration[top_level(t, names)].sum() for t in self.tables))

    def per_call(self, name, scale) -> float:
        calls = self.calls(name)
        return self.total(name) / calls * scale if calls else 0.0


def invocation_metrics(
    tables: list[SpanTable], main_pid: int, wall_s: float, cells: int, csv_bytes: int, parallelism: int
) -> dict[str, float]:
    """Per-layer metrics of one traced invocation; 0 where the workload skips a layer.

    ``trace.overhead_frac`` needs untraced invocations too, so the caller adds it.
    """
    sp = _Spans(tables)
    steps = sp.calls("solver.step")
    stepping = sp.total("solver.run") - sp.total("diagnostics.compute_row")
    main = [t for t in tables if t.pid == main_pid]
    roots = sum(float(t.duration[t.parent < 0].sum()) for t in main)
    import_s = sum(float(t.duration[t.name == "setup.import"].sum()) for t in main)

    points = [t.duration[t.name == "cli.sweep_point"] for t in tables]
    point_durations = [float(d) for arr in points for d in arr]
    if point_durations:
        starts = [float(x) for t in tables for x in t.start[t.name == "cli.sweep_point"]]
        ends = [float(x) for t in tables for x in t.end[t.name == "cli.sweep_point"]]
        window = max(ends) - min(starts)
        point_s = statistics.fmean(point_durations)
        busy_frac = sum(point_durations) / (parallelism * window)
    else:
        point_s = busy_frac = 0.0

    def ns_per_cell(name):
        return sp.per_call(name, 1e9) / cells

    return {
        "meshes.laplacian.calls": sp.calls("meshes.laplacian"),
        "meshes.laplacian.ns_per_cell": ns_per_cell("meshes.laplacian"),
        "meshes.chemotactic_divergence.calls": sp.calls("meshes.chemotactic_divergence"),
        "meshes.chemotactic_divergence.ns_per_cell": ns_per_cell("meshes.chemotactic_divergence"),
        "meshes.advective_outflow_max.ns_per_cell": ns_per_cell("meshes.advective_outflow_max"),
        "meshes.busy_s": sp.busy([f"meshes.{m}" for m in MESH_METHODS]),
        "solver.steps": steps,
        "solver.step.self_us": sp.self_total("solver.step") / steps * 1e6 if steps else 0.0,
        "solver.stable_dt.self_us": (
            sp.self_total("solver.stable_dt") / sp.calls("solver.stable_dt") * 1e6
            if sp.calls("solver.stable_dt") else 0.0
        ),
        "solver.run.self_s": sp.self_total("solver.run"),
        "solver.stepping_s": stepping,
        "solver.ns_per_cell_step": stepping / (steps * cells) * 1e9 if steps else 0.0,
        "diagnostics.compute_row.calls": sp.calls("diagnostics.compute_row"),
        "diagnostics.compute_row.us_per_call": sp.per_call("diagnostics.compute_row", 1e6),
        "diagnostics.checks_s": sp.busy(CHECKS),
        "cli.timeseries_csv_s": sp.total("cli.timeseries_csv"),
        "cli.csv_bytes": csv_bytes,
        "cli.sweep.point_s": point_s,
        "cli.sweep.worker_busy_frac": busy_frac,
        "runconfig.load_s": sum(sp.total(n) for n in LOAD),
        "runconfig.build_s": sp.busy(BUILD),
        "exponents.bootstrap.calls": sp.calls("exponents.bootstrap"),
        "exponents.bootstrap.us_per_call": sp.per_call("exponents.bootstrap", 1e6),
        "setup.import_s": import_s,
        "trace.uncovered_s": wall_s - roots,
    }
