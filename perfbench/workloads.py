"""The benchmark's workloads and the seeded inputs they hand to chemolab.

Every workload is one ``chemolab`` CLI invocation on a config (or sweep) file
that this module writes; the program never sees anything else.  All use
chi = 0.5, k = 1, a Gaussian of amplitude 1.5, v0 = 1 and the default
dt_safety 0.4 at the default seed.  Any other seed jitters the amplitude
(+-10 %) and chi inside the sub-threshold band (0.45..0.55), and shifts the
sweep's chi grid down by at most 0.02, which keeps every grid point on its
side of the 2D threshold chi_star = 1.

The shift is downward only because of a defect in chemolab, not in the
benchmark: the grid point chi = 0.5, k = 0.5 sits on the line chi = 1 - k
where p_max jumps from infinity to k / (chi (chi + k - 1)), so chi in
(0.5, 0.5017] gives a bootstrap exponent in the thousands and the sweep point
fails with ``error:OverflowError`` from the Gronwall envelope.
test_perfbench.py pins that defect with a strict xfail; once it is fixed the
shift can be made symmetric again.  Mesh sizes, k and t_end never change, and the
diffusive limit that sets dt depends only on those, so step counts -- and
therefore timings -- stay comparable across seeds.

Why each workload exists is in ``WHY`` (mirrored in BENCHMARK.json).

Each workload also names its calibration (``Calibration``): the fixed
reference computation of calibrate.py on the workload's cell count, run on
as many cores as the workload uses, and the seconds it takes at the
reference speed.  run.py divides every invocation's times by how much
slower than that the calibration ran around the invocation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

WHY = {
    "run2d": "64x64 cells: the mesh kernels dominate, diagnostics under 1 %; "
    "kernel, fusion and scheme changes show here",
    "radial3": "128 radial shells: the same loop bound by numpy per-call overhead; "
    "solver/meshes call-overhead cuts show here, bandwidth-only kernel changes should not",
    "monitor_dense": "32x32 cells with 4 q-norms, 4 (p,r) pairs and a row every ~3 steps: "
    "the diagnostics and CSV path, which run2d barely touches",
    "sweep": "15-point (chi, k) grid at parallelism 2: the only workload with the worker pool "
    "and per-point set-up, with unequal step counts across points",
}


# The set-up counterpart of Calibration.reference_s: calibrate.py's time from
# process start to the end of its imports at the reference speed, the same
# for every calibration.
SETUP_REFERENCE_S = 0.1


@dataclass(frozen=True)
class Calibration:
    """``procs`` concurrent ``calibrate.py nx ny steps`` processes.

    ``reference_s`` is their mean wall time at the reference speed, a fixed
    unit close to what they took on a 2-vCPU Intel Xeon VM (Python 3.11,
    numpy 2.4).  A run never re-measures it; only a run's ratio of measured
    time to ``reference_s`` enters the results.
    """

    nx: int
    ny: int
    steps: int
    procs: int
    reference_s: float

    def argv(self) -> list[str]:
        return [str(self.nx), str(self.ny), str(self.steps)]


# Each spec: the CLI command, the [model] geometry keys, the run shape and
# the calibration.
SPECS = {
    "run2d": dict(
        command="run", n=2, mesh=dict(geometry="cartesian2d", Lx=2, Ly=2, nx=64, ny=64),
        t_end=0.5, output_interval=0.1, q_list=(1, 2), pr_pairs=None,
        calibration=Calibration(64, 64, 2500, 1, 1.0),
    ),
    "radial3": dict(
        command="run", n=3, mesh=dict(geometry="radial", R=2, m=128),
        t_end=0.6, output_interval=0.1, q_list=(1, 2), pr_pairs=None,
        calibration=Calibration(128, 1, 12000, 1, 0.9),
    ),
    "monitor_dense": dict(
        command="run", n=2, mesh=dict(geometry="cartesian2d", Lx=2, Ly=2, nx=32, ny=32),
        t_end=1.5, output_interval=1e-3, q_list=(1, 2, 3, 4),
        pr_pairs=((1.5, 0.25), (2, 0.5), (2.5, 0.75), (3, 1)),
        calibration=Calibration(32, 32, 4000, 1, 0.9),
    ),
    "sweep": dict(
        command="sweep", n=2, mesh=dict(geometry="cartesian2d", Lx=2, Ly=2, nx=16, ny=16),
        t_end=1.25, output_interval=0.1, q_list=(1,), pr_pairs=None,
        chi_values=(0.5, 0.8, 0.95, 1.1, 1.5), k_values=(0.5, 1, 2), parallelism=2,
        calibration=Calibration(16, 16, 5000, 2, 1.0),
    ),
}


@dataclass(frozen=True)
class Scenario:
    """One workload at one seed: the input file and what its output must look like."""

    workload: str
    seed: int
    command: str
    input_name: str
    input_text: str
    cells: int
    t_end: float
    output_interval: float
    q_list: tuple[float, ...]
    chi_values: tuple[float, ...] = ()
    k_values: tuple[float, ...] = ()
    parallelism: int = 1
    calibration: Calibration | None = None

    @property
    def expected_rows(self) -> int:
        """The t = 0 row, one per output time, and the final row if t_end falls between."""
        return math.ceil(self.t_end / self.output_interval - 1e-9) + 1

    @property
    def grid(self) -> list[tuple[float, float]]:
        """Sweep points in the chi-major order the summary must keep."""
        return [(chi, k) for chi in self.chi_values for k in self.k_values]


def _num(x) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


def _render(sections: dict[str, dict]) -> str:
    lines = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in entries.items()]
        lines.append("")
    return "\n".join(lines)


def scenario(workload: str, seed: int = DEFAULT_SEED, spec: dict | None = None) -> Scenario:
    """Build the inputs of ``workload`` for ``seed``; ``spec`` overrides ``SPECS``."""
    spec = spec if spec is not None else SPECS[workload]
    rng = random.Random(f"{workload}:{seed}")
    jitter = seed != DEFAULT_SEED
    amplitude = round(1.5 * rng.uniform(0.9, 1.1), 4) if jitter else 1.5
    chi = round(rng.uniform(0.45, 0.55), 4) if jitter else 0.5
    offset = round(rng.uniform(-0.02, 0.0), 4) if jitter else 0.0

    mesh = spec["mesh"]
    monitors = {"q_list": ", ".join(_num(q) for q in spec["q_list"])}
    if spec["pr_pairs"] is None:
        monitors["pr_source"] = "bootstrap"
    else:
        monitors["pr_source"] = "explicit"
        monitors["pr_pairs"] = ", ".join(f"{_num(p)}:{_num(r)}" for p, r in spec["pr_pairs"])
    sections = {
        "model": {"chi": _num(chi), "k": "1", "n": spec["n"], **mesh},
        "initial": {"kind": "gaussian", "amplitude": _num(amplitude), "v0_base": "1"},
        "scheme": {
            "dt_safety": "0.4",
            "t_end": _num(spec["t_end"]),
            "output_interval": _num(spec["output_interval"]),
        },
        "monitors": monitors,
    }
    chi_values: tuple[float, ...] = ()
    k_values: tuple[float, ...] = ()
    if spec["command"] == "sweep":
        chi_values = tuple(round(c + offset, 4) for c in spec["chi_values"])
        k_values = tuple(float(k) for k in spec["k_values"])
        sections["sweep"] = {
            "chi_values": ", ".join(_num(c) for c in chi_values),
            "k_values": ", ".join(_num(k) for k in k_values),
            "parallelism": spec["parallelism"],
        }
    if mesh["geometry"] == "radial":
        cells = mesh["m"]
    else:
        cells = mesh["nx"] * mesh["ny"]
    return Scenario(
        workload=workload,
        seed=seed,
        command=spec["command"],
        input_name="sweep.cfg" if spec["command"] == "sweep" else "run.cfg",
        input_text=_render(sections),
        cells=cells,
        t_end=float(spec["t_end"]),
        output_interval=float(spec["output_interval"]),
        q_list=tuple(float(q) for q in spec["q_list"]),
        chi_values=chi_values,
        k_values=k_values,
        parallelism=spec.get("parallelism", 1),
        calibration=spec.get("calibration"),
    )
