"""Output checks: a run or sweep point counts as failed unless all of these hold.

Every run: exit code 0; ``report.txt`` says ``completed`` with every check
passing; ``timeseries.csv`` has the expected row count and columns, finite
values, t from 0 to t_end, and relative mass drift below ``MASS_DRIFT_MAX``
(rounding level: about 1e-15 is typical); and its bytes equal those of the
first repetition in the same benchmark run.

Every sweep: exit code 0, ``sweep_summary.csv`` with one row per grid point
in chi-major order, no ``error:`` rows, chi_star = 1 (the 2D threshold),
``below_threshold`` matching chi < 1, ``status`` equal to the reference,
finite Gronwall ratios within the monitor tolerance below the threshold and
``nan`` above it, and bytes equal to the first repetition.  A failure that
cannot be pinned to a row fails every point of the invocation.

At the default seed the final-row ``max_u``, ``u_Lq_*`` and ``E_*`` values,
and the sweep's ``max_u_over_run`` and ``worst_gronwall_ratio``, must also
match ``reference.json`` (recorded by record_reference.py) within
``REFERENCE_RTOL``.  That tolerance admits a change in the order of
floating-point operations and rejects any change of scheme or resolution.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DEFAULT_SEED, Scenario

MASS_DRIFT_MAX = 1e-12
REFERENCE_RTOL = 1e-9
GRONWALL_TOL = 0.05  # the monitors' default tolerance_rel, which the workloads keep
SWEEP_HEADER = "chi,k,chi_star,below_threshold,status,max_u_over_run,worst_gronwall_ratio"
REPORT_CHECKS = ("gronwall", "dissipation", "min_v_floor")


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def read_report(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(":")
        out[key.strip()] = value.strip()
    return out


def read_timeseries(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [[float(x) for x in line.split(",")] for line in lines[1:]]


def final_values(header: list[str], rows: list[list[float]]) -> dict[str, float]:
    """The reference-compared columns of the last row."""
    keep = [i for i, c in enumerate(header) if c == "max_u" or c.startswith(("u_Lq_", "E_"))]
    return {header[i]: rows[-1][i] for i in keep}


def _kind(column: str) -> str:
    """Column name without the (seed-dependent) bootstrap exponents."""
    return column.split("_")[0] if column.startswith(("E_", "D_", "v_L")) else column


class OutputChecker:
    """Checks each invocation of one scenario; keeps the first output's bytes."""

    def __init__(self, sc: Scenario, reference: dict | None):
        """``reference`` is the workload's entry in reference.json, if any.

        Its values are compared only at the default seed; at other seeds it
        supplies the column layout and the sweep statuses.
        """
        self.sc = sc
        self.reference = reference
        self.exact = reference is not None and sc.seed == DEFAULT_SEED
        self.first_digest: str | None = None
        self.first_rows: list[str] | None = None

    def check(self, outdir: Path, exit_code: int) -> Verdict:
        if self.sc.command == "sweep":
            return self._check_sweep(outdir, exit_code)
        problems = [f"exit code {exit_code}"] if exit_code != 0 else []
        try:
            problems += self._run_problems(outdir)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return Verdict(1, 1 if problems else 0, problems)

    def _same_as_first(self, data: bytes) -> bool:
        digest = hashlib.sha256(data).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        return digest == self.first_digest

    def _run_problems(self, outdir: Path) -> list[str]:
        sc = self.sc
        problems = []
        report = read_report(outdir / "report.txt")
        if report.get("status") != "completed":
            problems.append(f"status {report.get('status')!r}")
        for name in REPORT_CHECKS:
            if report.get(name) != "pass":
                problems.append(f"check {name}: {report.get(name)!r}")

        data = (outdir / "timeseries.csv").read_bytes()
        header, rows = read_timeseries(outdir / "timeseries.csv")
        q_cols = [f"u_Lq_{q:.12g}" for q in sc.q_list]
        if header[: 4 + len(q_cols)] != ["t", "mass", "min_v", "max_u"] + q_cols:
            problems.append(f"columns {header}")
        if len(rows) != sc.expected_rows:
            problems.append(f"{len(rows)} rows, expected {sc.expected_rows}")
        if any(len(r) != len(header) for r in rows):
            problems.append("ragged rows")
        if not all(math.isfinite(x) for r in rows for x in r):
            problems.append("non-finite values")
        times = [r[0] for r in rows]
        if times[0] != 0.0 or not close(times[-1], sc.t_end, 1e-12):
            problems.append(f"t runs from {times[0]} to {times[-1]}, expected 0 to {sc.t_end}")
        if any(b <= a for a, b in zip(times, times[1:])):
            problems.append("t not increasing")
        mass0 = rows[0][1]
        drift = max(abs(r[1] - mass0) for r in rows) / mass0
        if not drift <= MASS_DRIFT_MAX:
            problems.append(f"relative mass drift {drift:.3g} > {MASS_DRIFT_MAX:g}")

        ref = self.reference
        if ref is not None and [_kind(c) for c in header] != [_kind(c) for c in ref["header"]]:
            problems.append(f"columns {header}, reference {ref['header']}")
        elif self.exact:
            if header != ref["header"]:
                problems.append(f"columns {header}, reference {ref['header']}")
            else:
                got = final_values(header, rows)
                for col, want in ref["final"].items():
                    if not close(got[col], want, REFERENCE_RTOL):
                        problems.append(f"final {col} = {got[col]!r}, reference {want!r}")
        if not self._same_as_first(data):
            problems.append("timeseries.csv differs from the first repetition")
        return problems

    def _check_sweep(self, outdir: Path, exit_code: int) -> Verdict:
        sc = self.sc
        grid = sc.grid
        total = len(grid)
        if exit_code != 0:
            return Verdict(total, total, [f"exit code {exit_code}"])
        try:
            data = (outdir / "sweep_summary.csv").read_bytes()
        except OSError as exc:
            return Verdict(total, total, [f"no sweep_summary.csv: {exc}"])
        lines = data.decode("utf-8").splitlines()
        if not lines or lines[0] != SWEEP_HEADER or len(lines) != total + 1:
            return Verdict(total, total, [f"summary has {len(lines)} lines or a wrong header"])
        rows = lines[1:]
        if self.first_rows is None:
            self.first_rows = rows
        if not self._same_as_first(data) and rows == self.first_rows:
            return Verdict(total, total, ["sweep_summary.csv differs from the first repetition"])
        if self.reference is not None:
            ref_rows = self.reference["rows"]
        else:
            ref_rows = ["" for _ in grid]
        bad = {}
        for i, (line, (chi, k)) in enumerate(zip(rows, grid)):
            want_status = ref_rows[i].split(",")[4] if ref_rows[i] else "completed"
            problems = self._point_problems(line, chi, k, want_status)
            if self.exact and not problems:
                problems += self._point_vs_reference(line, ref_rows[i])
            if line != self.first_rows[i]:
                problems.append("differs from the first repetition")
            if problems:
                bad[i] = f"point {i} (chi={chi}, k={k}): " + "; ".join(problems)
        return Verdict(total, len(bad), list(bad.values()))

    def _point_problems(self, line: str, chi: float, k: float, want_status: str) -> list[str]:
        cells = line.split(",")
        if len(cells) != 7:
            return [f"{len(cells)} fields"]
        problems = []
        try:
            got_chi, got_k, threshold, max_u, worst = (float(cells[i]) for i in (0, 1, 2, 5, 6))
        except ValueError:
            return ["non-numeric field"]
        below, status = cells[3], cells[4]
        if (got_chi, got_k) != (chi, k):
            problems.append(f"row is ({got_chi}, {got_k}), not in chi-major order")
        if not close(threshold, 1.0, 1e-12):
            problems.append(f"chi_star {threshold}")
        if below != ("true" if chi < 1.0 else "false"):
            problems.append(f"below_threshold {below}")
        if status.startswith("error:") or status != want_status:
            problems.append(f"status {status}, expected {want_status}")
        if not (math.isfinite(max_u) and max_u > 0.0):
            problems.append(f"max_u_over_run {max_u}")
        if chi < 1.0 and not (math.isfinite(worst) and worst <= 1.0 + GRONWALL_TOL):
            problems.append(f"worst_gronwall_ratio {worst}")
        if chi >= 1.0 and not math.isnan(worst):
            problems.append(f"worst_gronwall_ratio {worst} above the threshold")
        return problems

    @staticmethod
    def _point_vs_reference(line: str, ref_line: str) -> list[str]:
        got, want = line.split(","), ref_line.split(",")
        problems = []
        for i, name in ((5, "max_u_over_run"), (6, "worst_gronwall_ratio")):
            a, b = float(got[i]), float(want[i])
            if not (close(a, b, REFERENCE_RTOL) or (math.isnan(a) and math.isnan(b))):
                problems.append(f"{name} {got[i]}, reference {want[i]}")
        return problems
