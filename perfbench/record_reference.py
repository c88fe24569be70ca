"""Write reference.json from one default-seed invocation of every workload.

    python3 perfbench/record_reference.py

The checker compares default-seed outputs against these values (see
checks.py), and takes the column layout and sweep statuses from them at every
seed.  Re-record only when a change to chemolab is meant to change results,
and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import workloads
from run import HERE, ROOT, chemolab


def record(workload: str) -> dict:
    sc = workloads.scenario(workload, workloads.DEFAULT_SEED)
    work = ROOT / ".perfbench_out" / "reference" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / sc.input_name).write_text(sc.input_text, encoding="utf-8")
    args = [sc.command, str(work / sc.input_name), "--outdir", str(work / "out")]
    _, code, *_ = chemolab(args, {}, work / "output.txt")
    if code != 0:
        raise SystemExit(f"{workload}: exit code {code}, see {work / 'output.txt'}")
    if sc.command == "sweep":
        lines = (work / "out" / "sweep_summary.csv").read_text(encoding="utf-8").splitlines()
        return {"rows": lines[1:]}
    header, rows = checks.read_timeseries(work / "out" / "timeseries.csv")
    return {"header": header, "final": checks.final_values(header, rows)}


def main() -> int:
    reference = {name: record(name) for name in workloads.SPECS}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    for name, entry in reference.items():
        print(name, json.dumps(entry.get("final", entry.get("rows"))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
