"""Run the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/steadiness.py [--workloads run2d,sweep] [--seeds 1-10] [--trace 0]

Prints each run's report, then for every workload and metric: the median of
the per-run values, their quartiles (statistics.quantiles, n=4), the sample
count, and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json.  A spread
under a third of the bound is steady; setup_s is reported but its spread has
no bound to meet.  Runs use BENCHMARK.json's run_seconds unless --seconds is
given.  Writes .perfbench_out/steadiness-trace<t>.json.

``--seeds 0`` is the one command that runs, checks and reports all four
workloads once.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT, quartiles


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    report = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        failed = attempted = 0
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True, cwd=ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            failed += result["failed"]
            attempted += result["attempted"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} over seeds {args.seeds[0]}..{args.seeds[-1]}:")
        rows = []
        for m in metrics:
            q1, med, q3 = quartiles(values[m["name"]])
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            rows.append({"name": m["name"], "median": med, "q1": q1, "q3": q3,
                         "n": len(values[m["name"]]), "spread": spread, "bound": bound,
                         "values": values[m["name"]]})
            verdict = "" if bound is None else (
                "steady" if spread < bound / 3 else "within bound" if spread <= bound else "TOO WIDE")
            bound_text = "-" if bound is None else f"{bound:.0%}"
            print(f"  {m['name']:<42} {m['unit']:>5} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  n={len(values[m['name']])}  spread {spread:.2%} / bound {bound_text} {verdict}",
                  flush=True)
        print(f"  {'failed_frac':<42} {'frac':>5} {failed / attempted:.6g}  "
              f"({failed} of {attempted} attempted)\n", flush=True)
        report[workload] = {"metrics": rows, "failed": failed, "attempted": attempted,
                            "seeds": args.seeds}
    out = ROOT / ".perfbench_out" / f"steadiness-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
