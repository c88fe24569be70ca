"""Compare chemolab's outputs at a base revision with the working tree's, byte for byte.

    python tools/same_outputs.py --base HEAD~

The base revision is exported (``git archive``) into a temporary directory.
On both trees the script then runs, with ``PYTHONPATH`` set to the tree's
``src``:

* the inputs of the four perfbench workloads at seeds 0 and 11, written by
  ``perfbench/workloads.scenario`` of the working tree, through
  ``python -m chemolab.cli``;
* the ``sweep`` workload's inputs again with ``CHEMOLAB_THREADS`` at each of
  ``SWEEP_THREADS``: one process steps every point, or three do (the
  process is told it has three CPUs, so that it does on any host);
* the three ``run`` workloads' inputs again in a process told it has one
  CPU, which computes its rows itself; on Linux with two CPUs or more the
  first ``monitor_dense`` run, whose row work (1,500 rows x 1,024 cells x
  8 orders) reaches ``cli.ROW_PROCESS_MIN_WORK``, computes them in a forked
  row process, so both row paths are compared with the base (``run2d`` and
  ``radial3`` have too little row work to fork);
* the five demos under ``demos/``;
* ``run`` or ``sweep`` on each document of ``VARIANTS``: chi = 0,
  dt_safety 0.8, a radial mesh with a repeated norm order and (p, r) pair,
  chi = 100 (its advective screen fails after the first steps, so dt comes
  from the exact advective limit) and a sweep of chi = 0.4 and 100, which
  share their first dt and advance as one batch until it splits on dt: loop
  paths that the workload inputs do not take; and meshes whose rows do not
  keep the step buffers' 64-byte alignment, or that the row-process gate
  decides on by more than rows: a 9x7 rectangle (63 cells, not a multiple
  of 8), 37 shells, a sweep of 3 points on 9x7 stepped as one batch, and
  128 shells with 2,048 rows (forked at the base on two CPUs or more);
* ``run`` and ``sweep`` on each malformed document of ``MALFORMED``, so
  that error text and exit codes are compared too;
* ``exponents`` for each argument set of ``EXPONENTS``: n = 2, 3, 6 and 8,
  theta = 0.2, a chi above the threshold and a ``--csv`` run.

It compares every ``timeseries.csv``, ``report.txt``, ``sweep_summary.csv``
and ``--csv`` chain file, and the stdout, the stderr and the exit code of
every invocation.  Each difference goes to stderr; one verdict line goes to
stdout.  The exit code is 0 when everything is identical and 1 otherwise.

The base is exported rather than checked out as a ``git worktree``, so an
interrupted comparison leaves nothing registered in the repository.  Only
the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("run2d", "radial3", "monitor_dense", "sweep")
SEEDS = (0, 11)
SWEEP_THREADS = (1, 3)
# ``python -c`` text: the chemolab CLI in a process that reports {} CPUs, so
# that the sweep's process count, and whether a run forks its row process,
# do not depend on the host's
AS_IF_CPUS = "import os, sys; os.cpu_count = lambda: {}; from chemolab.cli import main; sys.exit(main())"
OUTPUTS = ("out/timeseries.csv", "out/report.txt", "out/sweep_summary.csv", "chain.csv")

RUN_DOC = """\
[model]
chi = 0.5
k = 1
n = 2
geometry = cartesian2d
Lx = 2
Ly = 2
nx = 16
ny = 16

[initial]
kind = gaussian
amplitude = 1.5

[scheme]
t_end = 0.2
output_interval = 0.1

[monitors]
q_list = 1, 2
pr_source = bootstrap
"""
RECTANGLE = "cartesian2d\nLx = 2\nLy = 2\nnx = 16\nny = 16"
SWEEP_DOC = RUN_DOC + "\n[sweep]\nchi_values = 0.4, 0.8\nk_values = 0.5, 1\nparallelism = 1\n"

# (what it reaches, command, document): loop paths that no workload input takes.
VARIANTS = (
    ("chi = 0, no taxis and no pairs", "run", RUN_DOC.replace("chi = 0.5", "chi = 0")),
    ("dt_safety = 0.8, the positivity cap", "run", RUN_DOC.replace("[scheme]", "[scheme]\ndt_safety = 0.8")),
    (
        "a radial mesh with a repeated order and pair",
        "run",
        RUN_DOC.replace("k = 1\nn = 2", "k = 1.3\nn = 3")
        .replace(RECTANGLE, "radial\nR = 2\nm = 32")
        .replace("q_list = 1, 2", "q_list = 1, 2, 2")
        .replace("pr_source = bootstrap", "pr_source = explicit\npr_pairs = 2:0.5, 2:0.5"),
    ),
    (
        "chi = 100, dt from the exact advective limit",
        "run",
        RUN_DOC.replace("chi = 0.5", "chi = 100")
        .replace("pr_source = bootstrap", "pr_source = explicit\npr_pairs ="),
    ),
    (
        "a batch that splits on dt",
        "sweep",
        SWEEP_DOC.replace("chi_values = 0.4, 0.8", "chi_values = 0.4, 100")
        .replace("k_values = 0.5, 1", "k_values = 1"),
    ),
    ("a 9x7 rectangle", "run", RUN_DOC.replace("nx = 16\nny = 16", "nx = 9\nny = 7")),
    ("37 shells", "run", RUN_DOC.replace("n = 2", "n = 3").replace(RECTANGLE, "radial\nR = 2\nm = 37")),
    (
        "a batch of 3 points on 9x7",
        "sweep",
        SWEEP_DOC.replace("nx = 16\nny = 16", "nx = 9\nny = 7")
        .replace("chi_values = 0.4, 0.8", "chi_values = 0.3, 0.6, 0.9")
        .replace("k_values = 0.5, 1", "k_values = 1"),
    ),
    (
        "128 shells and 2,048 rows",
        "run",
        RUN_DOC.replace("n = 2", "n = 3")
        .replace(RECTANGLE, "radial\nR = 2\nm = 128")
        .replace("t_end = 0.2\noutput_interval = 0.1", f"t_end = 0.6\noutput_interval = {0.6 / 2048!r}"),
    ),
)

# (what is wrong, command, document): each document has one fault.
MALFORMED = (
    ("a bad number", "run", RUN_DOC.replace("chi = 0.5", "chi = fast")),
    ("a non-finite list entry", "run", RUN_DOC.replace("q_list = 1, 2", "q_list = 1, inf")),
    ("an out-of-range value", "run", RUN_DOC.replace("nx = 16", "nx = 3")),
    ("a missing key", "run", RUN_DOC.replace("t_end = 0.2\n", "")),
    ("a missing section", "run", RUN_DOC.replace("[scheme]", "[schema]")),
    ("an unknown key", "run", RUN_DOC.replace("ny = 16", "ny = 16\nnz = 4")),
    ("an unknown section", "run", RUN_DOC + "\n[plotting]\nstyle = fancy\n"),
    ("a duplicate key", "run", RUN_DOC.replace("k = 1", "k = 1\nk = 2")),
    ("a bad choice", "run", RUN_DOC.replace("kind = gaussian", "kind = square")),
    ("a bad p:r pair", "run", RUN_DOC.replace("bootstrap", "explicit\npr_pairs = 2.5/0.75")),
    ("explicit pairs missing", "run", RUN_DOC.replace("bootstrap", "explicit")),
    ("both axis forms", "sweep", SWEEP_DOC.replace("k_values = 0.5, 1", "k_range = 0.5:1:0.5\nk_values = 1")),
    ("an oversize range", "sweep", SWEEP_DOC.replace("chi_values = 0.4, 0.8", "chi_range = 0:1:1e-6")),
    ("a bad sweep integer", "sweep", SWEEP_DOC.replace("parallelism = 1", "parallelism = 0")),
)

# Arguments of ``chemolab exponents``: the bootstrap chain in each dimension
# class, a smaller theta, one chi above chi_star(1, 3) (exit code 2) and one
# run that also writes its chain as CSV.
EXPONENTS = (
    ["--chi", "0.5", "--k", "1", "--n", "2"],
    ["--chi", "0.7", "--k", "1", "--n", "3"],
    ["--chi", "0.3", "--k", "2", "--n", "6"],
    ["--chi", "0.2", "--k", "0.5", "--n", "8"],
    ["--chi", "0.3", "--k", "2", "--n", "6", "--theta", "0.2"],
    ["--chi", "2", "--k", "1", "--n", "3"],
    ["--chi", "0.4", "--k", "1.5", "--n", "4", "--csv", "chain.csv"],
)


def export(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` under ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def invocations() -> list[tuple[str, list[str], dict[str, str], dict[str, str]]]:
    """(name, arguments after the interpreter, input files, environment
    variables) of every run; a demo's script path is relative to the tree
    that runs it."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import scenario

    runs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            case = scenario(workload, seed)
            argv = ["-m", "chemolab.cli", case.command, case.input_name, "--outdir", "out"]
            runs.append((f"{workload} seed {seed}", argv, {case.input_name: case.input_text}, {}))
            if workload != "sweep":
                argv_cpus = ["-c", AS_IF_CPUS.format(1), *argv[2:]]
                name = f"{workload} seed {seed} at 1 CPU"
                runs.append((name, argv_cpus, {case.input_name: case.input_text}, {}))
                continue
            for threads in SWEEP_THREADS:
                argv_cpus = ["-c", AS_IF_CPUS.format(threads), *argv[2:]]
                variables = {"CHEMOLAB_THREADS": str(threads)}
                name = f"{workload} seed {seed} at {threads} process(es)"
                runs.append((name, argv_cpus, {case.input_name: case.input_text}, variables))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runs.append((f"demos/{demo.name}", [f"demos/{demo.name}"], {}, {}))
    for what, command, text in VARIANTS:
        argv = ["-m", "chemolab.cli", command, "case.cfg", "--outdir", "out"]
        runs.append((f"{command} with {what}", argv, {"case.cfg": text}, {}))
    for what, command, text in MALFORMED:
        argv = ["-m", "chemolab.cli", command, "case.cfg", "--outdir", "out"]
        runs.append((f"{command} with {what}", argv, {"case.cfg": text}, {}))
    for args in EXPONENTS:
        runs.append((f"exponents {' '.join(args)}", ["-m", "chemolab.cli", "exponents", *args], {}, {}))
    return runs


def outputs(
    tree: Path, argv: list[str], files: dict[str, str], variables: dict[str, str], workdir: Path
) -> dict[str, bytes | None]:
    """Run one invocation on ``tree`` in the empty directory ``workdir``, with
    ``variables`` added to the environment: its exit code, its stdout, its
    stderr and each output file (None where it wrote none)."""
    workdir.mkdir(parents=True)
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    if argv[0].startswith("demos/"):
        argv = [str(tree / argv[0])]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1", **variables)
    done = subprocess.run([sys.executable, *argv], cwd=workdir, env=env, capture_output=True)
    found = {"exit code": str(done.returncode).encode(), "stdout": done.stdout, "stderr": done.stderr}
    for name in OUTPUTS:
        path = workdir / name
        found[name] = path.read_bytes() if path.exists() else None
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="the revision to compare with (default HEAD)")
    args = parser.parse_args(argv)
    runs = invocations()
    differences = []
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        base = Path(tmp) / "base"
        export(args.base, base)
        for i, (name, run_argv, files, variables) in enumerate(runs):
            before = outputs(base, run_argv, files, variables, Path(tmp) / f"base-{i}")
            after = outputs(ROOT, run_argv, files, variables, Path(tmp) / f"tree-{i}")
            for what in before:
                if before[what] != after[what]:
                    differences.append(f"{name}: {what} differs")
                    print(differences[-1], file=sys.stderr)
    scope = (
        f"{len(runs)} invocations (the 4 workloads at seeds 0 and 11, the 3 run workloads' at 1 CPU,"
        f" the sweep's at {' and '.join(map(str, SWEEP_THREADS))} processes, the demos,"
        f" {len(VARIANTS)} run and sweep variants, {len(MALFORMED)} malformed documents"
        f" and {len(EXPONENTS)} exponents runs)"
    )
    if differences:
        print(f"DIFFERENT: {len(differences)} output(s) of {scope} differ from {args.base}")
        return 1
    print(f"SAME: every output of {scope} is byte-identical to {args.base}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
