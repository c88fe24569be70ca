"""One chemolab CLI invocation for the benchmark: ``launch.py <chemolab args>``.

Behaves as ``python -m chemolab.cli <args>`` (chemolab must be importable,
for example with PYTHONPATH=src), plus one instrument chosen by environment:

PERFBENCH_MARK=<file>   untraced runs.  The first time a process enters
                        ``chemolab.cli.run_solver`` it appends time.monotonic()
                        to <file>; that entry ends set-up.  One wrapped call
                        per run or sweep point is all it adds.
PERFBENCH_TRACE=<dir>   traced runs.  Wraps the functions listed in layers.py,
                        records a span per call and writes the spans to
                        <dir>/spans-<pid>.jsonl, tagged with PERFBENCH_RUN_ID.

Both are installed at import, outside the ``__main__`` guard, so a pool
worker started by the spawn method, which re-imports this file, has them too;
forked workers inherit them.
"""

import functools
import os
import sys
import time


def _mark_first_solver_entry(path: str) -> None:
    import chemolab.cli as cli

    original = cli.run_solver
    marked_in = []

    @functools.wraps(original)
    def run_solver(*args, **kwargs):
        if os.getpid() not in marked_in:
            marked_in.append(os.getpid())
            fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                os.write(fd, f"{time.monotonic()!r}\n".encode())
            finally:
                os.close(fd)
        return original(*args, **kwargs)

    cli.run_solver = run_solver


if os.environ.get("PERFBENCH_TRACE"):
    import layers
    from spans import Tracer

    _tracer = Tracer(os.environ["PERFBENCH_TRACE"], os.environ.get("PERFBENCH_RUN_ID", ""))
    with _tracer.span("setup.import"):
        import chemolab.cli
    layers.install(_tracer)
else:
    import chemolab.cli

if os.environ.get("PERFBENCH_MARK"):
    _mark_first_solver_entry(os.environ["PERFBENCH_MARK"])


if __name__ == "__main__":
    sys.exit(chemolab.cli.main(sys.argv[1:]))
