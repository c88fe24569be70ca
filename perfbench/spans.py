"""Span recording inside a chemolab process, and span arithmetic in the harness.

``Tracer`` keeps spans (name, start, end, parent) in flat arrays in memory.
Whenever the outermost span of a process closes, the spans recorded since the
last write are appended as one record to ``spans-<pid>.bin``: in the main
process that is once after ``import chemolab`` and once when ``cli.main``
returns; in a sweep's pool workers it is once per grid point, because pool
workers are terminated rather than shut down.  A record is a 4-byte length,
a JSON header (run id, pid, span names, index of the first span, count) and
the four arrays as raw machine-order bytes; a text format cost about a second
per 300,000 spans, which would have landed in the traced wall time.  Every
record carries the run id of the invocation, so spans of one invocation share
an identifier across its processes.  Times are ``time.monotonic`` seconds,
which on Linux is one clock for all processes, so worker spans and the
harness's own timestamps compare.

The analysis half (``table``, ``load``, ``self_times``, ``top_level``) needs
numpy and runs in the harness only.  It imports numpy lazily so that, in a
traced chemolab process, numpy's import stays inside the ``setup.import``
span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import struct
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

_TYPECODES = ("H", "d", "d", "i")  # name id, start, end, parent


class Tracer:
    def __init__(self, out_dir: str, run_id: str):
        self.out_dir = out_dir
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id, self.start, self.end, self.parent = (array(c) for c in _TYPECODES)
        self.stack: list[int] = []
        self.written = 0
        os.register_at_fork(after_in_child=self._forget_parent)

    def _forget_parent(self) -> None:
        """A forked worker starts with no spans and no open span of its own."""
        for arr in (self.name_id, self.start, self.end, self.parent):
            del arr[:]
        self.stack.clear()
        self.written = 0

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.monotonic())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.monotonic()
        self.stack.pop()
        if not self.stack:
            self.write()

    def wrap(self, name: str, fn):
        """``fn`` recording one span named ``name`` per call."""
        nid = self._intern(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def write(self) -> None:
        """Append the spans recorded since the last write as one record."""
        lo, hi = self.written, len(self.name_id)
        if hi == lo:
            return
        header = json.dumps({
            "run_id": self.run_id, "pid": os.getpid(), "names": self.names,
            "first": lo, "count": hi - lo,
        }).encode()
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.bin")
        with open(path, "ab") as fh:
            fh.write(struct.pack("<I", len(header)) + header)
            for arr in (self.name_id, self.start, self.end, self.parent):
                fh.write(arr[lo:hi].tobytes())
        self.written = hi


@dataclass
class SpanTable:
    """All spans of one process; ``parent`` indexes into the same table (-1: root)."""

    pid: int
    run_id: str
    name: "np.ndarray"
    start: "np.ndarray"
    end: "np.ndarray"
    parent: "np.ndarray"

    @property
    def duration(self):
        return self.end - self.start


def table(pid: int, run_id: str, names, start, end, parent) -> SpanTable:
    import numpy as np

    return SpanTable(
        pid, run_id, np.asarray(names, dtype=str), np.asarray(start, dtype=float),
        np.asarray(end, dtype=float), np.asarray(parent, dtype=np.int64),
    )


def load(out_dir: Path) -> list[SpanTable]:
    """Read every ``spans-<pid>.bin`` in ``out_dir``, one table per process."""
    import numpy as np

    tables = []
    for path in sorted(Path(out_dir).glob("spans-*.bin")):
        data = path.read_bytes()
        pos = total = 0
        names, columns = [], [[], [], []]
        while pos < len(data):
            (size,) = struct.unpack_from("<I", data, pos)
            head = json.loads(data[pos + 4 : pos + 4 + size])
            pos += 4 + size
            if head["first"] != total:
                raise ValueError(f"{path.name}: span records out of order")
            count = head["count"]
            total += count
            arrays = []
            for code in _TYPECODES:
                dtype = np.dtype(code)
                arrays.append(np.frombuffer(data, dtype=dtype, count=count, offset=pos))
                pos += count * dtype.itemsize
            names.append(np.asarray(head["names"])[arrays[0]])
            for column, arr in zip(columns, arrays[1:]):
                column.append(arr)
        start, end, parent = (np.concatenate(c) for c in columns)
        tables.append(table(head["pid"], head["run_id"], np.concatenate(names), start, end, parent))
    return tables


def self_times(t: SpanTable):
    """Span duration minus the time its direct children cover.

    Spans of one process nest strictly (one thread), so the children's
    intervals are disjoint and their durations add.
    """
    import numpy as np

    dur = t.duration
    has_parent = t.parent >= 0
    covered = np.bincount(t.parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def top_level(t: SpanTable, members):
    """Mask of spans in ``members`` with no ancestor in ``members``.

    Summing their durations gives the time the set is busy without counting
    nested members twice.
    """
    import numpy as np

    inset = np.isin(t.name, list(members))
    covered = np.zeros(len(inset), dtype=bool)
    anc = t.parent.copy()
    while (anc >= 0).any():
        live = anc >= 0
        covered[live] |= inset[anc[live]]
        anc[live] = t.parent[anc[live]]
    return inset & ~covered
