"""Spans recorded from outside the program, around its public boundaries.

``Tracer.install`` replaces each boundary in ``BOUNDARIES`` with a wrapper
that opens a span on entry and closes it on exit; ``uninstall`` puts the
originals back.  Spans live in memory as [name, start, end, parent, solve]
rows and are written out by ``write_csv``.  A boundary the program no
longer has is recorded as absent and simply not wrapped.
"""

from __future__ import annotations

import csv
import importlib
import time
from collections import Counter

# (span name, "module" or "module:Class", attribute).  Module functions are
# wrapped under the name the calling module imported them as, so the
# projection and QR spans cover the calls made from conic and accel.
BOUNDARIES = (
    ("conic.init", "fpaccel.conic:DrsOperator", "__init__"),
    ("conic.set_params", "fpaccel.conic:DrsOperator", "set_params"),
    ("conic.solve_kkt", "fpaccel.conic:DrsOperator", "solve_kkt"),
    ("conic.residuals", "fpaccel.conic:DrsOperator", "residuals"),
    ("conic.adapt", "fpaccel.conic:DrsOperator", "adapt_gamma"),
    ("conic.infeas", "fpaccel.conic:DrsOperator", "infeasibility_check"),
    ("cones.project", "fpaccel.conic", "project_cone"),
    ("operators.apply", "fpaccel.operators:FixedPointOperator", "apply"),
    ("linalg.qr_append", "fpaccel.accel", "qr_append_column"),
    ("linalg.qr_solve", "fpaccel.accel", "qr_solve_ls"),
    ("accel.push", "fpaccel.accel:AccelMemory", "push_pair"),
    ("accel.eta", "fpaccel.accel:AccelMemory", "compute_eta"),
    ("accel.candidate", "fpaccel.accel:AccelMemory", "candidate"),
    ("accel.restart", "fpaccel.accel:AccelMemory", "restart"),
    ("driver.run", "fpaccel.driver:Driver", "run"),
)

NAME, START, END, PARENT, SOLVE = range(5)


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls, None) if cls else owner


def _defined(owner, attr: str) -> bool:
    if owner is None:
        return False
    if isinstance(owner, type):
        return attr in vars(owner)
    return callable(getattr(owner, attr, None))


class Tracer:
    """Span store plus the counters recorded at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.solve_id = -1
        self.absent = [name for name, path, attr in BOUNDARIES if not _defined(_owner(path), attr)]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.solve_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- wrapping --------------------------------------------------------

    def _wrapper(self, name: str, orig):
        if name == "cones.project":
            def wrapped(block, *args, **kwargs):
                return self.span(f"cones.project.{block.kind}", orig, block, *args, **kwargs)
        elif name == "conic.set_params":
            def wrapped(op, *args, **kwargs):
                epoch = op.epoch
                try:
                    return self.span(name, orig, op, *args, **kwargs)
                finally:
                    self.counts["conic.gamma_changes"] += op.epoch != epoch
        else:
            def wrapped(*args, **kwargs):
                return self.span(name, orig, *args, **kwargs)
        return wrapped

    def install(self) -> None:
        for name, path, attr in BOUNDARIES:
            if name in self.absent:
                continue
            owner = _owner(path)
            orig = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrapper(name, orig))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- analysis --------------------------------------------------------

    def write_csv(self, path, t0: float) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start_s", "end_s", "parent", "solve"))
            for name, start, end, parent, solve in self.spans:
                out.writerow((name, f"{start - t0:.9f}", f"{end - t0:.9f}", parent, solve))


def self_times(spans, first: int = 0, last: int | None = None) -> tuple[Counter, Counter, float]:
    """Self seconds and call counts per span name, and the root spans' total.

    Considers spans[first:last], which must be closed and whose parents lie
    inside the same range.  A span's self time is its duration minus the
    durations of its direct children.
    """
    seconds: Counter = Counter()
    calls: Counter = Counter()
    root_total = 0.0
    for name, start, end, parent, _solve in spans[first:last]:
        dur = end - start
        seconds[name] += dur
        calls[name] += 1
        if parent < first:
            root_total += dur
        else:
            seconds[spans[parent][NAME]] -= dur
    return seconds, calls, root_total
