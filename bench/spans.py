"""In-memory span recorder for the traced benchmark run.

The recorder replaces a layer's public functions, at every module binding
through which other layers (or the benchmark) call them, with thin wrappers
that record one span per call: name, start, end, parent span and operation
id.  Spans are stored column-wise in ``array`` buffers, about 32 bytes per
span, and they are written out once, when the run ends.  ``restore`` puts every original
function back; an untraced run never sees a wrapper.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array
from contextlib import contextmanager

# (module, attribute, span name).  A function imported by name into another
# module is wrapped there too, so calls made from that module are recorded.
BINDINGS = (
    ("morsebound.specfun", "laguerre", "specfun.laguerre"),
    ("morsebound.morse", "laguerre", "specfun.laguerre"),
    ("morsebound.potentials", "laguerre", "specfun.laguerre"),
    ("morsebound.specfun", "log_gamma", "specfun.log_gamma"),
    ("morsebound.morse", "log_gamma", "specfun.log_gamma"),
    ("morsebound.potentials", "log_gamma", "specfun.log_gamma"),
    ("morsebound.specfun", "integrate_halfline", "specfun.integrate_halfline"),
    ("morsebound.morse", "spectrum", "morse.spectrum"),
    ("morsebound.oracle", "morse_spectrum", "morse.spectrum"),
    ("morsebound.cli", "morse_spectrum", "morse.spectrum"),
    ("morsebound.morse", "eigenfunction", "morse.eigenfunction"),
    ("morsebound.cli", "morse_eigenfunction", "morse.eigenfunction"),
    ("morsebound.potentials", "sho_spectrum", "potentials.sho_spectrum"),
    ("morsebound.oracle", "sho_spectrum", "potentials.sho_spectrum"),
    ("morsebound.potentials", "coulomb_spectrum", "potentials.coulomb_spectrum"),
    ("morsebound.oracle", "coulomb_spectrum", "potentials.coulomb_spectrum"),
    ("morsebound.potentials", "sho_eigenfunction", "potentials.sho_eigenfunction"),
    ("morsebound.potentials", "coulomb_eigenfunction", "potentials.coulomb_eigenfunction"),
    ("morsebound.langer", "quantized_energy_via_morse", "langer.quantized_energy_via_morse"),
    ("morsebound.langer", "to_morse", "langer.to_morse"),
    ("morsebound.cli", "to_morse", "langer.to_morse"),
    ("morsebound.oracle", "solve_morse", "oracle.solve"),
    ("morsebound.oracle", "solve_sho", "oracle.solve"),
    ("morsebound.oracle", "solve_coulomb", "oracle.solve"),
    ("morsebound.oracle", "solve_1d", "oracle.solve_1d"),
    ("morsebound.oracle", "solve_radial", "oracle.solve_radial"),
    ("morsebound.oracle", "scan_spectrum", "oracle.scan_spectrum"),
    ("morsebound.cli", "main", "cli.main"),
)


class SpanRecorder:
    """Column store of spans plus the stack of spans currently open."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        name_id = self._intern(name)
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opened(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(idx)

        return traced

    def install(self, bindings=BINDINGS) -> None:
        """Wrap every binding; originals are kept for :meth:`restore`."""
        try:
            for module_name, attr, span_name in bindings:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                wrapper = self._wrap(original, span_name)
                self._patches.append((module, attr, original, wrapper))
                setattr(module, attr, wrapper)
        except BaseException:
            self.restore()
            raise

    def suspend(self) -> None:
        """Put the originals back for a while, e.g. while a result is checked."""
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def resume(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put every original back and forget the wrappers."""
        self.suspend()
        self._patches.clear()

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        own = self.self_times()
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for idx, name_id in enumerate(self.name):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["total_s"] += self.end[idx] - self.start[idx]
            row["self_s"] += own[idx]
        return out

    def child_calls(self, child: str, parent: str) -> int:
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        if child not in self._ids or parent not in self._ids:
            return 0
        cid, pid = self._ids[child], self._ids[parent]
        return sum(1 for idx, name_id in enumerate(self.name)
                   if name_id == cid and self.parent[idx] >= 0
                   and self.name[self.parent[idx]] == pid)

    def write_csv(self, path) -> None:
        """Gzipped CSV, one row per span, times in seconds from the first start."""
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id,op,name,parent,start_s,end_s\n")
            for idx in range(len(self)):
                out.write(f"{idx},{self.op[idx]},{self.names[self.name[idx]]},"
                          f"{self.parent[idx]},{self.start[idx] - t0:.9f},"
                          f"{self.end[idx] - t0:.9f}\n")
