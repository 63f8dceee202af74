"""In-memory span recorder for the benchmark's traced run.

The traced run wraps public methods of the program's layers from the
outside (no edit to ``src/``).  Every call through a wrapper records one
span: name, start, end, parent span and the cell it belongs to (the
scenario digest of the cell being served).  Spans are kept in typed
arrays while the run lasts and written out once at the end.

A span's *self time* is its duration minus the union of its children's
intervals (:func:`self_times`), so overlapping children are not counted
twice.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

#: Extracts the cell id (a scenario digest) from a wrapped call's
#: arguments, or returns ``None`` when the call names no cell.
CellFrom = Callable[[tuple, dict], Optional[str]]


class SpanRecorder:
    """Records nested spans on one thread into compact arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.cells: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._cell_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.cell = array("i")
        self._stack: list[int] = []
        self.current_cell = -1
        self._installed: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, table: list[str], ids: dict[str, int], key: str) -> int:
        index = ids.get(key)
        if index is None:
            index = ids[key] = len(table)
            table.append(key)
        return index

    def wrap(
        self, func: Callable, span_name: str, cell_from: Optional[CellFrom] = None
    ) -> Callable:
        """Return ``func`` wrapped so each call records a ``span_name`` span."""
        name_id = self._intern(self.names, self._name_ids, span_name)
        stack = self._stack
        starts, ends = self.start, self.end
        add_name, add_start, add_end = self.name.append, starts.append, ends.append
        add_parent, add_cell = self.parent.append, self.cell.append
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def spanned(*args, **kwargs):
            if cell_from is not None:
                digest = cell_from(args, kwargs)
                if digest is not None:
                    self.current_cell = self._intern(
                        self.cells, self._cell_ids, digest
                    )
            index = len(starts)
            add_name(name_id)
            add_parent(stack[-1] if stack else -1)
            add_cell(self.current_cell)
            add_end(0)
            stack.append(index)
            add_start(clock())
            try:
                return func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return spanned

    def install(
        self,
        owner: object,
        attribute: str,
        span_name: str,
        cell_from: Optional[CellFrom] = None,
    ) -> None:
        """Replace ``owner.attribute`` (a class or module) by a wrapper.

        Only an attribute the owner defines itself is wrapped — an
        inherited method stays the base-class object, so identity checks
        such as ``method.__func__ is Base.method`` keep their answer.
        """
        original = vars(owner)[attribute]
        setattr(owner, attribute, self.wrap(original, span_name, cell_from))
        self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as numpy arrays (times in ns)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "cell": np.frombuffer(self.cell, dtype=np.int32).copy(),
        }

    def write(self, path: Path) -> None:
        """Write every span, plus the name and cell tables, to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            cells=np.array(self.cells, dtype=str),
            **self.arrays(),
        )


def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Per-span duration minus the union of its children's intervals.

    Children are clipped to their parent's interval.  The union is
    taken per parent by sorting children by (parent, start) and
    sweeping a running maximum of end times; each parent's group is
    shifted by ``parent * width`` so one global running maximum never
    carries over from one group into the next.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    own = end - start
    children = np.nonzero(parent >= 0)[0]
    if children.size == 0:
        return own
    origin = int(start.min())
    width = int(end.max()) - origin + 1
    owner = parent[children]
    lo = np.maximum(start[children], start[owner]) - origin
    hi = np.minimum(end[children], end[owner]) - origin
    hi = np.maximum(hi, lo)
    order = np.lexsort((lo, owner))
    owner, lo, hi = owner[order], lo[order], hi[order]
    shift = owner * width
    lo, hi = lo + shift, hi + shift
    reach = np.maximum.accumulate(hi)
    before = np.empty_like(reach)
    before[0] = -1
    before[1:] = reach[:-1]
    covered = hi - np.maximum(lo, before)
    np.maximum(covered, 0, out=covered)
    union = np.bincount(owner, weights=covered, minlength=own.size)
    return own - union.astype(np.int64)


def totals_by_name(
    recorder: SpanRecorder,
) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed self time and duration (s)."""
    spans = recorder.arrays()
    count = len(recorder.names)
    if spans["start"].size == 0:
        return {
            name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            for name in recorder.names
        }
    own = self_times(spans["start"], spans["end"], spans["parent"])
    calls = np.bincount(spans["name"], minlength=count)
    self_ns = np.bincount(spans["name"], weights=own, minlength=count)
    total_ns = np.bincount(
        spans["name"], weights=spans["end"] - spans["start"], minlength=count
    )
    return {
        name: {
            "calls": int(calls[i]),
            "self_s": float(self_ns[i]) / 1e9,
            "total_s": float(total_ns[i]) / 1e9,
        }
        for i, name in enumerate(recorder.names)
    }


def cells_of(recorder: SpanRecorder, span_name: str) -> list[str]:
    """Cell ids (digests) of every ``span_name`` span, in call order."""
    name_id = recorder._name_ids.get(span_name)
    if name_id is None:
        return []
    spans = recorder.arrays()
    mask = (spans["name"] == name_id) & (spans["cell"] >= 0)
    return [recorder.cells[c] for c in spans["cell"][mask]]


def defined_methods(cls: type, names: Sequence[str]) -> list[str]:
    """The subset of ``names`` that ``cls`` defines in its own ``vars()``."""
    own = vars(cls)
    return [name for name in names if name in own]
