"""Spans around the public functions of each netsafety module, timed from outside.

The tracer replaces a function at the module attribute its caller resolves
(for example ``netsafety.cli.apply_homography``, which ``cmd_project`` looks
up in its own module globals) with a wrapper that records one span per call:
name, start, end, parent span and job.  Spans live in flat arrays while the
jobs run and are written out at the end.  ``uninstall`` puts every original
object back, so untraced and traced jobs can share one process.

Counts (rows parsed, homography calls, joined rows, ...) are read from the
arguments and return values at the same boundaries.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = -1  # parent of a job's root span


class Tracer:
    """Records spans and counts; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("l")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: list[dict[str, float]] = []
        self._stack: list[int] = [ROOT]
        self._job = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.job.append(self._job)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_job(self, name: str = "job") -> int:
        """Start a new job: a fresh count table and a root span."""
        self._job += 1
        self.counts.append(defaultdict(float))
        return self.open(name)

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[self._job][key] += value

    def wrap(self, fn, span: str, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------

    def install(self, table) -> None:
        """Wrap every ``(owner, attribute, span, counter)`` entry of ``table``.

        ``owner`` is a module or a dict (e.g. ``association.CORRELATION_METHODS``).
        """
        for owner, attr, span, counter in table:
            original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
            wrapped = self.wrap(original, span, counter)
            if isinstance(owner, dict):
                owner[attr] = wrapped
            else:
                setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- output ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int_).copy(),
            "job": np.frombuffer(self.job, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
        }

    def save(self, path: Path) -> None:
        """Write the spans (``.npz``) and the span names (``.names.json``)."""
        np.savez(path, **self.arrays())
        Path(str(path) + ".names.json").write_text(json.dumps(self.names))


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    The tracer keeps a strict call stack in one thread, so the children of a
    span are disjoint and lie inside it: the covered time is their sum.
    """
    duration = end - start
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=duration.size)
    return duration - child_time


class SpanTable:
    """Per-job sums over a tracer's spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name = a["name"]
        self.job = a["job"]
        self.duration = a["end"] - a["start"]
        self.self_time = self_times(a["parent"], a["start"], a["end"])

    def _mask(self, names, job: int) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return (self.job == job) & np.isin(self.name, ids)

    def total(self, names, job: int) -> float:
        return float(self.duration[self._mask(names, job)].sum())

    def self_total(self, names, job: int) -> float:
        return float(self.self_time[self._mask(names, job)].sum())

    def calls(self, names, job: int) -> int:
        return int(self._mask(names, job).sum())
