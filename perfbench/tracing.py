"""Span recorder for the traced run.

Spans come from the benchmark's side only: for the duration of a traced
pass, each layer's public functions are replaced, at the module attribute
through which their caller looks them up, by a wrapper that opens and
closes a span around the original.  The package itself is not modified.
Spans stay in memory and are written out once, after the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator


@dataclass
class Span:
    """One timed interval; parent is the id of the enclosing span, run the
    index of the benchmark operation the span belongs to."""

    id: int
    name: str
    start: float
    parent: int | None
    run: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _run_exact_counts(report) -> dict:
    live = sum(1 for br in report.branches if br.pre_recovery is not None)
    return {"branches": len(report.branches), "live": live}


def _run_sampled_counts(report) -> dict:
    return {"trials": report.trials}


def _oracle_counts(results) -> dict:
    return {"branches": len(results)}


# (span name, module holding the binding, attribute, counter on the result).
# A function bound in several modules is wrapped at each binding a workload
# reaches, so a call is traced whichever module it goes through.
LAYER_BINDINGS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("qcore.projective_measure", "jrsp.protocol", "projective_measure", None),
    ("bases.alice_basis", "jrsp.protocol", "improved_alice_basis", None),
    ("bases.alice_basis", "jrsp.protocol", "bich_alice_basis3", None),
    ("bases.helper_basis", "jrsp.protocol", "improved_bob_basis", None),
    ("bases.helper_basis", "jrsp.protocol", "bich_bob_basis", None),
    ("protocol.build_channel", "jrsp.protocol", "build_channel", None),
    ("protocol.run_exact", "jrsp.protocol", "run_exact", _run_exact_counts),
    ("protocol.run_exact", "jrsp.verify", "run_exact", _run_exact_counts),
    ("protocol.run_exact", "jrsp.cli", "run_exact", _run_exact_counts),
    ("protocol.run_sampled", "jrsp.protocol", "run_sampled", _run_sampled_counts),
    ("verify.oracle_branches", "jrsp.verify", "oracle_branches", _oracle_counts),
    ("verify.detect_errata", "jrsp.verify", "detect_errata", None),
    ("verify.compare_rules", "jrsp.verify", "compare_rules", None),
    ("cli.main", "jrsp.cli", "main", None),
)


class Tracer:
    """In-memory span recorder for a single thread.

    Spans are stored column by column as numbers and strings, which the
    garbage collector stops scanning, so the full collection the benchmark
    makes between calls does not slow down as spans pile up.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.run = 0
        self._names: list[str] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._parents: list[int | None] = []
        self._runs: list[int] = []
        self._attrs: dict[int, tuple] = {}
        self._stack: list[int] = []
        self._clock = clock

    def begin(self, name: str, **attrs) -> int:
        """Open a span inside the innermost open one; returns its id."""
        sid = len(self._names)
        self._names.append(name)
        self._parents.append(self._stack[-1] if self._stack else None)
        self._runs.append(self.run)
        self._ends.append(0.0)
        if attrs:
            self.annotate(sid, **attrs)
        self._stack.append(sid)
        self._starts.append(self._clock())
        return sid

    def end(self, sid: int) -> None:
        self._ends[sid] = self._clock()
        if self._stack.pop() != sid:
            raise RuntimeError(f"span {self._names[sid]!r} closed out of order")

    def annotate(self, sid: int, **attrs) -> None:
        self._attrs[sid] = tuple({**dict(self._attrs.get(sid, ())), **attrs}.items())

    @property
    def spans(self) -> list[Span]:
        return [
            Span(sid, name, start, parent, run, end, dict(self._attrs.get(sid, ())))
            for sid, (name, start, end, parent, run) in enumerate(
                zip(self._names, self._starts, self._ends, self._parents, self._runs))
        ]

    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if counter is not None:
                self.annotate(sid, **counter(result))
            return result

        return traced

    @contextmanager
    def installed(self, bindings: Iterable[tuple] = LAYER_BINDINGS) -> Iterator["Tracer"]:
        """Wrap every binding for the duration of the block.

        Raises before wrapping anything when a binding no longer exists, so a
        renamed or moved function fails the traced run instead of silently
        reporting zero calls.
        """
        resolved = []
        for name, module_name, attr, counter in bindings:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise RuntimeError(
                    f"traced binding {module_name}.{attr} ({name}) no longer exists"
                )
            resolved.append((module, attr, fn, self._wrap(name, fn, counter)))
        try:
            for module, attr, _, wrapper in resolved:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, fn, _ in resolved:
                setattr(module, attr, fn)



def write_spans(spans: list[Span], path: Path) -> None:
    """One JSON object per span and line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for s in spans:
            fh.write(json.dumps({
                "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                "parent": s.parent, "run": s.run, **s.attrs,
            }) + "\n")


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the part of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    ]


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed self time and summed counters."""
    table: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)):
                row[key] = row.get(key, 0) + value
    return table


def uncovered(spans: list[Span], lo: float, hi: float) -> float:
    """Wall time in [lo, hi] that no span covers."""
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    return (hi - lo) - covered(roots, lo, hi)
