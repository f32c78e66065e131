"""In-memory spans for the traced benchmark run.

Spans are recorded from the benchmark's own code, around each call it (or
``boolham.cli``) makes into a package module; nothing inside the package is
changed.  A public call that is built from other public calls (for example
``count_models`` from ``projector_defect``) is followed by a *probe*: the
inner call timed again on the same input, so its share of the outer call
shows without instrumenting the package.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, NamedTuple

from boolham import cli


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: tuple[int, int]  # (round, index of the job in the run)
    probe: bool


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer(NullTracer):
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = (-1, -1)
        # (args, kwargs, result) of the latest call to each name in the
        # current job, for probes to re-run inner calls on the same input
        self.last: dict[str, tuple[tuple, dict, Any]] = {}
        self._stack: list[int] = []
        self._next_id = 0

    def _span(self, name: str, probe: bool, fn: Callable, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.job, probe))

    def call(self, name: str, fn: Callable, *args, **kwargs):
        result = self._span(name, False, fn, args, kwargs)
        self.last[name] = (args, kwargs, result)
        return result

    def probe(self, name: str, fn: Callable, *args, **kwargs) -> None:
        self._span(name, True, fn, args, kwargs)

    def wrap(self, name: str, fn: Callable) -> Callable:
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)


class _Layer:
    """A module or class as ``boolham.cli`` sees it: public callables are
    timed in spans named ``<prefix>.<attribute>``; classes are wrapped the
    same way one level down and still construct real instances."""

    def __init__(self, tracer: Tracer, target: Any, prefix: str) -> None:
        self._tracer = tracer
        self._target = target
        self._prefix = prefix

    def __getattr__(self, name: str):
        attr = getattr(self._target, name)
        if name.startswith("_") or not callable(attr):
            return attr
        if isinstance(attr, type):
            return _Layer(self._tracer, attr, f"{self._prefix}.{name}")
        return self._tracer.wrap(f"{self._prefix}.{name}", attr)

    def __call__(self, *args, **kwargs):
        return self._target(*args, **kwargs)


# names boolham.cli imports from other package modules, with the span prefix
# their calls are recorded under
_CLI_MODULES = {
    "compiler": "compiler",
    "fourier": "fourier",
    "circuits": "circuits",
    "verify": "verify",
    "DiagonalHamiltonian": "zpoly",
}
_CLI_FUNCTIONS = {"parse_dimacs": "boolexpr", "parse_expr": "boolexpr"}


@contextlib.contextmanager
def traced_cli(tracer: Tracer):
    """While active, every call boolham.cli makes into another module is a span."""
    saved = {name: getattr(cli, name) for name in (*_CLI_MODULES, *_CLI_FUNCTIONS)}
    try:
        for name, prefix in _CLI_MODULES.items():
            setattr(cli, name, _Layer(tracer, saved[name], prefix))
        for name, prefix in _CLI_FUNCTIONS.items():
            setattr(cli, name, tracer.wrap(f"{prefix}.{name}", saved[name]))
        yield
    finally:
        for name, value in saved.items():
            setattr(cli, name, value)


def layer_times(spans: list[Span], scale: dict) -> tuple[dict, dict, set]:
    """Self time and call count per span name over the jobs in ``scale``,
    each job's times multiplied by its factor there.

    Self time is a span's duration minus that of its direct children (one
    thread, so children never overlap).  Returns (busy_s, calls, names that
    came from probes).
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    probed: set[str] = set()
    for s in spans:
        if s.job not in scale:
            continue
        self_time = (s.end - s.start) - child_time.get(s.id, 0.0)
        busy[s.name] = busy.get(s.name, 0.0) + scale[s.job] * self_time
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.probe:
            probed.add(s.name)
    return busy, calls, probed
