"""Outside-in tracer: wraps the names hadclique's modules look up at call time.

A module such as ``hadclique.exact`` calls ``adjacency(...)`` through its own
global namespace, so replacing ``hadclique.exact.adjacency`` with a wrapper
times every call the exact search makes, without touching the package's
source. Each wrapped call becomes a span (name, start, end, parent, root)
kept in memory; ``write`` dumps them as JSON lines when the run ends.

A name the commit under test does not define is recorded in ``absent`` and
its metrics are left out, so a later refactor that deletes a helper reads
as "absent", never as zero calls.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

Recorder = Callable[[tuple, dict, Any], dict]
Caller = Callable[..., Any]


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    root: int
    thread: int
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[tuple[str, str]] = []  # (span name, dotted name) not defined
        self.installed: set[str] = set()  # span names with at least one wrapper in place
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, dotted: str, name: str, record: Recorder | None = None, call: Caller | None = None) -> None:
        """Replace module attribute ``dotted`` by a span-recording wrapper.

        ``record(args, kwargs, result)`` returns per-call details kept in the
        span; ``call(original, *args, **kwargs)`` replaces the plain call when
        the wrapper must pass something extra, such as a GA observer.
        """
        module_name, attr = dotted.rsplit(".", 1)
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append((name, dotted))
            return
        invoke = (lambda *a, **kw: call(original, *a, **kw)) if call else original

        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            span = Span(
                id=sid,
                name=name,
                parent=parent.id if parent else None,
                root=parent.root if parent else sid,
                thread=threading.get_ident(),
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = invoke(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if record is not None:
                span.info = record(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))
        self.installed.add(name)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and the spans' details.

        Self time is a span's duration minus its direct children's; children
        run on the parent's thread, so they never overlap each other.
        """
        child_s: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start
        out: dict[str, dict] = {}
        for s in self.spans:
            layer = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "info": []})
            layer["calls"] += 1
            layer["total_s"] += s.end - s.start
            layer["self_s"] += s.end - s.start - child_s[s.id]
            layer["info"].append(s.info)
        return out

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(s)) + "\n")
