"""In-memory spans around calls into the nehari modules, installed from outside.

The package binds functions by name on import (``from .grid import
laplacian_matvec``), so a wrapper must replace every module attribute that
refers to the original function, not only the one in the defining module.
``Tracer.patch`` does that by identity scan over the loaded ``nehari.*``
modules plus the defining module; a target that no longer exists raises
``AttributeError``, so a renamed function shows up as an error instead of
as a silent zero.

Two kinds of wrapper exist:

* span wrappers, for calls at a layer boundary (a few dozen per operation):
  each call records one span with name, start, end, parent span and
  operation id;
* aggregated wrappers, for the hot inner calls (stencil applications,
  gradient, energy, retraction, linear solves), which run tens of
  thousands of times per operation: they add calls, seconds and self
  seconds to one counter per (name, enclosing span), so memory stays
  bounded.

Both kinds report their duration to the enclosing call, so a span's
``covered`` field is the time its children cover and its self time is
``end - start - covered``.  Everything stays in memory until ``dump``.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    covered: float
    info: dict | None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.end - self.start - self.covered


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        # (name, enclosing span id) -> [calls, seconds, self seconds]
        self.aggregates: dict[tuple[str, int | None], list] = {}
        self.op: int | None = None
        self._frames: list[list[float]] = []  # child time per open call
        self._span_ids: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._span_ids[-1] if self._span_ids else None
        frame = [0.0]
        self._frames.append(frame)
        self._span_ids.append(sid)
        record = Span(sid, name, 0.0, 0.0, parent, self.op, 0.0, None)
        record.start = perf_counter()
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._frames.pop()
            self._span_ids.pop()
            if self._frames:
                self._frames[-1][0] += record.end - record.start
            record.covered = frame[0]
            self.spans.append(record)

    def span_wrapper(self, name, fn, on_return=None):
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if on_return is not None:
                record.info = on_return(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def aggregate_wrapper(self, name, fn):
        frames, span_ids, aggregates = self._frames, self._span_ids, self.aggregates

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                frames.pop()
                if frames:
                    frames[-1][0] += d
                key = (name, span_ids[-1] if span_ids else None)
                acc = aggregates.get(key)
                if acc is None:
                    aggregates[key] = [1, d, d - frame[0]]
                else:
                    acc[0] += 1
                    acc[1] += d
                    acc[2] += d - frame[0]

        wrapper.__wrapped__ = fn
        return wrapper

    # --- installing ----------------------------------------------------------

    def patch(self, module_name: str, attr: str, make_wrapper) -> None:
        """Replace every binding of ``module_name.attr`` with one wrapper."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = make_wrapper(original)
        modules = [sys.modules[module_name]] + [
            m for k, m in sorted(sys.modules.items())
            if (k == "nehari" or k.startswith("nehari.")) and m is not None
        ]
        seen = set()
        for mod in modules:
            if id(mod) in seen:
                continue
            seen.add(id(mod))
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        while self._patches:
            mod, key, original = self._patches.pop()
            setattr(mod, key, original)

    # --- output --------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span and aggregate as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"span": asdict(s)}) + "\n")
            for (name, parent), (calls, secs, self_secs) in sorted(
                self.aggregates.items(), key=lambda kv: (kv[0][0], kv[0][1] or -1)
            ):
                fh.write(json.dumps({
                    "aggregate": {"name": name, "parent": parent, "calls": calls,
                                  "seconds": secs, "self_seconds": self_secs}
                }) + "\n")
