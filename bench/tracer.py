"""Span tracing for the benchmark's traced run, kept outside the program.

Run as a script, it executes one ``graphent`` CLI invocation with every
public function and public method of the ``graphent`` modules wrapped in a
span, and writes the spans to a file when the invocation ends::

    python3 bench/tracer.py SPANS.npz -- verify --corpus all:3 --out r.json

Functions are rebound at their call sites, that is under every name by which
a ``graphent`` module refers to them, so calls inside a module are traced
too.  Module imports are spans as well, so a layer's self time covers all of
its code.  Private helpers and generator bodies count toward the span that
calls them.  Spans are kept in flat arrays (start, end, parent, name) and
summarised by :func:`summarize`.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

PACKAGE = "graphent"
IMPORT = "<import>"


class SpanRecorder:
    """Collects spans in memory; a span's parent is the span open when it began."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("q")
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.starts)
        self.parents.append(self._stack[-1])
        self.name_ids.append(nid)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, fn, name: str):
        nid = self._intern(name)
        opener, closer = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = opener(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(sid)

        return traced

    def dump(self, path: str) -> None:
        np.savez(
            path,
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            parents=np.frombuffer(self.parents, dtype=np.int64),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int64),
            names=np.array(self.names, dtype=str),
        )


class _ImportSpans(importlib.abc.MetaPathFinder):
    """Opens a ``<layer>.<import>`` span around each package module's execution."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder

    def find_spec(self, name, path, target=None):
        if not name.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        label = f"{name.split('.')[1]}.{IMPORT}"
        recorder = self.recorder

        def traced_exec(module):
            with recorder.span(label):
                exec_module(module)

        spec.loader.exec_module = traced_exec
        return spec


def _traceable(obj, module_name: str) -> bool:
    return (inspect.isfunction(obj) and obj.__module__ == module_name
            and not inspect.isgeneratorfunction(obj))


def wrap_package(recorder: SpanRecorder) -> int:
    """Wrap the public functions and methods of every loaded package module.

    Returns the number of functions wrapped.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    wrappers = {}
    for mod in modules:
        if mod.__name__ == PACKAGE:
            continue
        layer = mod.__name__.split(".")[1]
        for name, obj in vars(mod).items():
            if name.startswith("_"):
                continue
            if _traceable(obj, mod.__name__):
                wrappers[obj] = recorder.wrap(obj, f"{layer}.{name}")
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, member in list(vars(obj).items()):
                    if not attr.startswith("_") and _traceable(member, mod.__name__):
                        setattr(obj, attr, recorder.wrap(member, f"{layer}.{name}.{attr}"))
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, name, wrappers[obj])
    return len(wrappers)


def summarize(path) -> dict:
    """Per-name call counts and self times, plus the time the spans cover.

    A span's self time is its duration minus the time its direct children
    cover; children of one span never overlap, because one thread runs them.
    """
    with np.load(path) as data:
        starts, ends = data["starts"], data["ends"]
        parents, name_ids, names = data["parents"], data["name_ids"], data["names"]
    dur = ends - starts
    nested = parents >= 0
    covered = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
    self_time = np.clip(dur - covered, 0.0, None)
    calls = np.bincount(name_ids, minlength=names.size)
    seconds = np.bincount(name_ids, weights=self_time, minlength=names.size)
    return {
        "spans": int(dur.size),
        "covered_s": float(dur[~nested].sum()),
        "names": {str(n): {"calls": int(c), "self_s": float(s)}
                  for n, c, s in zip(names, calls, seconds)},
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.npz -- <graphent arguments>", file=sys.stderr)
        return 2
    recorder = SpanRecorder()
    sys.meta_path.insert(0, _ImportSpans(recorder))
    import graphent.cli

    wrap_package(recorder)
    try:
        return graphent.cli.main(argv[2:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
