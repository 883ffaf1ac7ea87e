"""Span tracing for the benchmark's traced runs.

`Tracer.install(targets, package)` replaces each target function, in every
binding of it in the package's modules, with a timing wrapper;
`restore()` puts the original objects back.  Wrapped calls form a stack:
each frame's self time is its duration minus the time covered by the calls
it made.  Most functions record a span (name, start, end, parent); the
innermost hot functions named in `counted` only add to their aggregates, so
tracing a trial does not allocate a record per collision test.

Aggregates are keyed by the root frame, which the benchmark opens around
set-up and around each operation, so a layer's time can be split between
set-up and the measured operations.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    self_s: float


class _Frame:
    __slots__ = ("name", "start", "child", "span_id")

    def __init__(self, name, start, span_id):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id


def public_functions(module, layer: str) -> dict:
    """{"layer.func": function} for functions defined in `module` itself."""
    return {
        f"{layer}.{attr}": value
        for attr, value in vars(module).items()
        if inspect.isfunction(value) and not attr.startswith("_")
        and value.__module__ == module.__name__
    }


class Tracer:
    """Collects spans and per-(root, name) aggregates of wrapped calls.

    counted: names recorded only as aggregates (no span per call).
    watched: {name: ancestors}; a call of `name` made while an ancestor is
        on the stack is counted under "ancestor>name" (work per caller).
    hooks: {name: hook(tracer, args, kwargs, result)}, run after a call
        returns, to read counts off results (e.g. EM iterations).
    """

    def __init__(self, counted=(), watched=None, hooks=None, clock=time.perf_counter):
        self.counted = frozenset(counted)
        self.watched = dict(watched or {})
        self.hooks = dict(hooks or {})
        self.clock = clock
        self.spans: list[Span] = []
        # (root, name) -> [calls, total seconds, self seconds]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        # (root, key) -> count
        self.counts = Counter()
        self._stack: list[_Frame] = []
        self._active = Counter()
        self._patched: list = []
        self._next_id = 0

    # -- frames -------------------------------------------------------------

    def enter(self, name: str) -> None:
        span_id = None
        if name not in self.counted:
            span_id = self._next_id
            self._next_id += 1
        for ancestor in self.watched.get(name, ()):
            if self._active[ancestor]:
                self.counts[(self._root(), f"{ancestor}>{name}")] += 1
        self._active[name] += 1
        self._stack.append(_Frame(name, self.clock(), span_id))

    def exit(self) -> None:
        end = self.clock()
        frame = self._stack.pop()
        self._active[frame.name] -= 1
        elapsed = end - frame.start
        self_s = elapsed - frame.child
        root = self._stack[0].name if self._stack else frame.name
        agg = self.stats[(root, frame.name)]
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += self_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += elapsed
        if frame.span_id is not None:
            parent_id = self._parent_span_id()
            self.spans.append(Span(frame.span_id, frame.name, frame.start, end,
                                   parent_id, self_s))

    def _root(self):
        return self._stack[0].name if self._stack else None

    def _parent_span_id(self):
        for frame in reversed(self._stack):
            if frame.span_id is not None:
                return frame.span_id
        return None

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, key: str, n=1) -> None:
        self.counts[(self._root(), key)] += n

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn):
        hook = self.hooks.get(name)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped_original__ = fn
        return wrapper

    def install(self, targets: dict, package: str) -> None:
        """Wrap each target in every binding of it in the package's modules.

        targets maps span names to function objects; a module attribute
        bound to one of those objects (under any attribute name) is
        replaced, whichever module defined the function.
        """
        wrappers = {id(fn): self.wrap(name, fn) for name, fn in targets.items()}
        originals = {id(fn): fn for fn in targets.values()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package
                                      or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is originals[id(value)]:
                    setattr(module, attr, wrappers[id(value)])
                    self._patched.append((module, attr, value))

    def restore(self) -> None:
        """Put back every binding `install` replaced."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- summaries ----------------------------------------------------------

    def totals(self, roots=None) -> dict:
        """{name: (calls, total s, self s)} summed over the given roots."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (root, name), (calls, total, self_s) in self.stats.items():
            if roots is None or root in roots:
                agg = out[name]
                agg[0] += calls
                agg[1] += total
                agg[2] += self_s
        return {name: tuple(v) for name, v in out.items()}

    def counter(self, key: str, roots=None) -> int:
        return sum(n for (root, k), n in self.counts.items()
                   if k == key and (roots is None or root in roots))
