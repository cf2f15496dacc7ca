"""In-memory span tracer that wraps functions from outside the program.

A span is recorded around every call of a wrapped function: its name,
start, end, parent span and run id.  Functions are wrapped at the module or
class attribute their callers look up, so a name bound with `from m import f`
has to be wrapped at the importing module as well as at `m`.  Spans stay in
memory until the caller writes them out, and `restore()` puts every original
attribute back, so untraced runs execute the program unchanged.

Parents follow the calling thread.  A thread-pool worker has no caller on
its own stack, so `executor_class` gives a ThreadPoolExecutor whose tasks run
as children of the span that submitted them.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple,
                    Optional, Tuple)

# around(fn, args, kwargs) calls fn and may count what goes in and out
Around = Callable[[Callable, tuple, dict], Any]


class Span(NamedTuple):
    id: int
    name: str
    run: str
    start: float
    end: float
    parent: Optional[int]
    thread: int


def _plain_call(fn: Callable, args: tuple, kwargs: dict) -> Any:
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> List[Optional[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             around: Around = _plain_call) -> Any:
        """Run around(fn, args, kwargs) inside a span called `name`."""
        with self._lock:
            sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            return around(fn, args, kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(sid, name, self.run_id, start, end, parent,
                        threading.get_ident())
            with self._lock:
                self.spans.append(span)

    def count(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        """Keep the largest value seen under `key`."""
        with self._lock:
            self.counts[key] = max(self.counts.get(key, value), value)

    def run_under(self, parent: Optional[int], fn: Callable, *args,
                  **kwargs) -> Any:
        """Run fn on this thread as if it were called inside span `parent`."""
        stack = self._stack()
        saved = stack[:]
        stack[:] = [] if parent is None else [parent]
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved

    # -- patching -----------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             around: Around = _plain_call) -> None:
        """Replace owner.attr by a traced wrapper; a missing attribute is
        noted in `missing` and skipped."""
        raw = vars(owner).get(attr)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        descriptor = isinstance(raw, (classmethod, staticmethod))
        fn = raw.__func__ if descriptor else raw

        def wrapped(*args, **kwargs):
            return self.call(name, fn, args, kwargs, around)

        self.replace(owner, attr, type(raw)(wrapped) if descriptor
                     else wrapped)

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def executor_class(self, base=ThreadPoolExecutor):
        """A `base` subclass whose tasks inherit the submitter's span."""
        tracer = self

        class TracedExecutor(base):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.run_under, tracer.current(),
                                      fn, *args, **kwargs)

        return TracedExecutor

    def restore(self) -> None:
        """Put back every attribute replaced since construction."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)


def _covered(intervals: Iterable[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children on other threads may overlap each other; the union counts the
    overlap once, so self time never goes negative."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children.get(s.id, ()),
                                               s.start, s.end)
            for s in spans}
