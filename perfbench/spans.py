"""In-memory span recording around calls into ``repro``, from outside.

The traced run wraps public functions of each layer where their callers
look them up (a module global or a class attribute), records one span
per call — name, start, end, parent, op id — and keeps the spans in a
list until the run ends.  ``repro``'s own tracer stays off: turning it
on sends the sweeps down their legacy live path, so the traced run
would time different code than the untraced one.
"""

from __future__ import annotations

import bisect
import functools
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One finished span: (name, start, end, parent index or -1, op id).
Span = Tuple[str, float, float, int, Any]


class Recorder:
    """Span and count recorder shared by every wrapper of one run."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, float] = {}
        self.op: Any = None
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _open(self, name: str) -> Tuple[int, float]:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, time.perf_counter()

    def _close(self, name: str, index: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self.op)

    # -- patching -----------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_return: Optional[Callable[["Recorder", tuple, Any], None]] = None,
        op_key: Optional[Callable[[tuple], Any]] = None,
    ) -> bool:
        """Replace ``owner.attr`` by a recording wrapper.

        ``on_return(recorder, args, result)`` records counts at the same
        boundary; ``op_key(args)`` makes the call an op, so spans under
        it carry that id.  Returns False (and patches nothing) when the
        attribute does not exist, so a layer a later version removes
        simply records no spans.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        if raw is None:
            raw = getattr(owner, attr, None)
        if raw is None:
            return False
        is_static = isinstance(raw, staticmethod)
        func = raw.__func__ if is_static else raw
        recorder = self

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            outer = recorder.op
            if op_key is not None:
                recorder.op = op_key(args)
            index, start = recorder._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                recorder._close(name, index, start)
                recorder.op = outer
            if on_return is not None:
                on_return(recorder, args, result)
            return result

        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._patches.append((owner, attr, raw))
        return True

    def unpatch(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def finished(self) -> List[Span]:
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        return [s for s in self.spans if s is not None]


# -- self-time arithmetic ----------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        elif b > run_end:
            run_end = b
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time per span name: each span's duration minus the part of
    it that its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: Dict[str, float] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        own = (end - start) - covered(children.get(index, ()), start, end)
        out[name] = out.get(name, 0.0) + own
    return out


def within(spans: Sequence[Span], sections: Sequence[Tuple[float, float]]) -> List[Span]:
    """The spans lying inside one of ``sections``, parents re-indexed.

    Spans nest, so a span outside every section takes its whole subtree
    with it (set-up work between timed sections is not traced time).
    """
    ordered = sorted(sections)
    starts = [lo for lo, _ in ordered]

    def inside(span: Span) -> bool:
        at = bisect.bisect_right(starts, span[1]) - 1
        return at >= 0 and span[2] <= ordered[at][1]

    index: Dict[int, int] = {}
    kept: List[Span] = []
    for old, span in enumerate(spans):
        if inside(span):
            index[old] = len(kept)
            name, start, end, parent, op = span
            kept.append((name, start, end, index.get(parent, -1), op))
    return kept


def unattributed(spans: Sequence[Span], lo: float, hi: float) -> float:
    """Time of the phase ``[lo, hi]`` that no top-level span covers."""
    roots = [(s[1], s[2]) for s in spans if s[3] < 0]
    return (hi - lo) - covered(roots, lo, hi)
