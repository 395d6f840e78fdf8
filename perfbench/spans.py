"""Outside-in span recorder for the benchmark's traced run.

The recorder replaces public functions of the program with wrappers, at
class level, for the duration of one run.  Every call becomes one span: the
name of the layer function, its start and end (``time.perf_counter``) and
the index of the span that was open when it began (its parent, or -1).
Spans go into flat arrays in memory; nothing is aggregated or written until
the run is over.  An untraced run never imports this module, so it installs
no wrapper at all.

Every wrapped function is synchronous (none is a generator or coroutine),
so spans nest strictly and a parent's children never overlap: the part of a
span covered by its children is the sum of their durations, and

    self time = span duration - sum of child span durations.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable, Dict, Iterable, List, Sequence, Tuple


class SpanRecorder:
    """Records one span per call of every function it wrapped."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: Per span: name id, parent span index (-1 for a root), start, end.
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._patched: List[Tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call records a span called ``name``."""
        name_id = self._intern(name)
        add_name = self.name_ids.append
        add_parent = self.parents.append
        add_start = self.starts.append
        add_end = self.ends.append
        ends = self.ends
        stack = self._stack
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(ends)
            add_name(name_id)
            add_parent(stack[-1])
            add_end(0.0)
            stack.append(index)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def patch(self, owner: object, attributes: Iterable[str], name: str) -> None:
        """Wrap ``owner.<attribute>`` for each attribute ``owner`` itself defines.

        Attributes a class only inherits are skipped: the wrapper on the
        defining class already covers them, and wrapping twice would record
        every call twice.
        """
        for attribute in attributes:
            original = vars(owner).get(attribute)
            if original is None:
                continue
            setattr(owner, attribute, self.wrap(name, original))
            self._patched.append((owner, attribute, original))

    def restore(self) -> None:
        """Put back every function :meth:`patch` replaced."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def aggregate(self, exclude_below: Sequence[str] = ()) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, ``total_s`` (inclusive) and ``self_s``.

        Every span below a span named in ``exclude_below`` is left out (what
        runs inside set-up, when only the run phase is wanted); the named
        spans themselves are kept.
        """
        cut_ids = {self._name_ids[n] for n in exclude_below if n in self._name_ids}
        own = self_times(self.parents, self.starts, self.ends)
        parents, name_ids, starts, ends = self.parents, self.name_ids, self.starts, self.ends
        # 1 for a span whose descendants are left out, 2 for one left out.
        state = bytearray(len(parents))
        table: Dict[int, List[float]] = {}
        for index in range(len(parents)):
            parent = parents[index]
            name_id = name_ids[index]
            if parent >= 0 and state[parent]:
                state[index] = 2
                continue
            if name_id in cut_ids:
                state[index] = 1
            row = table.setdefault(name_id, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += ends[index] - starts[index]
            row[2] += own[index]
        return {
            self.names[name_id]: {"count": row[0], "total_s": row[1], "self_s": row[2]}
            for name_id, row in table.items()
        }


def self_times(parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]) -> List[float]:
    """Self time of every span: its duration minus its children's durations.

    ``parents[i]`` is the index of span ``i``'s parent (always lower than
    ``i``, since a parent opens first) or -1 for a root.
    """
    own = [end - start for start, end in zip(starts, ends)]
    for index, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[index] - starts[index]
    return own
