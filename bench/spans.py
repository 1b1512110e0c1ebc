"""In-memory span recorder wrapped around dhcpguard's public names.

A :class:`Tracer` replaces module and class attributes with wrappers that
record one span per call: name, start, end and the enclosing span.  The
package itself is not modified; the wrappers only take effect because
the layers look these names up at call time.  Spans stay in memory until
:meth:`Tracer.write` dumps them, and :meth:`Tracer.summary` turns them
into per-name call counts, total time and self time.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from typing import Callable, Optional

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self._stack = [NO_PARENT]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable,
             tally: Optional[Callable[[object], dict]] = None) -> Callable:
        """Return ``fn`` recording a span per call.

        ``tally(result)`` may return counts to add to :attr:`counts`.
        """
        name_id = self._name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if tally is not None:
                counts.update(tally(result))
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str,
              tally: Optional[Callable[[object], dict]] = None) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by its traced form."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), tally))

    def summary(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s"}}`` over all recorded spans."""
        n = len(self.start)
        child_ns = [0] * n
        for span in range(n):
            p = self.parent[span]
            if p != NO_PARENT:
                child_ns[p] += self.end[span] - self.start[span]
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        for span in range(n):
            name_id = self.name_of[span]
            duration = self.end[span] - self.start[span]
            calls[name_id] += 1
            total[name_id] += duration
            own[name_id] += duration - child_ns[span]
        return {
            name: {"calls": calls[i], "total_s": total[i] / 1e9, "self_s": own[i] / 1e9}
            for i, name in enumerate(self.names)
        }

    def calls_under(self, name: str, parent_name: str) -> int:
        """Spans named ``name`` whose nearest recorded ancestor is ``parent_name``."""
        name_id, parent_id = self._name_ids[name], self._name_ids[parent_name]
        return sum(
            1 for span in range(len(self.start))
            if self.name_of[span] == name_id
            and self.parent[span] != NO_PARENT
            and self.name_of[self.parent[span]] == parent_id
        )

    def write(self, path) -> None:
        """One CSV row per span: id, parent id, name, start and end in ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            names = self.names
            for span in range(len(self.start)):
                fh.write(f"{span},{self.parent[span]},{names[self.name_of[span]]},"
                         f"{self.start[span]},{self.end[span]}\n")
