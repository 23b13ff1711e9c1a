"""Span tracing around calls into the program's public functions.

The program is not edited: :meth:`Tracer.patch` swaps an attribute
(a module function or a class method) for a timing wrapper and
:meth:`Tracer.restore` puts the original back.  Each wrapped call is a
span with a name, start, end and parent; a span's *self* time is its
duration minus the time its child spans cover.

Per-call spans would run into millions on the admission path, so the
tracer keeps per-name count, total and self time for every span and a
full record (id, name, start, end, parent, request) only for the first
``SPAN_LIMIT`` spans.  :meth:`dump` writes both out when the run ends.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

#: Full span records kept per tracer; later spans only add to totals.
SPAN_LIMIT = 20000


class Tracer:
    def __init__(self):
        #: name -> [count, total_ns, self_ns]
        self.totals: Dict[str, List[int]] = {}
        self.spans: List[tuple] = []
        self._stack: List[list] = []
        self._next_id = 0
        self._request: Optional[int] = None
        self._patches: List[tuple] = []

    # -- spans ---------------------------------------------------------------

    def begin_request(self) -> int:
        """Start a request scope: later root spans share its id."""
        self._next_id += 1
        self._request = self._next_id
        return self._request

    def wrap(self, name: str, fn: Callable, *, starts_request: bool = False):
        totals = self.totals.setdefault(name, [0, 0, 0])
        stack = self._stack
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_request:
                tracer.begin_request()
            tracer._next_id += 1
            span_id = tracer._next_id
            parent = stack[-1] if stack else None
            frame = [0, span_id]
            stack.append(frame)
            started = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = perf_counter_ns()
                stack.pop()
                duration = ended - started
                if parent is not None:
                    parent[0] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[0]
                if len(spans) < SPAN_LIMIT:
                    request = tracer._request
                    if request is None:
                        request = span_id if parent is None else parent[1]
                    spans.append(
                        (
                            span_id,
                            name,
                            started,
                            ended,
                            None if parent is None else parent[1],
                            request,
                        )
                    )

        return traced

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` with a traced wrapper."""
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
        else:
            original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original))

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- results -------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.totals.get(name, [0, 0, 0])[0]

    def total_ns(self, name: str) -> int:
        return self.totals.get(name, [0, 0, 0])[1]

    def self_ns(self, name: str) -> int:
        return self.totals.get(name, [0, 0, 0])[2]

    def reset(self) -> None:
        for totals in self.totals.values():
            totals[:] = [0, 0, 0]
        self.spans.clear()
        self._request = None

    def dump(self, path, **header) -> None:
        """Write the per-name totals and the recorded spans as JSONL."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "header", **header}) + "\n")
            for name, (count, total, self_time) in sorted(self.totals.items()):
                handle.write(
                    json.dumps(
                        {
                            "kind": "totals",
                            "name": name,
                            "count": count,
                            "total_ns": total,
                            "self_ns": self_time,
                        }
                    )
                    + "\n"
                )
            for span_id, name, start, end, parent, request in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "kind": "span",
                            "id": span_id,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )


def busy_wait_ns(duration_ns: int) -> None:
    """Spin for ``duration_ns`` (a planted delay that sleep() would blur)."""
    deadline = perf_counter_ns() + duration_ns
    while perf_counter_ns() < deadline:
        pass
