"""Request-scoped tracing: follow one request across the fabric layers.

A :class:`Tracer` hands out :class:`Span` s — named, timed segments
that share a ``trace_id`` per request and nest via ``parent_id``.  The
serving :class:`~repro.serving.Gateway` opens a span at ``submit``,
each dispatched batch gets a child span, and the engine call gets a
grandchild — *including* across the process boundary: the trace
context (a two-key dict) rides the pipe message that names the
batch's shared-memory slot, and the worker ships its finished engine
span back with the result.

Durations come from the tracer's injectable monotonic clock, so tests
and the virtual-time traffic simulator stay deterministic; span and
trace ids are sequence numbers, not random, for the same reason.
Finished spans are exported to a bounded in-memory :class:`SpanRing`
(always) and to an optional :class:`JsonlSpanSink` file.  Spans from
other processes arrive as plain dicts and enter through
:meth:`Tracer.ingest` — their timestamps are that process's monotonic
clock, so only their *durations* are comparable across processes.
"""

from __future__ import annotations

import json
import time
from collections import deque

__all__ = [
    "JsonlSpanSink",
    "Span",
    "SpanRing",
    "Tracer",
]


class Span:
    """One named, timed segment of a trace.

    Created via :meth:`Tracer.start_span`; call :meth:`end` (or use the
    span as a context manager) to close it — that is when it is
    exported.  :meth:`context` is the two-key dict that propagates the
    trace across process boundaries.

    >>> tracer = Tracer(clock=iter([1.0, 3.5]).__next__)
    >>> with tracer.start_span("gateway.request", tenant="a") as span:
    ...     ctx = span.context()
    >>> sorted(ctx)
    ['span_id', 'trace_id']
    >>> record = tracer.finished()[0]
    >>> record["name"], record["duration_s"], record["status"]
    ('gateway.request', 2.5, 'ok')
    """

    __slots__ = ("_tracer", "name", "trace_id", "span_id", "parent_id",
                 "start_s", "end_s", "status", "attrs")

    def __init__(self, tracer, name, trace_id, span_id, parent_id,
                 start_s, attrs):
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = start_s
        self.end_s = None
        self.status = None
        self.attrs = attrs

    def context(self):
        """The propagation context: ``{"trace_id", "span_id"}``."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    def set_attrs(self, **attrs):
        """Attach (or overwrite) attributes on the span."""
        self.attrs.update(attrs)

    def end(self, status="ok"):
        """Close the span with ``status`` and export it (idempotent)."""
        if self.end_s is not None:
            return
        self.end_s = self._tracer.clock()
        self.status = status
        self._tracer._export(self.to_dict())

    def to_dict(self):
        """The span as a JSON-able record (the export format)."""
        end_s = self.end_s
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": end_s,
            "duration_s": (None if end_s is None
                           else max(0.0, end_s - self.start_s)),
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.end()
        else:
            self.set_attrs(error=repr(exc))
            self.end(status="error")
        return False

    def __repr__(self):
        state = "open" if self.end_s is None else self.status
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"{state})")


class SpanRing:
    """Bounded in-memory buffer of finished span records (newest wins).

    >>> ring = SpanRing(capacity=2)
    >>> for i in range(3):
    ...     ring.append({"span_id": f"s{i}"})
    >>> [r["span_id"] for r in ring.records()]
    ['s1', 's2']
    >>> len(ring)
    2
    """

    __slots__ = ("capacity", "_records")

    def __init__(self, capacity=1024):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._records = deque(maxlen=self.capacity)

    def append(self, record):
        """Add one finished span record (evicts the oldest when full)."""
        self._records.append(record)

    def records(self):
        """The buffered records, oldest first (a copy)."""
        return list(self._records)

    def __len__(self):
        return len(self._records)


class JsonlSpanSink:
    """Append finished spans to a JSONL file, one record per line.

    >>> import os, tempfile
    >>> path = os.path.join(tempfile.mkdtemp(), "spans.jsonl")
    >>> with JsonlSpanSink(path) as sink:
    ...     sink.write({"name": "engine.predict", "status": "ok"})
    >>> [json.loads(line)["name"] for line in open(path)]
    ['engine.predict']
    """

    __slots__ = ("path", "_fh")

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")

    def write(self, record):
        """Write one span record as a JSON line (flushed immediately)."""
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self):
        """Close the underlying file (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


class Tracer:
    """Factory and export pipeline for request-scoped spans.

    Parameters
    ----------
    clock:
        Monotonic time source for span start/end times.  Injectable so
        tests pin exact durations and the traffic simulator traces in
        virtual time.
    capacity:
        Size of the in-memory :class:`SpanRing` of finished spans.
    sink:
        Optional :class:`JsonlSpanSink` (or anything with ``write``)
        every finished span is also exported to.
    id_prefix:
        Prepended to generated trace/span ids — give each process its
        own prefix when several trace into one sink.

    >>> clock = iter([0.0, 1.0, 2.0, 3.0]).__next__
    >>> tracer = Tracer(clock=clock)
    >>> parent = tracer.start_span("gateway.request")
    >>> child = tracer.start_span("replica.dispatch",
    ...                           parent=parent.context(), replica=0)
    >>> child.end(); parent.end()
    >>> [r["name"] for r in tracer.finished()]
    ['replica.dispatch', 'gateway.request']
    >>> child.trace_id == parent.trace_id
    True
    >>> child.parent_id == parent.span_id
    True
    """

    def __init__(self, clock=time.monotonic, capacity=1024, sink=None,
                 id_prefix=""):
        self.clock = clock
        self.ring = SpanRing(capacity)
        self.sink = sink
        self.id_prefix = id_prefix
        self._n = 0

    def start_span(self, name, parent=None, **attrs):
        """Open a span; ``parent`` is a :class:`Span`, a context dict, or None.

        Without a parent the span starts a new trace.  Keyword
        arguments become span attributes.
        """
        self._n += 1
        span_id = f"{self.id_prefix}s{self._n}"
        if parent is None:
            trace_id = f"{self.id_prefix}t{self._n}"
            parent_id = None
        else:
            ctx = parent.context() if isinstance(parent, Span) else parent
            trace_id = ctx["trace_id"]
            parent_id = ctx["span_id"]
        return Span(self, name, trace_id, span_id, parent_id,
                    self.clock(), attrs)

    def ingest(self, record):
        """Export a finished span record produced elsewhere (a worker).

        The record is a plain dict in the :meth:`Span.to_dict` shape;
        it enters the ring/sink unchanged.
        """
        self._export(record)
        return record

    def _export(self, record):
        self.ring.append(record)
        if self.sink is not None:
            self.sink.write(record)

    def finished(self):
        """Finished span records in the ring, oldest first."""
        return self.ring.records()

    def trace(self, trace_id):
        """The ring's finished spans of one trace, oldest first."""
        return [r for r in self.ring.records()
                if r.get("trace_id") == trace_id]
