"""Dual-clock structured tracing for every execution layer.

One :class:`Tracer` instance is threaded from the serving front door
down to individual simulated kernel launches; every span and point
event it records carries **two clocks**:

* ``virtual_*_ms`` — the deterministic simulated timeline (GCD kernel
  costs, scheduler dispatch slots, recovery backoff). Pure function of
  the inputs, so identical seeded runs produce byte-identical virtual
  timelines and stable trace/span ids.
* ``host_*_s`` — wall-clock seconds (``time.perf_counter``, relative
  to tracer creation) of the host Python producing those numbers.
  Machine-dependent; reported next to the virtual clock, never mixed
  into fingerprints.

The correlation problem the dual clock solves: each layer runs its own
virtual clock (every :class:`~repro.gcd.simulator.GCD` counts from 0,
the service scheduler counts from the first arrival). Spans therefore
*rebase* nested clocks: opening a span with ``clock=`` maps that local
clock's current reading onto the enclosing span's current virtual
time, so a kernel at ``gcd.elapsed_ms == 0.3`` inside a dispatch that
started at service-time 120 ms lands at 120.3 ms on the one shared
timeline. Closing a span advances the parent's cursor to the span's
end, so sequential children never overlap.

Trace ids: every *top-level* span starts a new trace (``t<N>``, N
counting from 1 in open order); nested spans and events inherit it.
``Tracer(enabled=False)`` (or the shared :data:`NULL_TRACER`) makes
every entry point a near-free no-op.

Spans are exception-safe: a raising kernel or injected fault unwinds
the ``with`` scopes, closing each span with ``status="error"`` and the
exception type attached — the stack is empty again afterwards
(asserted by ``tests/telemetry``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["EventRecord", "NULL_TRACER", "SpanRecord", "Tracer"]


@dataclass
class SpanRecord:
    """One closed span: a named interval on both clocks."""

    trace_id: str
    span_id: int
    parent_id: int | None
    name: str
    track: str
    virtual_start_ms: float
    virtual_end_ms: float
    host_start_s: float
    host_end_s: float
    status: str = "ok"
    attrs: dict = field(default_factory=dict)

    @property
    def virtual_ms(self) -> float:
        return self.virtual_end_ms - self.virtual_start_ms

    @property
    def host_s(self) -> float:
        return self.host_end_s - self.host_start_s

    def to_dict(self) -> dict:
        return {
            "type": "span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "track": self.track,
            "virtual_start_ms": self.virtual_start_ms,
            "virtual_end_ms": self.virtual_end_ms,
            "host_start_s": self.host_start_s,
            "host_end_s": self.host_end_s,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


@dataclass
class EventRecord:
    """One point event: a named instant on both clocks."""

    trace_id: str | None
    span_id: int | None
    name: str
    track: str
    virtual_ms: float
    host_s: float
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "type": "event",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "name": self.name,
            "track": self.track,
            "virtual_ms": self.virtual_ms,
            "host_s": self.host_s,
            "attrs": dict(self.attrs),
        }


class _NullScope:
    """Zero-cost scope returned by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def end_at(self, virtual_ms: float) -> None:
        pass

    def advance_to(self, virtual_ms: float) -> None:
        pass

    def set(self, **attrs) -> None:
        pass


_NULL_SCOPE = _NullScope()


class _SpanScope:
    """One live span; a context manager that closes it exactly once."""

    __slots__ = (
        "_tracer", "name", "track", "attrs", "_clock", "_at",
        "trace_id", "span_id", "parent_id",
        "_base", "_local0", "_cursor", "_host0", "_explicit_end",
    )

    def __init__(self, tracer: "Tracer", name: str, *, clock, at, track, attrs):
        self._tracer = tracer
        self.name = name
        self.track = track
        self.attrs = attrs
        self._clock = clock
        self._at = at
        self._explicit_end: float | None = None

    # -- scope-local virtual time --------------------------------------
    def now(self) -> float:
        if self._clock is not None:
            return self._base + (self._clock() - self._local0)
        return self._cursor

    def advance_to(self, virtual_ms: float) -> None:
        """Move this span's cursor forward (no-op for clocked spans,
        whose local clock is authoritative)."""
        if self._clock is None and virtual_ms > self._cursor:
            self._cursor = virtual_ms

    def end_at(self, virtual_ms: float) -> None:
        """Pin the span's virtual end explicitly (service dispatches
        know their finish slot; the engines inside ran on local clocks)."""
        self._explicit_end = virtual_ms

    def set(self, **attrs) -> None:
        """Attach/overwrite attributes after the span opened."""
        self.attrs.update(attrs)

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "_SpanScope":
        tracer = self._tracer
        parent = tracer._stack[-1] if tracer._stack else None
        if parent is None:
            tracer._trace_seq += 1
            self.trace_id = f"t{tracer._trace_seq}"
            self.parent_id = None
        else:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        if self.track is None:
            self.track = parent.track if parent is not None else "main"
        tracer._span_seq += 1
        self.span_id = tracer._span_seq
        self._base = self._at if self._at is not None else tracer.now_virtual()
        self._local0 = self._clock() if self._clock is not None else 0.0
        self._cursor = self._base
        self._host0 = tracer._host_now()
        tracer._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        tracer._stack.pop()
        if self._explicit_end is not None:
            end = self._explicit_end
        else:
            end = self.now()
        if end < self._base:
            end = self._base
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        tracer.spans.append(
            SpanRecord(
                trace_id=self.trace_id,
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                track=self.track,
                virtual_start_ms=self._base,
                virtual_end_ms=end,
                host_start_s=self._host0,
                host_end_s=tracer._host_now(),
                status="error" if exc_type is not None else "ok",
                attrs=self.attrs,
            )
        )
        parent = tracer._stack[-1] if tracer._stack else None
        if parent is not None:
            parent.advance_to(end)
        return False


class Tracer:
    """Collects dual-clock spans and point events from every layer.

    Parameters
    ----------
    enabled:
        When False every entry point is a near-free no-op, so the hot
        paths thread one tracer object through unconditionally.
    host_clock:
        Second-resolution monotonic clock (injectable for tests;
        defaults to :func:`time.perf_counter`).
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        host_clock=time.perf_counter,
    ) -> None:
        self.enabled = enabled
        self._host_clock = host_clock
        self._host_epoch = host_clock()
        self.spans: list[SpanRecord] = []
        self.events: list[EventRecord] = []
        self._stack: list[_SpanScope] = []
        self._span_seq = 0
        self._trace_seq = 0

    # ------------------------------------------------------------------
    def _host_now(self) -> float:
        return self._host_clock() - self._host_epoch

    # ------------------------------------------------------------------
    @property
    def open_depth(self) -> int:
        """Currently open spans (0 when no trace is in flight)."""
        return len(self._stack)

    @property
    def traces(self) -> int:
        """Traces started so far."""
        return self._trace_seq

    def now_virtual(self) -> float:
        """Current position on the correlated virtual timeline."""
        if not self._stack:
            return 0.0
        return self._stack[-1].now()

    # ------------------------------------------------------------------
    def span(self, name: str, *, clock=None, at=None, track=None, **attrs):
        """Open a span (use as a context manager).

        ``clock`` is a zero-argument callable reading the layer's local
        virtual clock in ms (e.g. ``lambda: gcd.elapsed_ms``); its
        current value is rebased onto the enclosing timeline. ``at``
        pins the virtual start explicitly instead. With neither, the
        span starts at the enclosing scope's current time and advances
        only as children close (or via :meth:`_SpanScope.advance_to`).
        """
        if not self.enabled:
            return _NULL_SCOPE
        return _SpanScope(self, name, clock=clock, at=at, track=track, attrs=attrs)

    def event(self, name: str, *, at=None, track=None, **attrs) -> None:
        """Record a point event at the current (or given) virtual time."""
        if not self.enabled:
            return
        scope = self._stack[-1] if self._stack else None
        self.events.append(
            EventRecord(
                trace_id=scope.trace_id if scope is not None else None,
                span_id=scope.span_id if scope is not None else None,
                name=name,
                track=track or (scope.track if scope is not None else "main"),
                virtual_ms=at if at is not None else self.now_virtual(),
                host_s=self._host_now(),
                attrs=attrs,
            )
        )

    def complete(
        self, name: str, *, duration_ms: float, at=None, track=None, **attrs
    ) -> None:
        """Record an already-finished span (kernel launches know their
        modelled runtime up front) and advance the enclosing cursor."""
        if not self.enabled:
            return
        scope = self._stack[-1] if self._stack else None
        start = at if at is not None else self.now_virtual()
        host = self._host_now()
        self._span_seq += 1
        self.spans.append(
            SpanRecord(
                trace_id=scope.trace_id if scope is not None else "t0",
                span_id=self._span_seq,
                parent_id=scope.span_id if scope is not None else None,
                name=name,
                track=track or (scope.track if scope is not None else "main"),
                virtual_start_ms=start,
                virtual_end_ms=start + duration_ms,
                host_start_s=host,
                host_end_s=host,
                attrs=attrs,
            )
        )
        if scope is not None:
            scope.advance_to(start + duration_ms)

    # ------------------------------------------------------------------
    def spans_named(self, name: str, *, trace_id: str | None = None) -> list[SpanRecord]:
        """Closed spans with a given name (optionally one trace only)."""
        return [
            s for s in self.spans
            if s.name == name and (trace_id is None or s.trace_id == trace_id)
        ]

    def level_correlation(self, *, trace_id: str | None = None) -> list[dict]:
        """Per-level virtual/host correlation rows from ``bfs.level``
        spans (the table ``repro run --host-profile`` prints).

        Defaults to the most recent trace that contains level spans.
        """
        spans = self.spans_named("bfs.level")
        if not spans:
            return []
        if trace_id is None:
            trace_id = spans[-1].trace_id
        rows = []
        for s in spans:
            if s.trace_id != trace_id:
                continue
            rows.append(
                {
                    "level": s.attrs.get("level", -1),
                    "strategy": s.attrs.get("strategy", "?"),
                    "virtual_ms": s.virtual_ms,
                    "host_ms": s.host_s * 1e3,
                    "ratio": s.attrs.get("ratio", 0.0),
                }
            )
        rows.sort(key=lambda r: r["level"])
        return rows

    def reset(self) -> None:
        """Drop every record and trace id (open spans must be closed)."""
        if self._stack:
            raise RuntimeError(
                f"cannot reset with {len(self._stack)} span(s) still open"
            )
        self.spans.clear()
        self.events.clear()
        self._span_seq = 0
        self._trace_seq = 0
        self._host_epoch = self._host_clock()


#: Shared disabled tracer — layers default to this so the tracing hooks
#: cost one attribute check when tracing is off.
NULL_TRACER = Tracer(enabled=False)
