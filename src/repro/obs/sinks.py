"""Probe sinks: ring buffer, JSONL writer, registry recorder, snapshots.

A sink is anything with ``write(record: dict)``; :class:`Probe` calls the
sinks in registration order, so order encodes dataflow —
:class:`RegistryRecorder` (which folds events into the metrics registry)
must come before :class:`SnapshotEmitter` (which reads the registry).

The JSONL stream is schema-versioned: the first line of every file is a
``{"event": "schema", "version": N}`` record, and readers
(:mod:`repro.obs.report`) refuse future majors rather than mis-parse.
Paths ending in ``.gz`` are gzip-compressed transparently.
"""

from __future__ import annotations

import gzip
import json
from collections import deque
from functools import partial
from typing import List, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "EVENT_SCHEMA",
    "SPAN_SCHEMA",
    "RingBufferSink",
    "JSONLSink",
    "SpanSink",
    "RegistryRecorder",
    "SnapshotEmitter",
]

#: Version of the JSONL event schema; bump on breaking field changes.
EVENT_SCHEMA = 1

#: Version of the JSONL span stream written by :class:`SpanSink`.
SPAN_SCHEMA = 1


class RingBufferSink:
    """Keep the last ``maxlen`` event records in memory (flight recorder)."""

    def __init__(self, maxlen: int = 4096):
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self.buffer: deque = deque(maxlen=maxlen)
        self.written = 0

    def write(self, record: dict) -> None:
        self.buffer.append(record)
        self.written += 1

    def as_list(self) -> List[dict]:
        return list(self.buffer)


class JSONLSink:
    """Append-only JSONL event writer; ``.gz`` suffix → gzip stream.

    ``header`` overrides the schema line written as the first record —
    subclasses carrying a different stream kind (spans) pass their own.
    """

    def __init__(self, path: str, header: Optional[dict] = None):
        self.path = str(path)
        if self.path.endswith(".gz"):
            # zlib's default level, not gzip.open's 9: a tenth larger on
            # disk for a third more traced requests per second.
            self._fh = gzip.open(self.path, "wt", encoding="utf-8", compresslevel=6)
        else:
            self._fh = open(self.path, "w", encoding="utf-8")
        self.written = 0
        if header is None:
            header = {"event": "schema", "version": EVENT_SCHEMA}
        self._fh.write(json.dumps(header, sort_keys=True) + "\n")

    def write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        self.written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None  # type: ignore[assignment]


class SpanSink(JSONLSink):
    """Schema-versioned JSONL span-stream writer (``.gz`` aware).

    The header line distinguishes the span stream from the event stream:
    ``{"event": "schema", "stream": "spans", "version": SPAN_SCHEMA}``.
    Readers (:mod:`repro.obs.tracereport`) refuse other streams/versions.
    """

    def __init__(self, path: str):
        super().__init__(
            path,
            header={"event": "schema", "stream": "spans", "version": SPAN_SCHEMA},
        )


class RegistryRecorder:
    """Fold the event stream into a :class:`MetricsRegistry`.

    Maintains, besides an ``events`` counter per event type:

    * gauges ``w_mru`` / ``w_lru`` / ``lambda`` — the learner trajectory's
      latest points;
    * counters ``ghost_hits{list=m|l}``, ``lambda_restarts``,
      ``episodes{to=...}``;
    * log2 histograms ``admit_bytes`` / ``evict_bytes`` and
      ``evict_tenure_hits`` (hit token at eviction — the ZRO signal).

    Nothing here needs a record: every fold is a count, a last value or a
    histogram of ints, so the recorder also takes an event's occurrences as
    one aggregate (:meth:`fold`).  Having ``fold`` is what lets
    :attr:`Probe.folds <repro.obs.probe.Probe.folds>` keep an observed
    policy on its bulk loop.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._folds: dict = {}

    def write(self, record: dict) -> None:
        event = record["event"]
        folds = self._folds.get(event)
        if folds is None:
            folds = self._folds[event] = self._resolve(event)
        folds[0](record)

    def fold(self, event: str, n: int, fields: dict) -> None:
        """``n`` records of ``event`` at once; the registry ends up as after
        ``n`` :meth:`write` calls.  ``fields`` holds, under the record's own
        field names, what each fold reads: ``{label value: count}`` for a
        labelled counter, the last value for a gauge, the list of ints for
        a histogram."""
        folds = self._folds.get(event)
        if folds is None:
            folds = self._folds[event] = self._resolve(event)
        folds[1](n, fields)

    def _resolve(self, event: str):
        """Bind ``event``'s instruments on its first occurrence; return its
        ``(per-record, per-aggregate)`` folds.  The registry lookup (label
        sort + key build) is paid once per event type, not per record;
        instruments still appear in the registry only once their event has
        occurred."""
        reg = self.registry
        count = reg.counter("events", event=event).inc
        fold = None
        if event == "weight_update":
            w_mru, w_lru = reg.gauge("w_mru").set, reg.gauge("w_lru").set

            def fold_many(n: int, fields: dict) -> None:
                count(n)
                w_mru(fields["w_mru"])
                w_lru(fields["w_lru"])

        elif event == "lambda_update":
            lam = reg.gauge("lambda").set

            def fold_many(n: int, fields: dict) -> None:
                count(n)
                lam(fields["value"])

        elif event == "lambda_restart":
            restarts, lam = reg.counter("lambda_restarts").inc, reg.gauge("lambda").set

            def fold_many(n: int, fields: dict) -> None:
                count(n)
                restarts(n)
                lam(fields["value"])

        elif event in _LABELLED:
            name, label = _LABELLED[event]
            by_value: dict = {}

            def fold(record: dict) -> None:
                count()
                value = record[label]
                counter = by_value.get(value)
                if counter is None:
                    counter = by_value[value] = reg.counter(name, **{label: value})
                counter.inc()

            def fold_many(n: int, fields: dict) -> None:
                count(n)
                for value, c in fields[label].items():
                    if c:
                        reg.counter(name, **{label: value}).inc(c)

        elif event == "admit":
            admit = reg.histogram("admit_bytes")
            admit_bytes = admit.observe

            def fold(record: dict) -> None:
                count()
                admit_bytes(record["size"])

            def fold_many(n: int, fields: dict) -> None:
                count(n)
                admit.observe_many(fields["size"])

        elif event == "evict":
            evict, tenures = reg.histogram("evict_bytes"), reg.histogram("evict_tenure_hits")
            evict_bytes, tenure = evict.observe, tenures.observe

            def fold(record: dict) -> None:
                count()
                evict_bytes(record["size"])
                tenure(record["hits"])

            def fold_many(n: int, fields: dict) -> None:
                count(n)
                evict.observe_many(fields["size"])
                tenures.observe_many(fields["hits"])

        else:

            def fold_many(n: int, fields: dict) -> None:
                count(n)

        if fold is None:
            # Counts and last values: a record is its own aggregate of one.
            fold = partial(fold_many, 1)
        return fold, fold_many


#: event → (counter name, the record field that labels it).
_LABELLED = {"ghost_hit": ("ghost_hits", "list"), "episode_transition": ("episodes", "to")}


class SnapshotEmitter:
    """Periodic registry snapshots keyed to the policy's request clock.

    Watches the ``t`` field of passing events; whenever ``t`` crosses the
    next ``every``-requests boundary the current registry snapshot is
    recorded (and forwarded to ``forward`` — typically the JSONL sink — as
    a ``snapshot`` event).  Multiple crossed boundaries collapse into one
    snapshot: with event gaps longer than ``every`` there is nothing new to
    say in between.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        every: int,
        forward=None,
    ):
        if every < 1:
            raise ValueError(f"snapshot interval must be >= 1, got {every}")
        self.registry = registry
        self.every = every
        self.forward = forward
        self.snapshots: List[dict] = []
        self._next = every

    def write(self, record: dict) -> None:
        t = record.get("t")
        if t is None or t < self._next:
            return
        snap = {"event": "snapshot", "t": t, "registry": self.registry.snapshot()}
        self.snapshots.append(snap)
        if self.forward is not None:
            self.forward.write(snap)
        while self._next <= t:
            self._next += self.every
