"""Request-scoped span tracing: per-stage latency attribution for serving.

One end-to-end latency histogram cannot say *where* a p99 went — shard
queueing, the origin fetch, a retry storm, or a failover hop.  Spans can: a
:class:`Tracer` hands the load generator a root :class:`Span` per request,
the serve/cluster layers attach children for every stage they own
(``queue_wait``, ``policy``, ``flight_wait``, ``origin_fetch`` with
per-attempt ``origin_attempt``/``retry_backoff`` children, ``node_serve``,
``failover_hop``, ``replica_fill``, ``policy_swap``, ``warm_handoff``), and
when the root ends the finished trace is folded into per-stage histograms,
critical-path attribution, and SLO error budgets.

Design constraints, in order:

* **Explicit propagation, no global state.**  A span travels as an ordinary
  function argument (``service.get(req, span)``); code that receives
  ``None`` does no tracing work beyond one ``is not None`` branch.  There is
  no context-var, thread-local, or ambient "current span" — the asyncio
  serve path interleaves hundreds of requests on one loop, where ambient
  context is exactly what lies.
* **Cheap spans.** ``__slots__``, two ``perf_counter_ns()`` calls, no
  dict allocation until tags are attached.
* **Sampling that never loses the interesting traces.**  Head-based
  probabilistic sampling (seeded, deterministic per trace index) decides
  what is *written*; tail-keep overrides it for traces that error, shed,
  fail over, or exceed a latency threshold.  Aggregation (histograms, SLO
  accounting) always sees **every** finished trace regardless of sampling —
  sampling only gates the span stream on disk.

Span records on disk carry ``kind: "span"`` rather than an ``event`` field:
the span stream is a different artifact from the probe event stream (see
``docs/obs_schema.md``) and must not alias its namespace.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.sinks import SPAN_SCHEMA, SpanSink

__all__ = [
    "SPAN_SCHEMA",
    "Span",
    "SpanSink",
    "TraceConfig",
    "Tracer",
    "SLO",
    "SLOTracker",
    "critical_path",
]


class Span:
    """One timed stage of one request; a node in a trace tree.

    Created via :meth:`Tracer.start_trace` (roots) or :meth:`Span.child`;
    closed exactly once with :meth:`end`.  Timestamps are
    ``time.perf_counter_ns()`` — monotonic, comparable only within a
    process, which is all a single-process simulation needs.
    """

    __slots__ = (
        "_tracer",
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "t_start_ns",
        "t_end_ns",
        "tags",
        "status",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        tags: Optional[dict] = None,
    ):
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.t_start_ns = time.perf_counter_ns()
        self.t_end_ns: Optional[int] = None
        self.tags = tags
        self.status = "ok"

    def child(self, name: str, **tags) -> "Span":
        """Open a child span; the caller owns ending it."""
        return self._tracer._start_span(
            self.trace_id, self.span_id, name, tags or None
        )

    def annotate(self, **tags) -> None:
        """Attach tags without closing the span."""
        if self.tags is None:
            self.tags = tags
        else:
            self.tags.update(tags)

    def end(self, status: str = "ok", **tags) -> None:
        """Close the span (idempotent; the first ``end`` wins)."""
        if self.t_end_ns is not None:
            return
        self.t_end_ns = time.perf_counter_ns()
        self.status = status
        if tags:
            self.annotate(**tags)
        self._tracer._end_span(self)

    @property
    def duration_ns(self) -> int:
        end = self.t_end_ns if self.t_end_ns is not None else time.perf_counter_ns()
        return end - self.t_start_ns

    def as_record(self) -> dict:
        """Render as one span-stream JSONL record."""
        rec = {
            "kind": "span",
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_ns": self.t_start_ns,
            "end_ns": self.t_end_ns,
            "dur_us": round((self.t_end_ns - self.t_start_ns) / 1000.0, 3)
            if self.t_end_ns is not None
            else None,
            "status": self.status,
        }
        if self.tags:
            rec["tags"] = self.tags
        return rec


@dataclass(frozen=True)
class TraceConfig:
    """Sampling and retention policy for a :class:`Tracer`.

    ``sample`` is the head-sampling probability in [0, 1]: decided once per
    trace at ``start_trace`` with a seeded RNG, so runs are reproducible.
    ``tail_keep`` additionally retains any trace that ends abnormally (a
    span with status other than ``"ok"``), touches a failover
    (``failover_hop`` span), or whose root exceeds ``tail_latency_us``.
    """

    sample: float = 1.0
    tail_latency_us: Optional[float] = None
    tail_keep: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1], got {self.sample}")
        if self.tail_latency_us is not None and self.tail_latency_us <= 0:
            raise ValueError(
                f"tail_latency_us must be > 0, got {self.tail_latency_us}"
            )


class _TraceBuf:
    """Per-trace accumulation: finished records + still-open spans."""

    __slots__ = ("records", "open", "sampled", "root_done")

    def __init__(self, sampled: bool):
        self.records: List[dict] = []
        self.open: Dict[int, Span] = {}
        self.sampled = sampled
        self.root_done = False


class Tracer:
    """Factory and collector for spans; owns sampling and aggregation.

    Spans buffer in memory per trace until the root ends and no children
    remain open; the finished trace is then (a) folded into per-stage
    ``span_duration_us{stage=}`` / ``stage_critical_us{stage=}`` histograms
    on ``registry`` and the optional :class:`SLOTracker` — always — and
    (b) written to the sinks iff head-sampled or tail-kept.

    ``close()`` force-ends anything still open with status ``"unclosed"``
    and flushes those traces as anomalous (tail-kept), so a replay that
    raises mid-trace still leaves a complete, readable span stream.
    """

    def __init__(
        self,
        sinks: Sequence = (),
        config: Optional[TraceConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        slo: Optional["SLOTracker"] = None,
    ):
        self.sinks = list(sinks)
        self.config = config if config is not None else TraceConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.slo = slo
        self._rng = random.Random(self.config.seed)
        self._next_trace = 0
        self._next_span = 0
        self._bufs: Dict[int, _TraceBuf] = {}
        # Exact per-stage aggregates (count, total_ns) — histogram p50/p99
        # are bucket estimates, the bench doc wants exact means too.
        self._stage_ns: Dict[str, List[int]] = {}
        self._crit_ns: Dict[str, List[int]] = {}
        # Registry handles are stable get-or-create objects; cache them per
        # stage so the per-span hot path skips the label-key lookup.
        self._dur_hist: Dict[str, Histogram] = {}
        self._crit_hist: Dict[str, Histogram] = {}
        self.traces_started = 0
        self.traces_finished = 0
        self.traces_kept = 0
        self.traces_dropped = 0
        self.spans_written = 0
        self.orphan_spans = 0
        self.unclosed_spans = 0

    # -- span lifecycle ----------------------------------------------------

    def start_trace(self, name: str = "request", **tags) -> Span:
        """Open a new trace and return its root span."""
        trace_id = self._next_trace
        self._next_trace += 1
        self.traces_started += 1
        sampled = (
            self.config.sample >= 1.0
            or self._rng.random() < self.config.sample
        )
        self._bufs[trace_id] = _TraceBuf(sampled)
        return self._start_span(trace_id, None, name, tags or None)

    def _start_span(
        self,
        trace_id: int,
        parent_id: Optional[int],
        name: str,
        tags: Optional[dict],
    ) -> Span:
        span_id = self._next_span
        self._next_span += 1
        span = Span(self, trace_id, span_id, parent_id, name, tags)
        buf = self._bufs.get(trace_id)
        if buf is not None:
            buf.open[span_id] = span
        return span

    def _end_span(self, span: Span) -> None:
        buf = self._bufs.get(span.trace_id)
        if buf is None:
            # Ended after its trace was finalised — a topology bug upstream
            # (e.g. a child outliving the code that ended the root).
            self.orphan_spans += 1
            return
        buf.open.pop(span.span_id, None)
        buf.records.append(span.as_record())
        if span.parent_id is None:
            buf.root_done = True
        if buf.root_done and not buf.open:
            del self._bufs[span.trace_id]
            self._finish(buf)

    # -- trace finalisation ------------------------------------------------

    def _finish(self, buf: _TraceBuf, forced: bool = False) -> None:
        self.traces_finished += 1
        records = buf.records
        # Aggregation sees every finished trace, sampled or not.
        reg = self.registry
        abnormal = forced
        root = None
        for rec in records:
            name = rec["name"]
            dur_ns = rec["end_ns"] - rec["start_ns"]
            hist = self._dur_hist.get(name)
            if hist is None:
                hist = self._dur_hist[name] = reg.histogram(
                    "span_duration_us", stage=name
                )
            hist.observe(dur_ns // 1000)
            agg = self._stage_ns.get(name)
            if agg is None:
                agg = self._stage_ns[name] = [0, 0]
            agg[0] += 1
            agg[1] += dur_ns
            if rec["status"] != "ok":
                abnormal = True
            if name == "failover_hop":
                abnormal = True
            if rec["parent"] is None:
                root = rec
        for stage, seg_ns in critical_path(records):
            hist = self._crit_hist.get(stage)
            if hist is None:
                hist = self._crit_hist[stage] = reg.histogram(
                    "stage_critical_us", stage=stage
                )
            hist.observe(seg_ns // 1000)
            agg = self._crit_ns.get(stage)
            if agg is None:
                agg = self._crit_ns[stage] = [0, 0]
            agg[0] += 1
            agg[1] += seg_ns
        if self.slo is not None:
            for rec in records:
                self.slo.observe(
                    rec["name"],
                    (rec["end_ns"] - rec["start_ns"]) / 1000.0,
                    ok=rec["status"] == "ok",
                )
        # Retention: head sample, overridden by tail-keep.
        keep = buf.sampled
        if not keep and self.config.tail_keep:
            if abnormal:
                keep = True
            elif (
                self.config.tail_latency_us is not None
                and root is not None
                and root["end_ns"] - root["start_ns"]
                >= self.config.tail_latency_us * 1000.0
            ):
                keep = True
        if keep and self.sinks:
            for rec in records:
                for sink in self.sinks:
                    sink.write(rec)
            self.spans_written += len(records)
        if keep:
            self.traces_kept += 1
        else:
            self.traces_dropped += 1

    def close(self) -> None:
        """Force-end open spans, flush buffered traces, close owned sinks."""
        for trace_id in list(self._bufs):
            buf = self._bufs.pop(trace_id)
            for span in list(buf.open.values()):
                span.t_end_ns = time.perf_counter_ns()
                span.status = "unclosed"
                buf.records.append(span.as_record())
                self.unclosed_spans += 1
            buf.open.clear()
            self._finish(buf, forced=True)
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict:
        return {
            "traces_started": self.traces_started,
            "traces_finished": self.traces_finished,
            "traces_kept": self.traces_kept,
            "traces_dropped": self.traces_dropped,
            "spans_written": self.spans_written,
            "orphan_spans": self.orphan_spans,
            "unclosed_spans": self.unclosed_spans,
            "open_traces": len(self._bufs),
            "sample": self.config.sample,
            "tail_latency_us": self.config.tail_latency_us,
            "tail_keep": self.config.tail_keep,
        }

    def stage_breakdown(self) -> dict:
        """Per-stage durations + critical-path attribution, all traces.

        ``{stage: {count, total_us, mean_us, p50_us, p99_us,
        critical_count, critical_total_us}}`` — ``critical_total_us`` is the
        wall time this stage contributed to root latency after subtracting
        child stages (see :func:`critical_path`), so the critical columns
        sum to total root latency across traces.  The two totals are sums
        of integer nanoseconds, left unrounded so they reconcile exactly;
        renderers round for display.
        """
        out: dict = {}
        for stage, (count, total_ns) in sorted(self._stage_ns.items()):
            hist: Histogram = self.registry.histogram(
                "span_duration_us", stage=stage
            )
            crit = self._crit_ns.get(stage, (0, 0))
            out[stage] = {
                "count": count,
                "total_us": total_ns / 1000.0,
                "mean_us": round(total_ns / count / 1000.0, 2) if count else 0.0,
                "p50_us": hist.quantile(0.5),
                "p99_us": hist.quantile(0.99),
                "critical_count": crit[0],
                "critical_total_us": crit[1] / 1000.0,
            }
        return out


def critical_path(
    records: Iterable[dict],
) -> List[Tuple[str, int]]:
    """Attribute a finished trace's root duration to stages, exactly.

    Returns ``[(stage, ns)]`` segments: for every span, the parts of its
    interval not covered by a child (its *self time*) are credited to its
    stage, recursing down the tree — a sweep over children sorted by start,
    clipped to the parent.  By construction the segment durations sum to
    the root span's duration, so per-stage critical totals reconcile with
    the end-to-end latency histogram.  Overlapping siblings (concurrent
    children) are clipped against each other in start order; time covered
    by two children is credited to the first.
    """
    by_parent: Dict[int, List[dict]] = {}
    root = None
    for rec in records:
        if rec.get("kind", "span") != "span" or rec.get("end_ns") is None:
            continue
        parent = rec["parent"]
        if parent is None:
            root = rec
        else:
            by_parent.setdefault(parent, []).append(rec)
    if root is None:
        return []
    segments: List[Tuple[str, int]] = []

    def walk(rec: dict, lo: int, hi: int) -> None:
        children = sorted(
            by_parent.get(rec["span"], ()), key=lambda c: c["start_ns"]
        )
        cursor = lo
        for child in children:
            c_lo = max(child["start_ns"], cursor)
            c_hi = min(child["end_ns"], hi)
            if c_hi <= cursor:
                continue
            if c_lo > cursor:
                segments.append((rec["name"], c_lo - cursor))
            walk(child, c_lo, c_hi)
            cursor = c_hi
        if hi > cursor:
            segments.append((rec["name"], hi - cursor))

    walk(root, root["start_ns"], root["end_ns"])
    return segments


@dataclass(frozen=True)
class SLO:
    """One latency objective: ``target`` fraction of ``stage`` spans must
    finish OK within ``latency_us``."""

    stage: str
    latency_us: float
    target: float = 0.99

    def __post_init__(self) -> None:
        if self.latency_us <= 0:
            raise ValueError(f"latency_us must be > 0, got {self.latency_us}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {self.target}")


class SLOTracker:
    """Error-budget accounting over span stages.

    A span *breaches* its stage's SLO if it ended with a non-``ok`` status
    or ran longer than the objective.  The error budget is the tolerated
    breach fraction ``1 - target``; the burn rate is
    ``breach_fraction / (1 - target)`` — 1.0 means the budget is being
    consumed exactly as provisioned, above 1.0 it will be exhausted.
    Counters and burn-rate gauges land in ``registry`` so bench docs and
    snapshots carry them for free.
    """

    def __init__(
        self,
        objectives: Sequence[SLO],
        registry: Optional[MetricsRegistry] = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._slos: Dict[str, SLO] = {}
        for slo in objectives:
            if slo.stage in self._slos:
                raise ValueError(f"duplicate SLO for stage {slo.stage!r}")
            self._slos[slo.stage] = slo
        self._counts: Dict[str, List[int]] = {
            stage: [0, 0] for stage in self._slos
        }
        # Stages are fixed at construction: resolve the registry handles
        # once so per-span observation is a dict hit, not a label lookup.
        self._handles = {
            stage: (
                self.registry.counter("slo_total", stage=stage),
                self.registry.counter("slo_breaches", stage=stage),
                self.registry.gauge("slo_burn_rate", stage=stage),
            )
            for stage in self._slos
        }

    def observe(self, stage: str, dur_us: float, ok: bool = True) -> None:
        slo = self._slos.get(stage)
        if slo is None:
            return
        counts = self._counts[stage]
        counts[0] += 1
        breached = (not ok) or dur_us > slo.latency_us
        total_c, breach_c, burn_g = self._handles[stage]
        total_c.inc()
        if breached:
            counts[1] += 1
            breach_c.inc()
        burn_g.set(self._burn_rate(stage))

    def _burn_rate(self, stage: str) -> float:
        slo = self._slos[stage]
        total, breaches = self._counts[stage]
        if total == 0:
            return 0.0
        return (breaches / total) / (1.0 - slo.target)

    def summary(self) -> dict:
        """``{stage: {objective_us, target, total, breaches, breach_ratio,
        burn_rate, budget_remaining}}`` — ``budget_remaining`` < 0 means the
        stage has spent more than its error budget."""
        out: dict = {}
        for stage, slo in sorted(self._slos.items()):
            total, breaches = self._counts[stage]
            ratio = breaches / total if total else 0.0
            burn = self._burn_rate(stage)
            out[stage] = {
                "objective_us": slo.latency_us,
                "target": slo.target,
                "total": total,
                "breaches": breaches,
                "breach_ratio": round(ratio, 6),
                "burn_rate": round(burn, 4),
                "budget_remaining": round(1.0 - burn, 4),
            }
        return out
