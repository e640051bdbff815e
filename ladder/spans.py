"""Spans recorded from outside the program, and the proxies that record them.

A span is the tuple ``(name, start_ns, end_ns, parent, request_id)``; the
name's prefix is the layer (``serve.get`` belongs to ``serve``), ``parent``
is the name of the span that caused it (``None`` for a request's root) and
``request_id`` is the request's position in the trace (``Request.time``),
shared by all spans of one request.  Spans stay in memory until the run
ends.  ``repro.obs.span.Tracer`` — the program's own tracer — stays off.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, Sequence, Tuple

__all__ = ["SpanLog", "layer_summary", "traced_policy_factory", "trace_origin", "trace_call"]


class SpanLog:
    def __init__(self) -> None:
        self.rows: list = []
        self.add = self.rows.append

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rid in self.rows:
                par = "null" if parent is None else f'"{parent}"'
                fh.write(
                    f'{{"name": "{name}", "start_ns": {start}, "end_ns": {end}, '
                    f'"parent": {par}, "request_id": {rid}}}\n'
                )

    def self_times(self) -> Tuple[Dict[str, int], Dict[str, int], int]:
        """``(self_ns by span name, span_ns by span name, root_ns)``.

        A span's self time is its duration minus the durations of the spans
        of the same request that name it as parent, floored at zero.
        """
        children: Dict[tuple, int] = defaultdict(int)
        for name, start, end, parent, rid in self.rows:
            if parent is not None:
                children[(parent, rid)] += end - start
        self_ns: Dict[str, int] = defaultdict(int)
        span_ns: Dict[str, int] = defaultdict(int)
        root_ns = 0
        for name, start, end, parent, rid in self.rows:
            dur = end - start
            span_ns[name] += dur
            self_ns[name] += max(dur - children.get((name, rid), 0), 0)
            if parent is None:
                root_ns += dur
        return dict(self_ns), dict(span_ns), root_ns


def layer_summary(log: SpanLog, layer: str, traced_s: float, untraced_s: float) -> Dict[str, float]:
    """The three ``trace.*`` metrics every traced run reports: what the
    tracing cost, whether the self times account for the root spans, and
    the share of the layer the workload is named for."""
    self_ns, _, root_ns = log.self_times()
    named = sum(ns for name, ns in self_ns.items() if name.split(".")[0] == layer)
    return {
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.self_sum_ratio": sum(self_ns.values()) / root_ns,
        "trace.dominant_share": named / root_ns,
    }


def traced_policy_factory(
    factory: Callable, log: SpanLog, parent: str, current_request: Sequence[int] = (-1,)
) -> Callable:
    """Wrap a policy factory so each instance's ``request`` and ``contains``
    record ``cache.*`` spans under ``parent`` (instance attributes shadow the
    methods; every other attribute is the real policy's).

    ``contains`` gets a key, not a request: a caller that wants its spans
    attributed passes a one-element list and stores the request id there
    before it calls into the layer above the policy.
    """

    def make(capacity, **kwargs):
        policy = factory(capacity, **kwargs)
        add = log.add
        inner_request, inner_contains = policy.request, policy.contains

        def request(req):
            t = perf_counter_ns()
            hit = inner_request(req)
            add(("cache.request", t, perf_counter_ns(), parent, req.time))
            return hit

        def contains(key):
            t = perf_counter_ns()
            found = inner_contains(key)
            add(("cache.contains", t, perf_counter_ns(), parent, current_request[0]))
            return found

        policy.request = request
        policy.contains = contains
        return policy

    return make


def trace_origin(origin, log: SpanLog, parent: str) -> Callable:
    """Shadow ``origin.fetch`` with a version that records
    ``serve.origin_fetch`` spans, and return the driver's ``on_send(req)``
    hook.  A fetch gets a key, not a request: it belongs to the request
    that had last asked for the key when it started (the single-flight
    leader), which the hook keeps track of."""
    inner = origin.fetch
    add = log.add
    request_of_key: dict = {}

    def on_send(req) -> None:
        request_of_key[req.key] = req.time

    async def fetch(key, size):
        rid = request_of_key.get(key, -1)
        t = perf_counter_ns()
        try:
            return await inner(key, size)
        finally:
            add(("serve.origin_fetch", t, perf_counter_ns(), parent, rid))

    origin.fetch = fetch
    return on_send


def trace_call(inner: Callable, name: str, log: SpanLog, parent) -> Callable:
    """An ``async def get(req)`` that records one span around ``inner``."""
    add = log.add

    async def get(req, span=None):
        t = perf_counter_ns()
        out = await inner(req, span)
        add((name, t, perf_counter_ns(), parent, req.time))
        return out

    return get
