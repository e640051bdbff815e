"""Schema-drift guard: the probe-event namespace must stay closed.

Three sets must agree exactly:

* event names *emitted* anywhere in ``src/`` (literal ``probe.emit("...")``
  calls plus directly constructed ``{"event": "..."}`` records);
* the :data:`repro.obs.probe.PROBE_EVENTS` registry;
* the per-event documentation table in ``docs/obs_schema.md``.

A new event added in code without registry + docs (or a documented event
that no code can produce) fails here, naming the drifted event.  Span
records are exempt by design: they carry ``kind: "span"`` and no
``event`` field (asserted below), so the span stream cannot leak names
into this namespace.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.obs.probe import PROBE_EVENTS

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
DOCS = REPO / "docs" / "obs_schema.md"

#: The schema header pseudo-event is infrastructure, not a probe event.
_EXEMPT = {"schema"}


def emitted_event_names() -> set:
    """Every event-name literal the source tree can emit."""
    names = set()
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        # probe.emit("name", ...), or a bound emit held in a local —
        # possibly split across lines.
        names.update(re.findall(r'emit\(\s*"([a-z_]+)"', text))
        # Directly constructed records ({"event": "snapshot", ...}, headers).
        names.update(re.findall(r'"event":\s*"([a-z_]+)"', text))
    return names - _EXEMPT


def documented_event_names() -> set:
    """Backticked event names from the docs' per-event table only."""
    text = DOCS.read_text()
    start = text.index("### Per-event fields")
    section = text[start:]
    end = re.search(r"\n## ", section)
    if end:
        section = section[: end.start()]
    names = set()
    for line in section.splitlines():
        m = re.match(r"\|\s*`([a-z_]+)`", line)
        if m:
            names.add(m.group(1))
    return names


class TestSchemaDrift:
    def test_emitted_equals_registry(self):
        emitted = emitted_event_names()
        assert emitted - PROBE_EVENTS == set(), (
            f"events emitted in src/ but missing from PROBE_EVENTS: "
            f"{sorted(emitted - PROBE_EVENTS)}"
        )
        assert PROBE_EVENTS - emitted == set(), (
            f"PROBE_EVENTS entries nothing in src/ can emit: "
            f"{sorted(PROBE_EVENTS - emitted)}"
        )

    def test_registry_equals_docs(self):
        documented = documented_event_names()
        assert documented, "per-event table not found in docs/obs_schema.md"
        assert documented - PROBE_EVENTS == set(), (
            f"documented but unregistered events: "
            f"{sorted(documented - PROBE_EVENTS)}"
        )
        assert PROBE_EVENTS - documented == set(), (
            f"registered but undocumented events: "
            f"{sorted(PROBE_EVENTS - documented)}"
        )

    def test_span_records_do_not_alias_the_event_namespace(self):
        from repro.obs.span import Tracer

        tracer = Tracer()
        root = tracer.start_trace("request")
        child = root.child("queue_wait")
        child.end()
        root.end()
        for span in (root, child):
            rec = span.as_record()
            assert rec["kind"] == "span"
            assert "event" not in rec

    def test_span_stage_names_are_not_probe_events(self):
        # Stage vocabulary lives outside PROBE_EVENTS except where a stage
        # deliberately mirrors an event-producing action (documented pairs).
        stages = {
            "request",
            "queue_wait",
            "policy",
            "flight_wait",
            "origin_fetch",
            "origin_attempt",
            "retry_backoff",
            "node_serve",
            "failover_hop",
            "replica_fill",
            "warm_handoff",
            "origin_direct",
            "net_hop",
            "tier_lookup",
            "placement",
        }
        assert stages & PROBE_EVENTS == set()
