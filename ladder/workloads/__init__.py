"""The seven workloads, by name.

Each is an object with

* ``sizes(seconds, smoke)`` — the input sizes, recorded in the manifest;
* ``setup(seed, sizes, tmp)`` — generate the inputs from the seed (timed by
  the caller as part of ``setup_s``);
* ``measure(state, seconds)`` — the untraced timed run, a
  :class:`ladder.harness.Measured`;
* ``trace(state, log)`` — the traced run: fills the
  :class:`ladder.spans.SpanLog` and returns ``(the per-layer metrics
  measured on this workload, the traced pass's cost, the same pass's cost
  untraced)``.
"""

from __future__ import annotations

from ladder.workloads.cluster import ClusterR2
from ladder.workloads.net import NetTree
from ladder.workloads.replay import ReplayLruStream, ReplayObs, ReplayScip
from ladder.workloads.serve import ServeClosed, ServePaced

REGISTRY = {
    w.name: w
    for w in (
        ReplayScip(),
        ReplayLruStream(),
        ReplayObs(),
        ServeClosed(),
        ServePaced(),
        ClusterR2(),
        NetTree(),
    )
}
