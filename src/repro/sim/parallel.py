"""Process-parallel experiment sweeps.

Experiment grids are embarrassingly parallel — each (policy, trace, size)
cell is an independent replay — so the full Figure 8/10 grids fan out over
a process pool (per the HPC guides: parallelise at the coarsest independent
granularity; each worker re-generates its trace from the spec rather than
pickling multi-MB request lists across processes).

Workers are specified declaratively — policy *name* + kwargs and workload
*name* + scale — so the task payload is a few strings, and determinism is
preserved exactly (same seeds as the serial path).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["default_worker_count", "run_grid_parallel", "mrc_sweep", "Cell", "MrcCell"]


def default_worker_count() -> int:
    """Affinity-aware usable-CPU count for pool sizing.

    ``os.cpu_count()`` reports the machine; a containerised or
    ``taskset``-restricted process may own far fewer cores, and
    oversubscribing a trace-replay pool just thrashes.  Preference order:
    ``os.process_cpu_count`` (3.13+), the scheduler affinity mask, then
    plain ``cpu_count`` — never less than 1.
    """
    getter = getattr(os, "process_cpu_count", None)
    if getter is not None:
        n = getter()
        if n:
            return n
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(len(os.sched_getaffinity(0)), 1)
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1

#: (policy_name, policy_kwargs, workload_name, n_requests, cache_fraction)
Cell = Tuple[str, dict, str, int, float]


def _run_cell(cell: Cell) -> dict:
    # Imports inside the worker: keeps the module importable without
    # multiprocessing side effects and plays nicely with spawn start.
    from repro.cache.registry import make_policy
    from repro.sim.engine import simulate
    from repro.traces.cdn import make_workload

    policy_name, kwargs, workload, n_requests, fraction = cell
    trace = make_workload(workload, n_requests=n_requests)
    cap = max(int(trace.working_set_size * fraction), 1)
    result = simulate(make_policy(policy_name, cap, **kwargs), trace)
    row = result.as_dict()
    row["policy"] = policy_name
    row["cache_fraction"] = fraction
    return row


def run_grid_parallel(
    policies: Mapping[str, dict] | Sequence[str],
    workloads: Sequence[str],
    n_requests: int,
    cache_fractions: Mapping[str, Sequence[float]] | Sequence[float],
    max_workers: Optional[int] = None,
) -> List[dict]:
    """Parallel analogue of :func:`repro.sim.runner.run_grid`.

    Parameters
    ----------
    policies:
        Policy names (from the registry, plus "SCIP"/"SCI"), optionally
        mapping to constructor kwargs.
    workloads:
        Workload names from :data:`repro.traces.cdn.WORKLOADS`.
    n_requests:
        Trace length (each worker regenerates its trace deterministically).
    cache_fractions:
        Flat fractions or per-workload mapping.
    max_workers:
        Pool size; ``None`` uses :func:`default_worker_count` (affinity-
        aware, not raw ``os.cpu_count``), clamped to the cell count.  A
        one-cell grid (or ``max_workers=1``) runs in-process — no pool
        spawn, pickling, or fork overhead for what is a serial job anyway.
    """
    if not isinstance(policies, Mapping):
        policies = {name: {} for name in policies}
    cells: List[Cell] = []
    for workload in workloads:
        fractions = (
            cache_fractions[workload]
            if isinstance(cache_fractions, Mapping)
            else cache_fractions
        )
        for fraction in fractions:
            for name, kwargs in policies.items():
                cells.append((name, dict(kwargs), workload, n_requests, fraction))
    if max_workers is None:
        max_workers = default_worker_count()
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    max_workers = min(max_workers, max(len(cells), 1))
    if max_workers == 1 or len(cells) <= 1:
        return [_run_cell(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(_run_cell, cells))


#: (bin_path, policy_name, cache_bytes, chunk_size)
MrcCell = Tuple[str, str, int, int]


def _run_mrc_cell(cell: MrcCell) -> dict:
    from repro.sim.batch import batch_replay

    path, policy, cache_bytes, chunk_size = cell
    core = batch_replay(policy, path, cache_bytes, chunk_size=chunk_size)
    st = core.stats
    classified = st.hits + st.misses
    return {
        "policy": policy,
        "cache_bytes": cache_bytes,
        "miss_ratio": st.misses / classified if classified else 0.0,
        "byte_miss_ratio": (
            st.bytes_missed / (st.bytes_hit + st.bytes_missed)
            if st.bytes_hit + st.bytes_missed
            else 0.0
        ),
        "hits": st.hits,
        "misses": st.misses,
        "bypasses": st.bypasses,
        "evictions": st.evictions,
        "spilled": getattr(core, "spilled", False),
    }


def mrc_sweep(
    path,
    policy: str = "LRU",
    fractions: Sequence[float] = (0.005, 0.01, 0.05, 0.1),
    cache_sizes: Optional[Sequence[int]] = None,
    chunk_size: int = 1 << 20,
    max_workers: Optional[int] = None,
) -> List[dict]:
    """Trace-parallel miss-ratio curve over one binary trace file.

    Each cache size is an independent :func:`~repro.sim.batch.batch_replay`
    (any registry policy it accepts), so the sweep fans the *same* ``.bin``
    file out over a process pool — workers mmap it independently and share
    its pages through the OS cache, so a paper-scale trace is read from
    disk once, not once per point.

    ``fractions`` are of the header's working-set estimate (the Figure 1
    x-axis); pass explicit ``cache_sizes`` (bytes) to bypass the estimate.
    Rows come back sorted by ``cache_bytes``, each tagged with
    ``cache_fraction`` when derived from a fraction.
    """
    from repro.sim.batch import _resolve
    from repro.traces.binfmt import BinTraceReader

    _resolve(policy, 1)  # an unknown name or an oracle fails here, once, not in every worker
    path = str(path)
    if cache_sizes is None:
        with BinTraceReader(path) as reader:
            wss = reader.wss_estimate
        sizes = [max(int(wss * f), 1) for f in fractions]
        frac_of = dict(zip(sizes, fractions))
    else:
        sizes = [int(c) for c in cache_sizes]
        if any(c < 1 for c in sizes):
            raise ValueError(f"cache_sizes must be >= 1, got {cache_sizes}")
        frac_of = {}
    cells: List[MrcCell] = [(path, policy, c, chunk_size) for c in sizes]
    if max_workers is None:
        max_workers = default_worker_count()
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    max_workers = min(max_workers, max(len(cells), 1))
    if max_workers == 1 or len(cells) <= 1:
        rows = [_run_mrc_cell(cell) for cell in cells]
    else:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            rows = list(pool.map(_run_mrc_cell, cells))
    for row in rows:
        if row["cache_bytes"] in frac_of:
            row["cache_fraction"] = frac_of[row["cache_bytes"]]
    rows.sort(key=lambda r: r["cache_bytes"])
    return rows
