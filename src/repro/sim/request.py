"""Request and trace containers for trace-driven cache simulation.

A *trace* is an ordered sequence of :class:`Request` records, each carrying a
logical timestamp, an object key, and an object size in bytes.  This mirrors
the on-disk format used by the LRB simulator (``timestamp id size`` per line)
that the paper's evaluation is built on.

Traces can optionally be annotated with *next-access indices* (used by the
Belady oracle and by the ZRO/P-ZRO analyzers) via :func:`annotate_next_access`.
The annotation is computed in a single backwards pass, O(n) time and O(u)
extra space for ``u`` unique keys.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

import numpy as np

__all__ = ["Request", "Trace", "annotate_next_access", "NO_NEXT_ACCESS"]

#: Sentinel next-access index meaning "this key is never requested again".
NO_NEXT_ACCESS: int = 2**62


class Request:
    """A single cache request.

    Attributes
    ----------
    time:
        Logical timestamp (monotonically non-decreasing within a trace).
        In synthetic traces this is the request index; in TDC-style traces
        it may carry wall-clock seconds.
    key:
        Object identifier.  Any hashable; synthetic traces use ``int``.
    size:
        Object size in bytes (``>= 1``).
    next_access:
        Index into the trace of the *next* request for the same key, or
        :data:`NO_NEXT_ACCESS` if there is none.  Populated only after
        :func:`annotate_next_access`; oracle policies require it.
    tenant:
        Owning tenant id (``0`` for single-tenant traces).  The multi-tenant
        machinery (:mod:`repro.tenancy`) routes quota accounting by this
        field; policies that don't partition ignore it.  Deliberately not
        part of equality/hashing — a request is identified by
        (time, key, size) exactly as before tenancy existed.
    """

    __slots__ = ("time", "key", "size", "next_access", "tenant")

    def __init__(
        self,
        time: int,
        key: int,
        size: int,
        next_access: int = NO_NEXT_ACCESS,
        tenant: int = 0,
    ):
        if size < 1:
            raise ValueError(f"request size must be >= 1 byte, got {size}")
        self.time = time
        self.key = key
        self.size = size
        self.next_access = next_access
        self.tenant = tenant

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Request(time={self.time}, key={self.key!r}, size={self.size})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Request)
            and self.time == other.time
            and self.key == other.key
            and self.size == other.size
        )

    def __hash__(self) -> int:
        return hash((self.time, self.key, self.size))


class Trace:
    """An ordered, indexable sequence of requests plus summary statistics.

    The container is deliberately thin — the simulation engine iterates it
    once per run — but it caches aggregate statistics (working-set size,
    unique-object count) that experiments repeatedly need, so they are
    computed lazily and memoised.
    """

    def __init__(self, requests: Sequence[Request], name: str = "trace"):
        self._requests: List[Request] = list(requests)
        self.name = name
        self._wss: int | None = None
        self._unique: int | None = None
        self._annotated = False

    # -- sequence protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests)

    def __getitem__(self, idx: int) -> Request:
        return self._requests[idx]

    @property
    def requests(self) -> List[Request]:
        """The backing request list (the engine's bulk-replay loops iterate
        this directly rather than paying a generator per request).  Treat as
        read-only."""
        return self._requests

    # -- statistics --------------------------------------------------------
    def _scan(self) -> None:
        sizes: dict = {}
        for r in self._requests:
            sizes[r.key] = r.size
        self._unique = len(sizes)
        self._wss = sum(sizes.values())

    @property
    def working_set_size(self) -> int:
        """Total bytes of all unique objects (last-seen size per key)."""
        if self._wss is None:
            self._scan()
        assert self._wss is not None
        return self._wss

    @property
    def unique_objects(self) -> int:
        """Number of distinct keys in the trace."""
        if self._unique is None:
            self._scan()
        assert self._unique is not None
        return self._unique

    @property
    def total_bytes(self) -> int:
        """Sum of request sizes over the whole trace (requested traffic)."""
        return sum(r.size for r in self._requests)

    def size_stats(self) -> dict:
        """Min / max / mean object size over unique objects, in bytes (zeros
        for the empty trace)."""
        sizes: dict = {}
        for r in self._requests:
            sizes[r.key] = r.size
        if not sizes:
            return {"min": 0.0, "max": 0.0, "mean": 0.0}
        arr = np.fromiter(sizes.values(), dtype=np.float64)
        return {
            "min": float(arr.min()),
            "max": float(arr.max()),
            "mean": float(arr.mean()),
        }

    @property
    def annotated(self) -> bool:
        """Whether next-access indices have been populated."""
        return self._annotated

    def summary(self) -> dict:
        """Table-1-style summary of the trace."""
        s = self.size_stats()
        return {
            "name": self.name,
            "total_requests": len(self),
            "unique_objects": self.unique_objects,
            "max_object_size": s["max"],
            "min_object_size": s["min"],
            "mean_object_size": s["mean"],
            "working_set_size": self.working_set_size,
        }


def annotate_next_access(trace: Trace | Sequence[Request]) -> Trace:
    """Populate ``next_access`` on every request via one backwards pass.

    After this call, ``req.next_access`` is the trace index of the next
    request with the same key, or :data:`NO_NEXT_ACCESS`.  Returns the trace
    (converted to :class:`Trace` if a plain sequence was given) for chaining.
    """
    if not isinstance(trace, Trace):
        trace = Trace(trace)
    last_seen: dict = {}
    for idx in range(len(trace) - 1, -1, -1):
        req = trace[idx]
        req.next_access = last_seen.get(req.key, NO_NEXT_ACCESS)
        last_seen[req.key] = idx
    trace._annotated = True
    return trace


def requests_from_arrays(
    keys: Iterable[int], sizes: Iterable[int], times: Iterable[int] | None = None
) -> List[Request]:
    """Build a request list from parallel key/size (and optional time) arrays.

    Convenience used by the numpy-vectorised trace generators: the bulk of
    trace synthesis happens in numpy, and only the final materialisation
    allocates Python objects.
    """
    keys = list(keys)
    sizes = list(sizes)
    if times is None:
        times = range(len(keys))
    return [Request(int(t), int(k), int(s)) for t, k, s in zip(times, keys, sizes)]
