"""Simulation metrics: aggregate and interval-resolved hit/miss accounting.

The engine owns these counters (policies keep their own, but experiment
results always come from the engine so a buggy policy cannot misreport).
Interval series feed the TDC monitoring plots (Figure 6) and the adaptive
components' diagnostics.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = ["MetricsCollector", "IntervalPoint", "stats_mark"]


def stats_mark(stats) -> tuple:
    """The four :class:`~repro.cache.base.CacheStats` counters the
    aggregates are deltas of, as taken at the warm-up boundary."""
    return (stats.hits, stats.misses, stats.bytes_hit, stats.bytes_missed)


class IntervalPoint:
    """One interval of the time-resolved series."""

    __slots__ = ("start", "end", "requests", "hits", "bytes_requested", "bytes_missed")

    def __init__(self, start: int):
        self.start = start
        self.end = start
        self.requests = 0
        self.hits = 0
        self.bytes_requested = 0
        self.bytes_missed = 0

    @property
    def miss_ratio(self) -> float:
        return 1.0 - self.hits / self.requests if self.requests else 0.0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def byte_miss_ratio(self) -> float:
        return self.bytes_missed / self.bytes_requested if self.bytes_requested else 0.0

    def as_dict(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "requests": self.requests,
            "miss_ratio": self.miss_ratio,
            "byte_miss_ratio": self.byte_miss_ratio,
        }


class MetricsCollector:
    """Aggregate + per-interval metrics with an optional warm-up cutoff.

    Parameters
    ----------
    warmup:
        Requests ignored by the *aggregate* counters (the interval series
        still records them, flagged by position).  The paper's simulator
        starts from an empty cache; a warm-up window avoids crediting
        compulsory-miss noise to the policies.
    interval:
        Requests per interval point (0 disables the series).
    """

    def __init__(self, warmup: int = 0, interval: int = 0):
        if warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup}")
        self.warmup = warmup
        self.interval = interval
        self.requests = 0
        self.hits = 0
        self.misses = 0
        self.bytes_requested = 0
        self.bytes_missed = 0
        self._seen = 0
        self.series: List[IntervalPoint] = []
        self._current: Optional[IntervalPoint] = None

    @classmethod
    def from_stats(cls, stats, since: tuple, seen: int, warmup: int = 0) -> "MetricsCollector":
        """The collector a bulk replay of ``seen`` requests would have filled.

        Bulk loops have no per-request callback; the policy's own counters
        are the record.  ``stats`` is their state at the end of the run and
        ``since`` their :func:`stats_mark` at the warm-up boundary, so the
        aggregates cover exactly the post-warm-up requests — the contract
        of :meth:`record` with ``warmup`` set.
        """
        metrics = cls(warmup=warmup)
        metrics._seen = seen
        metrics.hits, metrics.misses, bytes_hit, metrics.bytes_missed = (
            now - then for now, then in zip(stats_mark(stats), since)
        )
        metrics.requests = metrics.hits + metrics.misses
        metrics.bytes_requested = bytes_hit + metrics.bytes_missed
        return metrics

    def record(self, size: int, hit: bool) -> None:
        """Record one request outcome."""
        self._seen += 1
        if self.interval > 0:
            if self._current is None:
                self._current = IntervalPoint(self._seen - 1)
            cur = self._current
            cur.end = self._seen
            cur.requests += 1
            cur.bytes_requested += size
            if hit:
                cur.hits += 1
            else:
                cur.bytes_missed += size
            if cur.requests >= self.interval:
                self.series.append(cur)
                self._current = None
        if self._seen <= self.warmup:
            return
        self.requests += 1
        self.bytes_requested += size
        if hit:
            self.hits += 1
        else:
            self.misses += 1
            self.bytes_missed += size

    def flush(self) -> None:
        """Close the trailing partial interval."""
        if self._current is not None and self._current.requests:
            self.series.append(self._current)
            self._current = None

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.requests if self.requests else 0.0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def byte_miss_ratio(self) -> float:
        return self.bytes_missed / self.bytes_requested if self.bytes_requested else 0.0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "miss_ratio": self.miss_ratio,
            "byte_miss_ratio": self.byte_miss_ratio,
            "warmup": self.warmup,
        }
