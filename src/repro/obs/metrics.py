"""Metrics primitives: counters, gauges, log2 histograms, and a registry.

The registry is the shared vocabulary of the observability layer: every
subsystem that wants a number on a dashboard (the engine, the TDC monitor,
the bench harness) creates instruments through a :class:`MetricsRegistry`
and never touches serialisation itself — ``snapshot()`` renders the whole
registry as one plain dict, which the sinks (JSONL, ring buffer, snapshot
emitter) and the CLI all consume.

Instruments are deliberately minimal:

* :class:`Counter` — monotonically increasing count (events, bytes);
* :class:`Gauge` — last-written value (ω_m, λ, resident bytes);
* :class:`Histogram` — fixed log2 bucketing: bucket ``i`` holds values in
  ``[2^(i-1), 2^i)`` (bucket 0 is ``[0, 1)``), so object sizes spanning six
  orders of magnitude need ~40 integer slots, one ``bit_length`` call per
  observation, and no dynamic rebinning.  Quantiles are bucket-upper-bound
  estimates — exact enough for monitoring, never for billing.

Labels are supported registry-side: ``registry.counter("events",
event="evict")`` get-or-creates one instrument per (name, labels) pair.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Number of log2 buckets: covers [0, 2^63) — any int the simulator produces.
N_BUCKETS = 64

#: Integers below this are exact as floats, and so are their sums up to it.
_EXACT_FLOAT = float(1 << 53)


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        self.value += n

    def as_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def as_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed log2-bucket histogram.

    ``observe(v)`` files ``v`` under bucket ``int(v).bit_length()`` (clamped
    to the fixed bucket count), i.e. bucket ``i`` covers ``[2^(i-1), 2^i)``
    and bucket 0 covers ``[0, 1)``.  Negative values clamp to bucket 0.
    Count / sum / min / max are exact; quantiles come from the bucket upper
    bounds.
    """

    __slots__ = ("name", "labels", "buckets", "count", "sum", "min", "max")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.buckets = [0] * N_BUCKETS
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        idx = int(value).bit_length() if value > 0 else 0
        if idx >= N_BUCKETS:
            idx = N_BUCKETS - 1
        self.buckets[idx] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe_many(self, values: Sequence[int]) -> None:
        """Bulk :meth:`observe` of ints (sizes, hit tokens): state equal to
        one ``observe`` per value, for one sort and one bisect per
        populated bucket instead of a ``bit_length`` per value."""
        if not values:
            return
        ordered = sorted(values)
        lo, hi = ordered[0], ordered[-1]
        last = min(hi.bit_length(), N_BUCKETS - 1) if hi > 0 else 0
        below = 0
        for idx in range(lo.bit_length() if lo > 0 else 0, last):
            upto = bisect_left(ordered, 1 << idx, below)  # bucket idx ends before 2^idx
            self.buckets[idx] += upto - below
            below = upto
        self.buckets[last] += len(ordered) - below
        self.count += len(ordered)
        total = self.sum + sum(ordered)
        if lo >= 0 and 0.0 <= self.sum and self.sum.is_integer() and total < _EXACT_FLOAT:
            # Every partial sum is an integer in [0, 2^53): adding the values
            # one by one would round nowhere either.
            self.sum = total
        else:
            for v in values:
                self.sum += v
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-upper-bound estimate of the ``q``-quantile (0 < q <= 1)."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.buckets):
            seen += c
            if seen >= target:
                upper = float(1 << i) if i else 1.0
                # Clamp the estimate to the observed range.
                return min(upper, self.max if self.max is not None else upper)
        return self.max if self.max is not None else 0.0  # pragma: no cover

    def nonzero_buckets(self) -> Iterator[Tuple[int, int]]:
        """Yield (bucket_index, count) for populated buckets only."""
        for i, c in enumerate(self.buckets):
            if c:
                yield i, c

    def as_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "buckets": {str(i): c for i, c in self.nonzero_buckets()},
        }


def _label_key(labels: dict) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create instrument store with one-call serialisation."""

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, str, Tuple[Tuple[str, str], ...]], object] = {}

    def _get(self, kind: str, factory, name: str, labels: dict):
        key = (kind, name, _label_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = factory(name, key[2])
            self._instruments[key] = inst
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get("histogram", Histogram, name, labels)

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> dict:
        """Render every instrument as ``{name: {label_str: payload}}``.

        The label string is ``k=v,k=v`` (sorted) or ``""`` for unlabelled
        instruments; the payload is the instrument's ``as_dict()``.
        """
        out: dict = {}
        for (_, name, labels), inst in sorted(
            self._instruments.items(), key=lambda kv: (kv[0][1], kv[0][2])
        ):
            label_str = ",".join(f"{k}={v}" for k, v in labels)
            out.setdefault(name, {})[label_str] = inst.as_dict()  # type: ignore[attr-defined]
        return out

    def as_dict(self) -> dict:
        return self.snapshot()
