"""Metrics primitives: counters, gauges, log2 histograms, registry."""

from __future__ import annotations

import pytest

from repro.obs.metrics import N_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_monotonic(self):
        c = Counter("events")
        c.inc()
        c.inc(5)
        assert c.value == 6
        assert c.as_dict() == {"type": "counter", "value": 6}

    def test_negative_increment_rejected(self):
        c = Counter("events")
        with pytest.raises(ValueError):
            c.inc(-1)


class TestGauge:
    def test_set_and_inc(self):
        g = Gauge("lambda")
        g.set(0.25)
        assert g.value == 0.25
        g.inc(0.5)
        assert g.value == 0.75
        assert g.as_dict()["type"] == "gauge"


class TestHistogram:
    def test_log2_bucketing_edges(self):
        """Bucket i covers [2^(i-1), 2^i); bucket 0 covers [0, 1)."""
        h = Histogram("sizes")
        for v in (0, 0.5, 1, 2, 3, 4, 1023, 1024):
            h.observe(v)
        buckets = dict(h.nonzero_buckets())
        assert buckets[0] == 2        # 0, 0.5
        assert buckets[1] == 1        # 1
        assert buckets[2] == 2        # 2, 3
        assert buckets[3] == 1        # 4
        assert buckets[10] == 1       # 1023 ∈ [512, 1024)
        assert buckets[11] == 1       # 1024 ∈ [1024, 2048)

    def test_negative_clamps_to_bucket_zero(self):
        h = Histogram("x")
        h.observe(-5.0)
        assert dict(h.nonzero_buckets()) == {0: 1}
        assert h.min == -5.0

    def test_huge_value_clamps_to_last_bucket(self):
        h = Histogram("x")
        h.observe(float(1 << 100))
        assert dict(h.nonzero_buckets()) == {N_BUCKETS - 1: 1}

    def test_exact_aggregates(self):
        h = Histogram("x")
        for v in (1, 2, 3):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 6
        assert h.mean == 2.0
        assert h.min == 1
        assert h.max == 3

    def test_quantile_upper_bound_estimate(self):
        h = Histogram("x")
        for _ in range(99):
            h.observe(10)     # bucket 4: [8, 16)
        h.observe(1000)       # bucket 10
        assert h.quantile(0.5) == 16.0
        # p100 lands in the top bucket, clamped to the observed max.
        assert h.quantile(1.0) == 1000

    def test_quantile_empty_and_domain(self):
        h = Histogram("x")
        assert h.quantile(0.99) == 0.0
        with pytest.raises(ValueError):
            h.quantile(0.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantile_clamped_to_observed_max(self):
        h = Histogram("x")
        h.observe(9)  # bucket upper bound is 16, but max seen is 9
        assert h.quantile(0.99) == 9


class TestHistogramObserveMany:
    """``observe_many`` is ``observe`` in bulk: the whole state, ``sum``'s
    float included, equals one ``observe`` per value."""

    @staticmethod
    def _state(h: Histogram):
        return h.buckets, h.count, repr(h.sum), h.min, h.max

    @pytest.mark.parametrize(
        "before, batch",
        [
            ([], [0, 1, 2, 3, 4, 1023, 1024, 0, 7]),
            ([], [5, -3, 0, -1, 12]),                      # negatives file under bucket 0
            ([], [1 << 63, (1 << 63) + 1500, 1500, 3, 1 << 80]),  # clamped; the sum rounds
            ([], [(1 << 53) - 2, 1, 1, 1, 1]),             # the sum leaves the exact range
            ([9, 100_000], [4, 4, 70_000, 1]),             # merged into a non-empty histogram
            ([-2], [1, 2]),
            ([0.5], [1, 2]),                               # a fractional sum so far
        ],
    )
    def test_equals_repeated_observe(self, before, batch):
        one_by_one, bulk = Histogram("x"), Histogram("x")
        for v in before:
            one_by_one.observe(v)
            bulk.observe(v)
        for v in batch:
            one_by_one.observe(v)
        bulk.observe_many(batch)
        assert self._state(bulk) == self._state(one_by_one)
        assert bulk.as_dict() == one_by_one.as_dict()

    def test_empty_batch_is_a_no_op(self):
        h = Histogram("x")
        h.observe_many([])
        assert h.count == 0 and h.min is None and h.max is None
        assert h.as_dict() == Histogram("x").as_dict()


class TestRegistry:
    def test_get_or_create_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("events", event="evict")
        b = reg.counter("events", event="evict")
        c = reg.counter("events", event="admit")
        assert a is b
        assert a is not c
        assert len(reg) == 2

    def test_same_name_different_kind_coexists(self):
        reg = MetricsRegistry()
        reg.counter("x")
        reg.gauge("x")
        assert len(reg) == 2

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("events", event="evict").inc(3)
        reg.gauge("w_mru").set(0.7)
        reg.histogram("bytes").observe(100)
        snap = reg.snapshot()
        assert snap["events"]["event=evict"] == {"type": "counter", "value": 3}
        assert snap["w_mru"][""]["value"] == 0.7
        assert snap["bytes"][""]["count"] == 1

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        a = reg.counter("x", b="2", a="1")
        b = reg.counter("x", a="1", b="2")
        assert a is b
        assert list(reg.snapshot()["x"]) == ["a=1,b=2"]
