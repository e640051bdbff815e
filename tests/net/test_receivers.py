"""Zipf-rated receivers: determinism, skew, and SHARDS WSS estimates."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.net.receivers import (
    ZipfReceivers,
    receiver_wss,
    receiver_wss_from_trace,
)
from repro.traces.cdn import make_workload


class TestAssignment:
    def test_scalar_matches_vectorised(self):
        # scalar: Python ints + bisect; array: an int64 -> uint64 view
        # through numpy.  Same ids, including where int64 runs out.
        rx = ZipfReceivers(16, beta=0.8, seed=3)
        idx = np.concatenate(
            [np.arange(0, 5_000, dtype=np.int64)]
            + [
                np.arange(mid - 50, mid + 50, dtype=np.int64)
                for mid in (2**31, 2**40)
            ]
            + [np.arange(2**63 - 100, 2**63 - 1, dtype=np.int64), [2**63 - 1]]
        )
        assert idx.dtype == np.int64 and idx[-1] == 2**63 - 1
        assert [rx.assign(i) for i in idx.tolist()] == rx.assign_array(idx).tolist()

    @pytest.mark.parametrize("n, beta", [(1, 0.8), (5, 1.2), (64, 0.8), (7, 0.0)])
    def test_top_of_the_unit_interval_is_the_last_receiver(self, n, beta):
        # float(h) / 2**64 is exactly 1.0 for every hash >= 2**64 - 1024;
        # searching a CDF that ends in 1.0 from the right answered n there.
        rx = ZipfReceivers(n, beta=beta)
        below_one = math.nextafter(1.0, 0.0)
        assert float(2**64 - 1024) / 2.0**64 == 1.0
        assert rx._receiver_at(1.0) == n - 1
        assert rx._receiver_at(below_one) == n - 1
        assert rx._receiver_at(np.array([0.0, below_one, 1.0])).tolist() == [0, n - 1, n - 1]

    def test_deterministic_across_instances(self):
        a = ZipfReceivers(16, beta=0.8, seed=3)
        b = ZipfReceivers(16, beta=0.8, seed=3)
        idx = np.arange(0, 10_000, dtype=np.int64)
        assert (a.assign_array(idx) == b.assign_array(idx)).all()

    def test_seed_changes_assignment(self):
        idx = np.arange(0, 10_000, dtype=np.int64)
        a = ZipfReceivers(16, beta=0.8, seed=0).assign_array(idx)
        b = ZipfReceivers(16, beta=0.8, seed=1).assign_array(idx)
        assert (a != b).any()

    def test_rates_are_zipf_skewed(self):
        rx = ZipfReceivers(32, beta=0.8)
        assert rx.rates[0] > rx.rates[-1]
        assert abs(rx.rates.sum() - 1.0) < 1e-9
        idx = np.arange(0, 50_000, dtype=np.int64)
        who = rx.assign_array(idx)
        counts = np.bincount(who, minlength=32)
        # empirical shares track the rates (law of large numbers, loose)
        assert counts[0] > counts[-1]
        assert abs(counts[0] / 50_000 - rx.rates[0]) < 0.02

    def test_beta_zero_is_uniform(self):
        rx = ZipfReceivers(4, beta=0.0)
        assert (rx.rates == 0.25).all()

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one receiver"):
            ZipfReceivers(0)
        with pytest.raises(ValueError, match="beta"):
            ZipfReceivers(4, beta=-1.0)

    def test_all_ids_in_range(self):
        rx = ZipfReceivers(5, beta=1.2, seed=9)
        who = rx.assign_array(np.arange(0, 20_000, dtype=np.int64))
        assert who.min() >= 0 and who.max() < 5


class TestReceiverWSS:
    def test_counts_partition_the_trace(self):
        trace = make_workload("CDN-T", n_requests=8_000, seed=2)
        rx = ZipfReceivers(8, beta=0.8, seed=2)
        rows = receiver_wss_from_trace(trace, rx)
        assert sum(r["requests"] for r in rows) == len(trace.requests)
        assert [r["receiver"] for r in rows] == list(range(8))

    def test_estimates_bracket_truth_roughly(self):
        trace = make_workload("CDN-T", n_requests=8_000, seed=2)
        rx = ZipfReceivers(4, beta=0.5, seed=2)
        rows = receiver_wss_from_trace(trace, rx)
        whole_wss = trace.working_set_size
        for row in rows:
            assert 0 < row["wss_estimate"]
            # a single receiver's working set cannot exceed the trace's
            # (SHARDS sampling error bound: allow 2x slack)
            assert row["wss_estimate"] < whole_wss * 2

    def test_chunking_invariance(self):
        trace = make_workload("CDN-T", n_requests=4_000, seed=7)
        rx = ZipfReceivers(4, beta=0.8, seed=7)
        small = receiver_wss_from_trace(trace, rx, chunk_size=64)
        big = receiver_wss_from_trace(trace, rx, chunk_size=1 << 16)
        assert small == big

    def test_streaming_chunks_api(self):
        keys = np.arange(0, 1_000, dtype=np.int64)
        sizes = np.full(1_000, 100, dtype=np.int64)
        rx = ZipfReceivers(2, beta=0.0, seed=0)
        rows = receiver_wss(
            [(keys[:500], sizes[:500]), (keys[500:], sizes[500:])], rx
        )
        assert sum(r["requests"] for r in rows) == 1_000
