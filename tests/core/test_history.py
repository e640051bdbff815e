"""HistoryList (shadow list) unit + property tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import HistoryList


class TestBasics:
    def test_add_and_lookup(self):
        h = HistoryList(100)
        h.add(1, 30)
        assert 1 in h
        assert len(h) == 1
        assert h.bytes == 30

    def test_fifo_trim_at_budget(self):
        h = HistoryList(100)
        h.add(1, 40)
        h.add(2, 40)
        h.add(3, 40)  # evicts 1 (oldest)
        assert 1 not in h
        assert 2 in h and 3 in h
        assert h.bytes == 80

    def test_oversized_entry_dropped(self):
        h = HistoryList(50)
        h.add(1, 100)
        assert 1 not in h
        assert h.bytes == 0

    def test_delete_returns_presence(self):
        h = HistoryList(100)
        h.add(1, 10)
        assert h.delete(1) is True
        assert h.delete(1) is False
        assert h.bytes == 0

    def test_pop_returns_entry(self):
        h = HistoryList(100)
        h.add(1, 10, hits=2, flag=1, time=42)
        entry = h.pop(1)
        assert entry == (10, 2, 1, 42)
        assert h.pop(1) is None

    def test_readd_refreshes(self):
        h = HistoryList(100)
        h.add(1, 10)
        h.add(2, 10)
        h.add(1, 20)  # re-add: moves to MRU end, updates size
        assert h.bytes == 30
        assert h.keys() == [2, 1]

    def test_zero_capacity(self):
        h = HistoryList(0)
        h.add(1, 10)
        assert 1 not in h

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            HistoryList(-1)

    def test_clear(self):
        h = HistoryList(100)
        h.add(1, 10)
        h.clear()
        assert len(h) == 0 and h.bytes == 0

    def test_metadata_accounting(self):
        h = HistoryList(1000)
        for k in range(5):
            h.add(k, 10)
        assert h.metadata_bytes() == 32 * 5


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["add", "delete", "pop"]), st.integers(0, 20), st.integers(1, 50)),
        max_size=200,
    ),
    st.integers(10, 500),
)
def test_budget_and_accounting_invariants(ops, capacity):
    """Property: byte accounting is exact and the budget is never exceeded,
    under arbitrary add/delete/pop interleavings."""
    h = HistoryList(capacity)
    for op, key, size in ops:
        if op == "add":
            h.add(key, size)
        elif op == "delete":
            h.delete(key)
        else:
            h.pop(key)
        h.check_invariants()
        assert h.bytes <= capacity
