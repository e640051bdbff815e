"""The measuring helpers against independent references."""

import json

import numpy as np
import pytest

from ladder import compare
from ladder.catalog import metric
from ladder.checks import ReferenceLRU
from ladder.harness import REFERENCE_S, Measured, end_to_end, percentile
from ladder.spans import SpanLog


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 28_905])
def test_percentile_matches_numpy(n):
    rng = np.random.default_rng(n)
    samples = rng.integers(1, 10**7, size=n).tolist()
    for q in (0, 1, 50, 90, 99, 99.9, 100):
        assert percentile(samples, q) == pytest.approx(np.percentile(samples, q), rel=1e-12)


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_reference_lru_by_hand():
    lru = ReferenceLRU(30)
    assert [lru.request(k, 10) for k in (1, 2, 3, 1, 4, 2)] == [False, False, False, True, False, False]
    # 1 was promoted, so 4 evicted 2 and then 2 evicted 3
    assert list(lru._sizes) == [1, 4, 2]
    assert (lru.hits, lru.misses, lru.bytes_hit, lru.bytes_missed, lru.used) == (1, 5, 10, 50, 30)
    assert lru.request(9, 31) is False and 9 not in lru._sizes, "larger than the cache: never admitted"
    assert lru.request(1, 25) is True and lru.used <= 30, "a grown object makes room"


def test_self_time_is_span_minus_children():
    log = SpanLog()
    log.add(("cluster.get", 0, 100, None, 7))
    log.add(("serve.get", 10, 70, "cluster.get", 7))
    log.add(("cache.request", 20, 30, "serve.get", 7))
    log.add(("cache.request", 40, 45, "serve.get", 7))
    log.add(("cluster.get", 0, 50, None, 8))  # another request: not a parent of request 7's spans
    self_ns, span_ns, root_ns = log.self_times()
    assert self_ns == {"cluster.get": 40 + 50, "serve.get": 45, "cache.request": 15}
    assert span_ns["cache.request"] == 15 and root_ns == 150
    assert sum(self_ns.values()) == root_ns


def test_span_log_writes_one_json_object_per_span(tmp_path):
    log = SpanLog()
    log.add(("serve.get", 1, 5, None, 0))
    log.add(("cache.request", 2, 3, "serve.get", 0))
    path = tmp_path / "trace.jsonl"
    log.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[0] == {"name": "serve.get", "start_ns": 1, "end_ns": 5, "parent": None, "request_id": 0}
    assert rows[1]["parent"] == "serve.get"


def test_a_violation_fails_every_request():
    m = Measured(units=[(100, 1.0, 0.9)], reference=[REFERENCE_S], attempted=100,
                 miss_ratio=0.5, byte_miss_ratio=0.6)
    assert end_to_end(m, 0.1)["failed_share"] == 0.0
    m.violations.append("resident bytes 11 > capacity 10")
    assert end_to_end(m, 0.1)["failed_share"] == 1.0


def test_a_run_is_read_from_its_faster_quarter_in_reference_seconds():
    # eight units at 100 req/s, three of them hit by a 2x burst; host at reference speed
    units = [(100, 1.0, 1.0)] * 5 + [(100, 2.0, 2.0)] * 3
    reference = [REFERENCE_S] * 5 + [2 * REFERENCE_S] * 3
    quiet = end_to_end(Measured(units=list(units), reference=list(reference), attempted=800), 1.0)
    assert quiet["throughput_rps"] == pytest.approx(100.0)
    assert quiet["cpu_us_per_req"] == pytest.approx(10_000.0)
    # the same run on a host that is twice as slow throughout reads the same
    slow = [(n, 2 * wall, 2 * cpu) for n, wall, cpu in units]
    slow_reference = [2 * ref for ref in reference]
    m = Measured(units=slow, reference=slow_reference, latency=[(400.0, 900.0)] * 8, attempted=800)
    halved = end_to_end(m, 2.0)
    assert halved["throughput_rps"] == pytest.approx(100.0)
    assert halved["setup_s"] == pytest.approx(1.0) and halved["latency_p99_us"] == pytest.approx(450.0)
    assert m.detail["host_speed"] == pytest.approx(0.5) and m.detail["host_throughput_rps"] == pytest.approx(50.0)
    # where the clock sets the pace, only CPU time is rescaled
    paced = end_to_end(Measured(units=slow, reference=slow_reference, latency=[(400.0, 900.0)] * 8,
                                attempted=800, host_bound=False), 2.0)
    assert paced["throughput_rps"] == pytest.approx(50.0) and paced["latency_p99_us"] == pytest.approx(900.0)
    assert paced["cpu_us_per_req"] == pytest.approx(10_000.0) and paced["setup_s"] == pytest.approx(2.0)


def _doc(seed, **values):
    return {"manifest": {"seed": seed},
            "sets": [{"replay-scip": {"end_to_end": {k: v for k, v in zip(values, row)}}}
                     for row in zip(*values.values())]}


def test_compare_verdicts():
    base = _doc(1, throughput_rps=[100.0, 101.0], miss_ratio=[0.5, 0.5])
    same = compare.compare_docs(base, base)
    assert {row[-1] for row in same} == {"ok"}
    slower = _doc(1, throughput_rps=[80.0, 81.0], miss_ratio=[0.5, 0.5])
    verdicts = {row[1]: row[-1] for row in compare.compare_docs(base, slower)}
    assert verdicts == {"throughput_rps": "regression", "miss_ratio": "ok"}
    # same seed, synchronous workload: the miss ratio is compared bit for bit
    drifted = _doc(1, throughput_rps=[100.0, 101.0], miss_ratio=[0.5001, 0.5001])
    assert {row[1]: row[-1] for row in compare.compare_docs(base, drifted)}["miss_ratio"] == "regression"
    other_seed = _doc(2, throughput_rps=[100.0, 101.0], miss_ratio=[0.5001, 0.5001])
    assert {row[1]: row[-1] for row in compare.compare_docs(base, other_seed)}["miss_ratio"] == "ok"
    noisy = _doc(1, throughput_rps=[70.0, 130.0], miss_ratio=[0.5, 0.5])
    assert {row[1]: row[-1] for row in compare.compare_docs(base, noisy)}["throughput_rps"] == "unresolved"


def test_agreement_is_symmetric_and_exact_where_it_should_be():
    doc = _doc(1, throughput_rps=[100.0, 108.0], miss_ratio=[0.5, 0.5])
    ok, report = compare.agreement(doc)
    assert ok and "yes" in report
    ok, _ = compare.agreement(_doc(1, throughput_rps=[100.0, 118.0], miss_ratio=[0.5, 0.5]))
    assert not ok
    ok, _ = compare.agreement(_doc(1, throughput_rps=[100.0, 100.0], miss_ratio=[0.5, 0.5000001]))
    assert not ok


def test_worse_by_knows_the_direction():
    assert compare.worse_by(metric("throughput_rps"), 100.0, 90.0) == pytest.approx(0.1)
    assert compare.worse_by(metric("latency_p99_us"), 100.0, 90.0) == pytest.approx(-0.1)
    assert compare.worse_by(metric("failed_share"), 0.0, 0.25) == 0.25
