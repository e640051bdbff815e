"""``BENCHMARK.json`` is the catalogue's, and both fit the driver's contract."""

import json
import os
import re

from ladder import catalog

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_is_generated_from_the_catalogue():
    # tuples become lists on the way through JSON
    assert load() == json.loads(json.dumps(catalog.benchmark_json()))


def test_contract_limits():
    doc = load()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["ladder"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(n) for n in names)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert len(json.dumps(doc)) < 64 * 1024


def test_the_seven_workloads_and_ten_metrics_are_named():
    assert [w.name for w in catalog.WORKLOADS] == [
        "replay-scip", "replay-lru-stream", "replay-obs", "serve-closed",
        "serve-paced", "cluster-r2", "net-tree",
    ]
    assert [m.name for m in catalog.END_TO_END] == [
        "setup_s", "throughput_rps", "cpu_us_per_req", "latency_p50_us", "latency_p99_us",
        "miss_ratio", "byte_miss_ratio", "sim_latency_ms", "peak_rss_mb", "failed_share",
    ]
    known = {w.name for w in catalog.WORKLOADS}
    for m in catalog.END_TO_END + catalog.PER_LAYER:
        assert set(m.homes) <= known, m.name
