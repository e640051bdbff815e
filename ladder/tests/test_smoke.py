"""The command itself, at ``--smoke`` scale: every workload, every metric."""

import json
import math
import os
import subprocess
import sys

import pytest

from ladder import runner
from ladder.catalog import END_TO_END, PER_LAYER, SYNC, WORKLOADS, driver_end_to_end
from ladder.harness import Measured
from ladder.workloads import REGISTRY

ROOT = runner.ROOT
EXACT = ("miss_ratio", "byte_miss_ratio", "sim_latency_ms")


def ladder(*args):
    return subprocess.run([sys.executable, "-m", "ladder", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """All seven workloads, untraced and traced, once."""
    out = tmp_path_factory.mktemp("ladder") / "smoke.json"
    proc = ladder("--smoke", "--traced", "--seed", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), proc.stdout


def test_every_declared_metric_is_present_finite_and_has_a_unit(smoke):
    doc, stdout = smoke
    (run_set,) = doc["sets"]
    assert list(run_set) == [w.name for w in WORKLOADS]
    for w in WORKLOADS:
        result = run_set[w.name]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        for m in END_TO_END:
            assert (m.name in result["end_to_end"]) == m.measured_on(w.name), (w.name, m.name)
        for m in PER_LAYER:
            assert (m.name in result["per_layer"]) == m.measured_on(w.name), (w.name, m.name)
        for name, value in {**result["end_to_end"], **result["per_layer"]}.items():
            assert isinstance(value, (int, float)) and math.isfinite(value), (w.name, name, value)
    for m in END_TO_END + PER_LAYER:
        assert m.unit, m.name
        # printed by name, with its unit
        assert any(line.split()[:1] == [m.name] and line.split()[-1] == m.unit
                   for line in stdout.splitlines()), m.name
    manifest = doc["sets"][0]["replay-scip"]["manifest"]
    assert {"git_sha", "python", "nproc", "seed", "sizes", "loadavg_1m_at_start"} <= set(manifest)
    assert manifest["seed"] == 3 and manifest["sizes"]["requests"] == 30_000


def test_same_seed_same_decisions_on_the_synchronous_workloads(smoke, tmp_path):
    doc, _ = smoke
    out = tmp_path / "again.json"
    proc = ladder("--smoke", "--seed", "3", "--only", ",".join(sorted(SYNC)), "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out, encoding="utf-8") as fh:
        again = json.load(fh)["sets"][0]
    for name in SYNC:
        first = doc["sets"][0][name]["end_to_end"]
        for metric in EXACT:
            if metric in first:
                assert again[name]["end_to_end"][metric] == first[metric], (name, metric)


def test_the_traced_run_accounts_for_its_root_spans(smoke):
    doc, _ = smoke
    for w in WORKLOADS:
        layers = doc["sets"][0][w.name]["per_layer"]
        assert abs(layers["trace.self_sum_ratio"] - 1.0) <= 0.02, (w.name, layers["trace.self_sum_ratio"])
        assert os.path.getsize(os.path.join(runner.OUT_DIR, f"trace-{w.name}.jsonl")) > 0


@pytest.mark.parametrize("name", [w.name for w in WORKLOADS])
def test_inputs_come_from_the_seed(name, tmp_path):
    workload = REGISTRY[name]
    sizes = workload.sizes(1.0, True)

    def inputs(seed):
        state = workload.setup(seed, sizes, str(tmp_path))
        if "requests" in state:
            return [(r.key, r.size) for r in state["requests"]]
        if "trace" in state:
            return [(r.key, r.size) for r in state["trace"].requests]
        with open(state["path"], "rb") as fh:
            return fh.read()

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_the_drivers_line(tmp_path):
    """``--workload`` prints the contract's JSON object as its last line."""
    for trace, declared in ((0, driver_end_to_end()), (1, PER_LAYER)):
        proc = ladder("--workload", "net-tree", "--seed", "2", "--seconds", "1", "--trace", str(trace), "--smoke")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        line = json.loads(proc.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {m.name for m in declared}
        for m in declared:
            assert line["metrics"][m.name]["unit"] == m.unit
            assert math.isfinite(line["metrics"][m.name]["value"])
        if trace == 0:
            assert all(v["value"] != 0 for v in line["metrics"].values())


def test_a_failed_check_fails_the_command(monkeypatch, tmp_path, capsys):
    class Broken:
        name = "net-tree"

        def sizes(self, seconds, smoke):
            return {}

        def setup(self, seed, sizes, tmp):
            return {}

        def measure(self, state, seconds):
            return Measured(units=[(10, 1.0, 1.0)], reference=[0.0165], attempted=10,
                            violations=["net: 10 sent, 9 counted, 9 hit flags"])

    monkeypatch.setitem(REGISTRY, "net-tree", Broken())
    doc = tmp_path / "doc.json"
    assert runner.run_one("net-tree", 1, 1.0, False, True, str(doc), 0.0) == 1
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert line["correct"] is False and line["failed"] == line["attempted"] == 10
    assert json.loads(doc.read_text())["end_to_end"]["failed_share"] == 1.0
