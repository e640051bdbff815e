"""Failure injection: malformed inputs, corrupted files, degenerate
configurations — every public entry point must fail loudly and precisely,
never corrupt state silently.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import make_policy
from repro.core.scip import SCIPCache
from repro.sim.request import Request, Trace


class TestRequestValidation:
    def test_zero_and_negative_sizes(self):
        with pytest.raises(ValueError):
            Request(0, 1, 0)
        with pytest.raises(ValueError):
            Request(0, 1, -10)


class TestPolicyConfigGuards:
    @pytest.mark.parametrize("name", ["LRU", "SCIP", "ASC-IP", "LIRS", "S3-FIFO"])
    def test_zero_capacity(self, name):
        builder = SCIPCache if name == "SCIP" else (lambda c: make_policy(name, c))
        with pytest.raises(ValueError):
            builder(0)

    def test_scip_bad_knobs(self):
        for kwargs in [
            {"history_fraction": -0.1},
            {"update_interval": 0},
            {"escape": -0.5},
            {"escape": 2.0},
        ]:
            with pytest.raises(ValueError):
                SCIPCache(100, **kwargs)


class TestCorruptTraceFiles:
    def test_truncated_lrb_line(self, tmp_path):
        from repro.traces.io import read_lrb

        p = tmp_path / "x.tr"
        p.write_text("0 1 10\n1 2\n")
        with pytest.raises(ValueError, match="x.tr:2"):
            read_lrb(p)

    def test_non_numeric_lrb(self, tmp_path):
        from repro.traces.io import read_lrb

        p = tmp_path / "x.tr"
        p.write_text("0 one 10\n")
        with pytest.raises(ValueError):
            read_lrb(p)

    def test_zero_size_in_file(self, tmp_path):
        from repro.traces.io import read_lrb

        p = tmp_path / "x.tr"
        p.write_text("0 1 0\n")
        with pytest.raises(ValueError):
            read_lrb(p)

    def test_missing_file(self):
        from repro.traces.io import read_lrb

        with pytest.raises(FileNotFoundError):
            read_lrb("/nonexistent/trace.tr")


class TestModelInputGuards:
    def test_fit_empty(self):
        from repro.ml.gbm import GBMRegressor
        from repro.ml.nn import NNClassifier

        with pytest.raises(ValueError):
            GBMRegressor().fit(np.empty((0, 3)), np.empty(0))
        with pytest.raises(ValueError):
            NNClassifier().fit(np.empty((0, 3)), np.empty(0))

    def test_metrics_shape_mismatch(self):
        from repro.ml.metrics import confusion

        with pytest.raises(ValueError):
            confusion(np.zeros(3), np.zeros(4))


class TestTransformGuards:
    def test_bad_slice(self, tiny_trace):
        from repro.traces.transform import slice_trace

        with pytest.raises(ValueError):
            slice_trace(tiny_trace, 5, 3)

    def test_empty_concat(self):
        from repro.traces.transform import concat

        with pytest.raises(ValueError):
            concat([])

    def test_sampling_bounds(self, tiny_trace):
        from repro.traces.transform import sample_objects

        with pytest.raises(ValueError):
            sample_objects(tiny_trace, 0.0)
        with pytest.raises(ValueError):
            sample_objects(tiny_trace, 1.5)


class TestStateIntegrityAfterErrors:
    def test_bypass_leaves_cache_consistent(self):
        """An oversized request must not disturb resident state."""
        p = SCIPCache(100, update_interval=10**9)
        p.request(Request(0, 1, 40))
        p.request(Request(1, 2, 40))
        before = sorted(p.resident_keys())
        p.request(Request(2, 3, 500))  # bypassed
        assert sorted(p.resident_keys()) == before
        p.check_invariants()

    def test_engine_rejects_unknown_scale(self):
        from repro.experiments.common import get_trace

        with pytest.raises(KeyError):
            get_trace("CDN-T", scale="galactic")

    def test_runner_unknown_trace_fraction_key(self, tiny_trace):
        from repro.cache.lru import LRUCache
        from repro.sim.runner import run_grid

        with pytest.raises(KeyError):
            run_grid({"LRU": LRUCache}, [tiny_trace], {"other-name": [0.1]})


#: profile -> (smallest budget it generates at, a budget below the old crash
#: range that generated before the fix, len and sha256[:16] of its arrays then)
_BUDGETS = {
    "CDN-T": (16, 93, 49, "c0a7d2983f499689"),
    "CDN-W": (1, 46, 36, "9d8266fe591d5a61"),
    "CDN-A": (12, 148, 119, "88e10b96873d7c62"),
}


class TestSmallAndEmptyInputs:
    @pytest.mark.parametrize("name", sorted(_BUDGETS))
    def test_make_workload_below_its_floor_names_profile_and_floor(self, name):
        from repro.traces.cdn import make_workload

        floor = _BUDGETS[name][0]
        for n in (-1, *range(floor)):
            with pytest.raises(ValueError, match=rf"{name}.*n_requests >= {floor}, got {n}$"):
                make_workload(name, n)

    @pytest.mark.parametrize("name", sorted(_BUDGETS))
    def test_make_workload_generates_from_its_floor_up(self, name):
        import hashlib

        from repro.traces.cdn import WORKLOADS, make_workload
        from repro.traces.synthetic import generate_arrays

        floor, n_old, len_old, sha_old = _BUDGETS[name]
        for n in range(floor, 300):
            assert len(make_workload(name, n)) > 0, n
        keys, sizes = generate_arrays(WORKLOADS[name](n_requests=n_old))
        assert len(keys) == len_old
        assert hashlib.sha256(keys.tobytes() + sizes.tobytes()).hexdigest()[:16] == sha_old

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--policy", "LRU", "-n", "5"], "'CDN-T' needs n_requests >= 16, got 5"),
            (["workload", "-n", "0"], "'CDN-T' needs n_requests >= 16, got 0"),
            (["workload", "--name", "CDN-A", "-n", "11"], "'CDN-A' needs n_requests >= 12, got 11"),
            (["trace", "gen", "--workload", "CDN-T", "-n", "5", "-o", "{tmp}/t.bin"],
             "'CDN-T' needs n_requests >= 16, got 5"),
        ],
        ids=["simulate", "workload-zero", "workload-cdn-a", "trace-gen"],
    )
    def test_cli_small_budget_is_exit_2_with_the_message(self, tmp_path, capsys, argv, message):
        from repro.cli import main

        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
        assert message in capsys.readouterr().out
        assert not list(tmp_path.iterdir())

    def test_cli_budget_inside_the_old_crash_range_runs(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--policy", "SCIP", "-n", "50"]) == 0
        assert "miss_ratio=" in capsys.readouterr().out
        assert main(["workload", "-n", "50"]) == 0

    def test_empty_trace_summary_is_zeros(self):
        empty = Trace([], name="empty")
        assert empty.size_stats() == {"min": 0.0, "max": 0.0, "mean": 0.0}
        assert empty.summary() == {
            "name": "empty",
            "total_requests": 0,
            "unique_objects": 0,
            "max_object_size": 0.0,
            "min_object_size": 0.0,
            "mean_object_size": 0.0,
            "working_set_size": 0,
        }

    def test_chunk_size_zero_is_refused_for_every_source_kind(self, tiny_trace, tmp_path):
        from repro.sim.batch import batch_replay, simulate_batch
        from repro.traces.binfmt import BinTraceReader, write_bin

        path = tmp_path / "t.bin"
        write_bin(tiny_trace, path)
        chunks = [(None, np.array([1, 2]), np.array([10, 10]))]
        with BinTraceReader(path) as reader:
            for source in (tiny_trace, Trace([]), str(path), path, reader, chunks):
                for chunk_size in (0, -3):
                    with pytest.raises(ValueError, match=f"chunk_size must be >= 1, got {chunk_size}"):
                        simulate_batch("LRU", source, 1_000, chunk_size=chunk_size)
                    with pytest.raises(ValueError, match="chunk_size must be >= 1"):
                        batch_replay("ARC", source, 1_000, chunk_size=chunk_size)

    def test_in_memory_trace_chunks_carry_no_times_column(self, tiny_trace):
        from repro.sim.batch import iter_source_chunks

        chunks = list(iter_source_chunks(tiny_trace, chunk_size=4))
        assert all(times is None for times, _keys, _sizes in chunks)
        assert np.concatenate([keys for _t, keys, _s in chunks]).tolist() == [
            r.key for r in tiny_trace.requests
        ]
        assert np.concatenate([sizes for _t, _k, sizes in chunks]).tolist() == [
            r.size for r in tiny_trace.requests
        ]
