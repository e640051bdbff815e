"""CLI, report generator, and parallel runner tests."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestCLI:
    def test_simulate(self, capsys):
        rc = main(
            ["simulate", "--policy", "LRU", "--workload", "CDN-T",
             "-n", "5000", "--fraction", "0.05"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "miss_ratio=" in out and "LRU" in out

    def test_simulate_unknown_policy(self, capsys):
        rc = main(["simulate", "--policy", "NOPE", "-n", "1000"])
        assert rc == 2
        assert "unknown policy" in capsys.readouterr().out

    def test_simulate_from_trace_file(self, tmp_path, capsys, tiny_trace):
        from repro.traces.io import write_lrb

        path = tmp_path / "t.tr"
        write_lrb(tiny_trace, path)
        rc = main(["simulate", "--policy", "LRU", "--trace-file", str(path),
                   "--fraction", "0.5"])
        assert rc == 0

    @pytest.mark.parametrize("policy", ["LRU", "SCIP", "ARC"])
    def test_simulate_bin_file_dispatches_to_the_batch_core(self, tmp_path, capsys, policy):
        """A .bin streams for every policy, dedicated core (LRU, SCIP) or not
        (ARC); an obs flag materialises it; the ratios are the same."""
        from repro.traces.binfmt import write_bin
        from repro.traces.cdn import make_workload

        path = tmp_path / "t.bin"
        write_bin(make_workload("CDN-T", n_requests=8_000, seed=2), path)
        base = ["simulate", "--policy", policy, "--trace-file", str(path), "--fraction", "0.05"]

        def ratios(extra):
            assert main(base + extra) == 0
            line = capsys.readouterr().out.splitlines()[0]
            return "[batch]" in line, [w for w in line.split() if "miss_ratio=" in w]

        plain, rich = ratios([]), ratios(["--obs-summary"])
        assert plain[0] and not rich[0]  # an obs flag keeps the rich engine
        assert plain[1] == rich[1] and len(plain[1]) == 2

    def test_simulate_bin_file_materialises_for_an_oracle(self, tmp_path, capsys):
        from repro.traces.binfmt import write_bin
        from repro.traces.cdn import make_workload

        path = tmp_path / "t.bin"
        write_bin(make_workload("CDN-T", n_requests=2_000, seed=2), path)
        assert main(["simulate", "--policy", "Belady", "--trace-file", str(path)]) == 0
        assert "[batch]" not in capsys.readouterr().out

    def test_simulate_batch_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--policy", "LRU", "-n", "1000", "--batch"])
        assert exc.value.code == 2
        assert "--batch" in capsys.readouterr().err

    def test_workload_generate_and_save(self, tmp_path, capsys):
        out_file = tmp_path / "w.tr"
        rc = main(["workload", "--name", "CDN-W", "-n", "4000",
                   "-o", str(out_file)])
        assert rc == 0
        assert out_file.exists()

    def test_workload_analyze(self, capsys):
        rc = main(["workload", "--name", "CDN-T", "-n", "4000", "--analyze"])
        assert rc == 0
        assert "ZRO%" in capsys.readouterr().out

    def test_experiment_table1(self, capsys):
        rc = main(["experiment", "table1", "--scale", "smoke"])
        assert rc == 0
        assert "Table 1" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        rc = main(["experiment", "fig99"])
        assert rc == 2

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestParallelRunner:
    def test_matches_serial_results(self):
        from repro.sim.parallel import run_grid_parallel
        from repro.sim.engine import simulate
        from repro.cache.lru import LRUCache
        from repro.traces.cdn import make_workload

        rows = run_grid_parallel(
            ["LRU", "FIFO"], ["CDN-T"], n_requests=8_000,
            cache_fractions=[0.02], max_workers=2,
        )
        assert len(rows) == 2
        tr = make_workload("CDN-T", n_requests=8_000)
        cap = int(tr.working_set_size * 0.02)
        serial = simulate(LRUCache(cap), tr).miss_ratio
        par = next(r for r in rows if r["policy"] == "LRU")["miss_ratio"]
        assert par == pytest.approx(serial)

    def test_policy_kwargs_forwarded(self):
        from repro.sim.parallel import run_grid_parallel

        rows = run_grid_parallel(
            {"SCIP": {"seed": 1}}, ["CDN-T"], n_requests=6_000,
            cache_fractions=[0.02], max_workers=1,
        )
        assert rows[0]["policy"] == "SCIP"
        assert 0 < rows[0]["miss_ratio"] < 1

    def test_per_workload_fractions(self):
        from repro.sim.parallel import run_grid_parallel

        rows = run_grid_parallel(
            ["LRU"], ["CDN-T", "CDN-A"], n_requests=5_000,
            cache_fractions={"CDN-T": [0.02], "CDN-A": [0.01, 0.02]},
            max_workers=2,
        )
        assert len(rows) == 3


class TestReport:
    def test_report_generates_and_verdicts(self, tmp_path):
        from repro.experiments.report import write_report

        path = tmp_path / "EXPERIMENTS.md"
        write_report(str(path), scale="smoke")
        text = path.read_text()
        # Every paper artifact has a section.
        for section in ["Table 1", "Figure 1", "Figure 3", "Figure 4",
                        "Figure 6", "Figure 7", "Figure 8", "Figure 9",
                        "Figure 10", "Figure 11", "Figure 12", "Ablations"]:
            assert section in text, f"missing section {section}"
        assert "shape:" in text
