"""Tests for the command-line interface."""

from __future__ import annotations

import json
import re

import pytest

from repro import api
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_int_lists(self):
        args = build_parser().parse_args(["table1", "--even", "2,4"])
        assert args.even == (2, 4)


class TestCommands:
    def test_table1(self, capsys):
        code = main(["table1", "--even", "2", "--odd", "1", "--ks", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "TIGHT" in out
        assert "MISMATCH" not in out

    def test_figure(self, capsys, tmp_path):
        code = main(["figure", "2", "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        out = capsys.readouterr().out
        assert "verified claims" in out

    def test_figure_all_routes_through_engine_cache(self, capsys, tmp_path):
        """Figures are engine units: the rerun is served from cache and
        prints the identical renderings and claims."""
        cache_dir = str(tmp_path / "cache")
        assert main(["figure", "all", "--cache-dir", cache_dir]) == 0
        first = capsys.readouterr().out
        assert first.count("verified claims") == 9
        assert main(["figure", "all", "--cache-dir", cache_dir]) == 0
        second = capsys.readouterr().out
        assert second == first
        # the cache really holds the figure units
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries:         9" in capsys.readouterr().out

    def test_rounds(self, capsys):
        code = main(["rounds", "--degrees", "1,3", "--sizes", "12"])
        assert code == 0
        assert "round complexity" in capsys.readouterr().out

    def test_average(self, capsys):
        code = main(["average", "--instances", "1"])
        assert code == 0
        assert "summary" in capsys.readouterr().out

    def test_ablation(self, capsys):
        code = main(["ablation"])
        assert code == 0
        assert "ablations" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "family,algorithm",
        [
            ("regular", "regular_odd"),
            ("cycle", "port_one"),
            ("grid", "bounded_degree"),
            ("bounded", "ids_greedy"),
        ],
    )
    def test_demo_variants(self, capsys, family, algorithm):
        code = main(
            [
                "demo",
                "--family", family,
                "--algorithm", algorithm,
                "-n", "9",
                "-d", "3",
            ]
        )
        assert code == 0
        assert "demo run" in capsys.readouterr().out


class TestSweepCommand:
    def _run(self, capsys, *extra):
        code = main(
            [
                "sweep",
                "--degrees", "2,3",
                "--sizes", "12",
                "--seeds", "1",
                "--quiet",
                *extra,
            ]
        )
        return code, capsys.readouterr().out

    def test_sweep_without_cache(self, capsys):
        code, out = self._run(capsys, "--no-cache")
        assert code == 0
        assert "sweep 'default'" in out
        assert "cache: disabled" in out

    def test_sweep_cache_round_trip(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, out = self._run(capsys, "--cache-dir", cache_dir)
        assert code == 0
        assert "0 hit(s)" in out
        code, out = self._run(capsys, "--cache-dir", cache_dir)
        assert code == 0
        assert "100.0% hit rate" in out

    def test_sweep_workers_match_serial(self, capsys, tmp_path):
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        code, _ = self._run(
            capsys, "--no-cache", "--jsonl", str(serial)
        )
        assert code == 0
        code, _ = self._run(
            capsys, "--no-cache", "--workers", "4", "--jsonl", str(parallel)
        )
        assert code == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_sweep_rejects_unknown_algorithm(self, capsys):
        code, _ = self._run(capsys, "--no-cache", "--algorithms", "bogus")
        assert code == 2

    @pytest.mark.parametrize("backend", ["inline", "process", "auto"])
    def test_sweep_backend_flag(self, capsys, tmp_path, backend):
        jsonl = tmp_path / f"{backend}.jsonl"
        code, out = self._run(
            capsys, "--no-cache", "--backend", backend,
            "--workers", "2", "--jsonl", str(jsonl),
        )
        assert code == 0
        # auto at two workers is the process pool
        ran = "inline" if backend == "inline" else "process(workers=2)"
        assert f"backend: {ran}\n" in out
        # byte-identical to the inline baseline
        baseline = tmp_path / "baseline.jsonl"
        code, _ = self._run(
            capsys, "--no-cache", "--backend", "inline",
            "--jsonl", str(baseline),
        )
        assert code == 0
        assert jsonl.read_bytes() == baseline.read_bytes()

    def test_sweep_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--backend", "gpu"])

    def test_sweep_rejects_empty_grid(self, capsys):
        code = main(
            ["sweep", "--degrees", "3", "--sizes", "3", "--quiet",
             "--no-cache"]
        )
        assert code == 2
        assert "zero feasible" in capsys.readouterr().err

    def test_workers_flag_on_legacy_commands(self, capsys):
        code = main(
            ["rounds", "--degrees", "1,3", "--sizes", "12", "--workers", "2"]
        )
        assert code == 0
        assert "round complexity" in capsys.readouterr().out

    def test_sweep_randomized_with_messages_measure(self, capsys, tmp_path):
        """The ISSUE acceptance command: randomised algorithm + messages
        measure through the engine, reruns served from cache."""
        cache_dir = str(tmp_path / "cache")
        argv = [
            "sweep", "--degrees", "2,3", "--sizes", "12", "--seeds", "1",
            "--algorithms", "randomized_matching", "--measure", "messages",
            "--quiet", "--cache-dir", cache_dir,
        ]
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        assert main([*argv, "--jsonl", str(first)]) == 0
        out = capsys.readouterr().out
        assert "randomized_matching" in out and "0 hit(s)" in out
        assert main([*argv, "--jsonl", str(second)]) == 0
        assert "100.0% hit rate" in capsys.readouterr().out
        assert first.read_bytes() == second.read_bytes()


class TestEngineFlagsOnExperimentCommands:
    def test_table1_with_workers_and_cache(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = ["table1", "--even", "2", "--odd", "1", "--ks", "1",
                "--workers", "2", "--cache-dir", cache_dir]
        assert main(argv) == 0
        assert "TIGHT" in capsys.readouterr().out
        # the confrontations are now cached work units
        assert main(argv) == 0
        assert "TIGHT" in capsys.readouterr().out

    def test_table1_no_cache(self, capsys):
        code = main(["table1", "--even", "2", "--odd", "1", "--ks", "1",
                     "--no-cache"])
        assert code == 0
        assert "TIGHT" in capsys.readouterr().out

    def test_ablation_with_engine_flags(self, capsys, tmp_path):
        code = main(["ablation", "--workers", "2",
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        assert "ablations" in capsys.readouterr().out

    def test_verify_fast_with_engine_flags(self, capsys, tmp_path):
        code = main(["verify", "--fast", "--workers", "2",
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        assert "VERDICT: all reproduction checks passed" in (
            capsys.readouterr().out
        )


class TestMessagesCommand:
    def test_messages_sweep(self, capsys):
        code = main(["messages", "--degrees", "3", "--sizes", "12",
                     "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "message complexity" in out
        assert "port_one" in out

    def test_messages_custom_algorithms(self, capsys):
        code = main([
            "messages", "--degrees", "3", "--sizes", "12", "--no-cache",
            "--algorithms", "port_one,randomized_matching",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "randomized_matching" in out

    def test_messages_rejects_unknown_algorithm(self, capsys):
        code = main(["messages", "--degrees", "3", "--sizes", "12",
                     "--no-cache", "--algorithms", "bogus"])
        assert code == 2

    def test_messages_rejects_empty_grid(self, capsys):
        code = main(["messages", "--degrees", "3", "--sizes", "3",
                     "--no-cache"])
        assert code == 2
        assert "zero feasible" in capsys.readouterr().err


class TestCacheCommand:
    def test_stats_and_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries:         0" in capsys.readouterr().out

        main(["sweep", "--degrees", "2", "--sizes", "12", "--seeds", "1",
              "--quiet", "--cache-dir", cache_dir])
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out and "total size:" in out
        assert "entries:         0" not in out

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed" in capsys.readouterr().out

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries:         0" in capsys.readouterr().out


def _demo_row(out: str) -> list[str]:
    """The cells of the demo table's one row (columns are padded with
    two or more spaces; a label holds single spaces only)."""
    lines = out.splitlines()
    return re.split(r"\s{2,}", lines[lines.index("demo run") + 4].strip())


class TestDemoRegistryIntegration:
    def test_demo_randomized_algorithm(self, capsys):
        code = main(["demo", "--family", "cycle", "-n", "12",
                     "--algorithm", "randomized_matching"])
        assert code == 0
        assert "randomized_matching" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv,spec,label",
        [
            (["--family", "regular", "-d", "3", "-n", "16",
              "--algorithm", "regular_odd"],
             api.graph("regular", seed=0, d=3, n=16),
             "random 3-regular, n=16"),
            # n * d odd: the demo rounds n up to 10
            (["--family", "pairing_regular", "-d", "3", "-n", "9",
              "--algorithm", "port_one", "--seed", "2"],
             api.graph("pairing_regular", seed=2, d=3, n=10),
             "pairing 3-regular, n=10"),
            (["--family", "grid", "-n", "10", "--algorithm", "ids_greedy"],
             api.graph("grid", seed=0, rows=3, cols=3), "grid 3x3"),
            # randomised coins come from the unit key, as in a sweep
            (["--family", "cycle", "-n", "12",
              "--algorithm", "randomized_matching"],
             api.graph("cycle", seed=0, n=12), "cycle, n=12"),
        ],
    )
    def test_demo_row_is_the_run_one_record(self, capsys, argv, spec, label):
        assert main(["demo", *argv]) == 0
        algorithm = argv[argv.index("--algorithm") + 1]
        record = api.run_one(algorithm, spec, label=label)
        assert _demo_row(capsys.readouterr().out) == [
            record.graph_label, record.algorithm, str(record.num_nodes),
            str(record.num_edges), str(record.solution_size),
            str(record.optimum), f"{float(record.ratio):.4f}",
            str(record.rounds),
        ]

    @pytest.mark.parametrize("argv", [
        ["--family", "grid", "-n", "9"],
        ["--family", "cycle", "-n", "30"],
    ])
    def test_demo_reports_contract_error(self, capsys, argv):
        # regular_odd off its domain: an ERROR line and exit 2, as for a
        # simulation error, not a traceback.
        code = main(["demo", *argv, "--algorithm", "regular_odd",
                     "--seed", "3"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "ERROR: regular_odd produced an infeasible output on "
        )
        assert "demo run" not in captured.out

    def test_demo_prints_certified_bracket_past_blossom_limit(
        self, capsys, monkeypatch
    ):
        import repro.engine.measures as measures

        # m = 60 edges: past exact_edge_limit (48) and the patched
        # blossom limit, so the unit takes the ν sandwich.
        monkeypatch.setattr(measures, "DUAL_BOUND_EDGE_LIMIT", 48)
        argv = ["demo", "--family", "regular", "-d", "3", "-n", "40"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        record = api.run_one(
            "bounded_degree", api.graph("regular", seed=0, d=3, n=40),
            label="random 3-regular, n=40",
        )
        assert record.has_interval
        assert "opt ∈" in out and "ratio ∈" in out
        row = _demo_row(out)
        assert row[5] == f"[{record.optimum_lower}, {record.optimum_upper}]"
        assert row[6] == (
            f"[{float(record.ratio_lo):.4f}, {float(record.ratio_hi):.4f}]"
        )


class TestProfileCommand:
    def test_profile_prints_phase_table(self, capsys):
        code = main(["profile", "--scenario", "default", "--limit", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-phase self time" in out
        assert "p50" in out and "p95" in out
        assert "simulate" in out
        assert "total (unit wall)" in out
        assert "top" in out and "slowest units" in out
        assert "runtime:" in out and "delivered" in out

    def test_profile_writes_trace(self, capsys, tmp_path):
        trace = tmp_path / "profile.jsonl"
        code = main(["profile", "--scenario", "default", "--limit", "2",
                     "--trace", str(trace)])
        assert code == 0
        lines = [json.loads(line) for line in
                 trace.read_text().splitlines()]
        assert lines[0]["type"] == "meta"
        assert lines[0]["command"] == "profile"
        assert sum(1 for line in lines if line["type"] == "unit") == 2
        assert lines[-1]["type"] == "summary"

    def test_profile_optimum_override(self, capsys, tmp_path):
        trace = tmp_path / "lb.jsonl"
        code = main(["profile", "--scenario", "default", "--limit", "2",
                     "--optimum", "lower_bound", "--trace", str(trace)])
        assert code == 0
        spans = [
            span
            for line in map(json.loads, trace.read_text().splitlines())
            if line["type"] == "unit"
            for span in line["spans"]
            if span["name"] == "optimum"
        ]
        assert spans  # the optimum phase ran...
        for span in spans:  # ...in the overridden, non-exact mode
            assert span["attrs"]["mode"] == "lower_bound"
            assert span["attrs"]["exact"] is False

    def test_profile_rejects_unknown_algorithm(self, capsys):
        code = main(["profile", "--algorithms", "bogus"])
        assert code == 2
        assert "unknown algorithms" in capsys.readouterr().err

    def test_profile_rejects_empty_grid(self, capsys):
        code = main(["profile", "--degrees", "3", "--sizes", "3"])
        assert code == 2
        assert "zero feasible" in capsys.readouterr().err

    def test_profile_all_cached_renders_empty_report(
        self, capsys, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        argv = ["profile", "--scenario", "default", "--limit", "2",
                "--cache", "--cache-dir", cache_dir]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "no units were computed" in out
        assert "cache: 2 hit(s)" in out


class TestTraceFlag:
    def test_sweep_trace_sidecar(self, capsys, tmp_path):
        trace = tmp_path / "sweep.jsonl"
        code = main(["sweep", "--degrees", "2", "--sizes", "12",
                     "--seeds", "1", "--quiet", "--no-cache",
                     "--trace", str(trace)])
        assert code == 0
        lines = [json.loads(line) for line in
                 trace.read_text().splitlines()]
        assert lines[0]["command"] == "sweep"
        assert any(line["type"] == "unit" for line in lines)

    def test_trace_never_lands_in_cache_dir(self, capsys, tmp_path):
        """Cache entries written under --trace are byte-identical to the
        ones a traceless run writes — telemetry stays out of the cache."""
        plain_dir = tmp_path / "plain"
        traced_dir = tmp_path / "traced"
        base = ["sweep", "--degrees", "2", "--sizes", "12", "--seeds",
                "1", "--quiet"]
        assert main([*base, "--cache-dir", str(plain_dir)]) == 0
        assert main([*base, "--cache-dir", str(traced_dir),
                     "--trace", str(tmp_path / "t.jsonl")]) == 0
        plain = sorted(plain_dir.glob("*/*.json"))
        traced = sorted(traced_dir.glob("*/*.json"))
        assert [p.name for p in plain] == [p.name for p in traced]
        for a, b in zip(plain, traced):
            assert a.read_bytes() == b.read_bytes()
        # and the trace itself is elsewhere
        assert not list(traced_dir.glob("**/*.jsonl"))

    def test_global_verbose_and_quiet_flags_parse(self, capsys):
        assert main(["-v", "demo", "-n", "8"]) == 0
        capsys.readouterr()
        assert main(["-q", "demo", "-n", "8"]) == 0
        assert "demo run" in capsys.readouterr().out

    def test_subcommand_quiet_is_independent(self):
        args = build_parser().parse_args(
            ["-q", "sweep", "--quiet"]
        )
        assert args.log_quiet is True
        assert args.quiet is True
        args = build_parser().parse_args(["sweep"])
        assert args.log_quiet is False
        assert args.quiet is False
