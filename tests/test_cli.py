"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.experiments.runner import clear_cache


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_flow_defaults(self):
        args = build_parser().parse_args(["flow", "s27"])
        assert args.fast_ratio == 3.0
        assert args.monitor_fraction == 0.25

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_flow_on_embedded(self, capsys):
        rc = main(["flow", "s27", "--show-schedule"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "HDF coverage" in out
        assert "Schedule optimization" in out
        assert "pattern #" in out

    def test_flow_verbose_prints_stages_and_memo(self, capsys):
        assert main(["flow", "s27", "--verbose", "--no-cache"]) == 0
        err = capsys.readouterr().err
        for stage in ("sta", "faults", "atpg", "simulation", "classify",
                      "schedule"):
            assert f"[stage] {stage} " in err, stage
        memo = [line for line in err.splitlines() if "[memo]" in line]
        assert len(memo) == 1
        assert err.rindex("[stage]") < err.index("[memo]")
        for key in ("hits", "misses", "evictions", "size", "maxsize"):
            assert f" {key}=" in memo[0], key

    def test_flow_on_bench_file(self, tmp_path, capsys, s27):
        from repro.netlist.bench import save_bench
        path = tmp_path / "mine.bench"
        save_bench(s27, path)
        assert main(["flow", str(path), "--pattern-cap", "6"]) == 0
        assert "HDF coverage" in capsys.readouterr().out

    def test_flow_unknown_circuit(self):
        with pytest.raises(SystemExit, match="cannot resolve"):
            main(["flow", "not_a_circuit"])

    @pytest.mark.parametrize("verb", ["flow", "fig3", "resched"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--fast-ratio", "0.5", "fast_ratio must be >= 1"),
        ("--monitor-fraction", "7", "monitor_fraction must lie in [0, 1]"),
        ("--pattern-cap", "0", "pattern_cap must be positive when given"),
    ])
    def test_invalid_flow_parameter_is_an_error_not_a_traceback(
            self, capsys, verb, flag, value, message):
        assert main([verb, "s27", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_fig3(self, capsys):
        assert main(["fig3", "s27", "--pattern-cap", "6"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out
        assert "conv_%" in out

    def test_aging(self, capsys):
        assert main(["aging", "s27", "--marginal", "1", "--steps", "4"]) == 0
        out = capsys.readouterr().out
        assert "prediction:" in out
        assert "cpl=" in out

    def test_generate_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "gen.bench"
        assert main(["generate", str(out_file), "--gates", "40",
                     "--ffs", "8", "--depth", "6"]) == 0
        assert out_file.exists()
        from repro.netlist.bench import load_bench
        c = load_bench(out_file)
        assert c.num_ffs == 8

    def test_flow_export(self, tmp_path, capsys):
        out = tmp_path / "sched.json"
        rc = main(["flow", "s27", "--export", str(out)])
        assert rc == 0
        assert out.exists()
        assert out.with_suffix(".fast").exists()
        from repro.scheduling.export import load_schedule
        sched = load_schedule(out)
        assert sched.num_frequencies >= 1

    def test_tables_small_subset(self, capsys):
        assert main(["tables", "--suite", "s9234", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table II" in out
        assert "Table III" not in out

    def test_tables_with_coverage_sweep(self, capsys):
        assert main(["tables", "--suite", "s9234", "--scale", "0.3",
                     "--table3"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "F_99" in out


class TestSuiteCommand:
    def test_suite_parser_defaults(self):
        args = build_parser().parse_args(["suite"])
        assert args.workers == 1
        assert args.profile == "quick"
        assert args.claim_ttl is None

    def test_suite_rejects_unknown_profile(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["suite", "--profile", "nope"])

    def test_suite_sharded_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FLOW_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_cache()
        rc = main(["suite", "--profile", "synth", "--count", "2",
                   "--scale", "0.25", "--workers", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 circuits" in out
        assert "workers=2" in out
        assert "computed=12" in out
        # Re-invocation resumes entirely from the shared stage store.
        clear_cache()
        assert main(["suite", "--profile", "synth", "--count", "2",
                     "--scale", "0.25", "--workers", "2"]) == 0
        assert "computed=0  cached=12" in capsys.readouterr().out

    def test_suite_runs_without_store(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FLOW_CACHE", "0")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_cache()
        rc = main(["suite", "--profile", "synth", "--count", "1",
                   "--scale", "0.25", "--workers", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "computed=6  cached=0" in out
        assert "Suite results" in out
        assert not any(tmp_path.iterdir())  # nothing under the cache dir


class TestFleetCommands:
    def test_fleet_parser_defaults(self):
        args = build_parser().parse_args(["fleet", "s27"])
        assert args.devices == 1024
        assert args.jobs == 1
        assert not hasattr(args, "engine")
        assert args.scenario is None

    def test_fleet_summary(self, capsys):
        rc = main(["fleet", "s27", "--devices", "64", "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "devices=64" in out
        assert "detection_rate=" in out
        assert "Fleet distributions" in out
        assert "wearout_failure_time" in out

    def test_fleet_json(self, capsys):
        import json
        rc = main(["fleet", "s27", "--devices", "32", "--json",
                   "--no-cache"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["devices"] == 32
        assert data["metrics"]["devices"] == 32

    def test_fleet_and_aging_share_the_scenario_schema(self, tmp_path,
                                                       capsys):
        from repro.aging.scenario import ScenarioSpec
        path = tmp_path / "spec.json"
        ScenarioSpec(seed=5, clock_margin=1.2,
                     checkpoints=(0.5, 1.0, 2.0, 4.0)).save(path)
        assert main(["aging", "s27", "--scenario", str(path)]) == 0
        out = capsys.readouterr().out
        # the spec's four checkpoints drive the lifetime sweep
        assert out.count("t=") == 4
        assert main(["fleet", "s27", "--scenario", str(path),
                     "--devices", "32", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert ScenarioSpec.load(path).fingerprint() in out

    def test_fleet_seed_override(self, capsys):
        import json
        outs = []
        for seed in ("1", "2"):
            assert main(["fleet", "s27", "--devices", "32", "--seed", seed,
                         "--json", "--no-cache"]) == 0
            outs.append(json.loads(capsys.readouterr().out))
        assert outs[0] != outs[1]
