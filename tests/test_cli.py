"""The command-line interface."""

import argparse
import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestDescribe:
    def test_scaled(self, capsys):
        assert main(["describe"]) == 0
        out = capsys.readouterr().out
        assert "L4 Cache" in out
        assert "Counter Cache" in out

    def test_full(self, capsys):
        assert main(["describe", "--full"]) == 0
        out = capsys.readouterr().out
        assert "8 cores" in out
        assert "16 GB" in out


class TestList:
    def test_lists_workloads(self, capsys):
        assert main(["list-benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "GCC" in out and "PAGERANK" in out
        assert out.count("\n") >= 29


class TestCompare:
    def test_spec(self, capsys):
        assert main(["compare", "--benchmark", "HMMER",
                     "--scale", "0.15", "--cores", "1"]) == 0
        out = capsys.readouterr().out
        assert "HMMER" in out
        assert "write_savings_pct" in out

    def test_powergraph(self, capsys):
        assert main(["compare", "--benchmark", "kcore",
                     "--nodes", "200"]) == 0
        assert "KCORE" in capsys.readouterr().out

    def test_jobs_matches_serial(self, capsys):
        """--jobs 2 runs a local fork pool: output byte-identical to a
        serial run, and no worker process outlives the command."""
        import multiprocessing

        children = set(multiprocessing.active_children())
        argv = ["compare", "--benchmark", "HMMER", "--scale", "0.1",
                "--cores", "1", "--no-cache"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert set(multiprocessing.active_children()) <= children

    def test_unknown(self, capsys):
        assert main(["compare", "--benchmark", "NOPE"]) == 2


class TestFigure:
    def test_policies(self, capsys):
        assert main(["figure", "policies"]) == 0
        out = capsys.readouterr().out
        assert "major-reset-minors" in out

    def test_fig8_subset_runs(self, capsys):
        # Tiny scale so the CLI path stays fast in CI.
        assert main(["figure", "fig12", "--scale", "0.1"]) == 0
        assert "miss_rate" in capsys.readouterr().out


class TestCacheSweep:
    def populate(self, directory):
        from repro.exec import ResultCache, spec_experiment
        from repro.sim.system import SystemReport
        cache = ResultCache(directory, salt="cli-test")
        for i in range(3):
            report = SystemReport(name=f"r{i}", shredder=False,
                                  instructions=1, cycles=1.0, ipc=1.0,
                                  memory_reads=0, memory_writes=0)
            cache.put(spec_experiment("GCC", cores=1, scale=0.1 + i * 0.01),
                      report)
        return cache

    def test_sweep_requires_a_bound(self, capsys):
        assert main(["cache", "sweep"]) == 2
        assert "max-bytes" in capsys.readouterr().err

    def test_sweep_with_size_bound(self, tmp_path, capsys):
        cache = self.populate(tmp_path / "c")
        assert len(cache) == 3
        assert main(["cache", "sweep", "--max-bytes", "0",
                     "--dir", str(tmp_path / "c")]) == 0
        assert "swept 3 of 3" in capsys.readouterr().out
        assert len(cache) == 0

    def test_sweep_size_suffixes(self, tmp_path, capsys):
        self.populate(tmp_path / "c")
        assert main(["cache", "sweep", "--max-bytes", "1G",
                     "--dir", str(tmp_path / "c")]) == 0
        assert "swept 0 of 3" in capsys.readouterr().out

    def test_bad_size_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "sweep",
                                       "--max-bytes", "lots"])


class TestExportConfig:
    def test_export_and_reload(self, tmp_path, capsys):
        from repro.serialization import load_config
        from repro.config import bench_config
        path = tmp_path / "cfg.json"
        assert main(["export-config", str(path)]) == 0
        assert load_config(path) == bench_config()

    def test_figure_csv_flag(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        assert main(["figure", "policies", "--csv", str(path)]) == 0
        assert path.read_text().startswith("policy,")


class TestObservabilityCli:
    def test_compare_emits_metrics_dump(self, tmp_path, capsys):
        dump_path = tmp_path / "metrics.jsonl"
        assert main(["compare", "--benchmark", "HMMER", "--scale", "0.1",
                     "--cores", "1", "--emit-metrics", str(dump_path)]) == 0
        from repro.obs import read_jsonl
        with open(dump_path, encoding="utf-8") as stream:
            dump = read_jsonl(stream)
        assert dump.meta["command"] == "compare"
        assert dump.meta["jobs"] == 1
        assert dump.metrics["exec.batch.runs"]["value"] == 1
        assert "mem.ctrl.data_writes" in dump.metrics
        assert any(s["name"] == "exec.batch" for s in dump.spans)

    def test_stats_renders_dump(self, tmp_path, capsys):
        dump_path = tmp_path / "metrics.jsonl"
        main(["compare", "--benchmark", "HMMER", "--scale", "0.1",
              "--cores", "1", "--emit-metrics", str(dump_path)])
        capsys.readouterr()
        assert main(["stats", str(dump_path)]) == 0
        out = capsys.readouterr().out
        assert "mem.ctrl.data_writes" in out
        assert "exec.batch" in out

    def test_stats_prometheus_and_prefix(self, tmp_path, capsys):
        dump_path = tmp_path / "metrics.jsonl"
        main(["compare", "--benchmark", "HMMER", "--scale", "0.1",
              "--cores", "1", "--emit-metrics", str(dump_path)])
        capsys.readouterr()
        assert main(["stats", str(dump_path), "--format", "prom"]) == 0
        assert "# TYPE mem_ctrl_data_writes counter" \
            in capsys.readouterr().out
        assert main(["stats", str(dump_path), "--prefix", "cache."]) == 0
        out = capsys.readouterr().out
        assert "cache.counter.hits" in out
        assert "mem.ctrl.data_writes" not in out

    def test_stats_missing_file(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.jsonl")]) == 2


class TestEvents:
    """``repro events`` end to end: the flight-recorder log of one run
    as canonical JSON-lines on standard output."""

    ARGV = ["events", "--benchmark", "GCC", "--scale", "0.1", "--no-cache"]

    @staticmethod
    def exit_code(argv):
        try:
            return main(argv)
        except SystemExit as error:     # argparse rejects unknown flags
            return error.code

    def events_out(self, capsys, *extra):
        assert main([*self.ARGV, *extra]) == 0
        return capsys.readouterr().out

    def test_log_is_canonical_and_reproducible(self, capsys):
        from repro.obs import EVENT_KINDS
        first = self.events_out(capsys)
        lines = first.splitlines()
        assert lines
        for line in lines:
            assert json.loads(line)["kind"] in EVENT_KINDS
        assert self.events_out(capsys) == first

    def test_baseline_logs_no_shred(self, capsys):
        out = self.events_out(capsys, "--baseline")
        assert all(json.loads(line)["kind"] != "shred"
                   for line in out.splitlines())

    @pytest.mark.parametrize("extra", [["--engine", "batch"],
                                       ["--benchmark", "STREAM"]])
    def test_retired_stream_options_rejected(self, extra, capsys):
        assert self.exit_code([*self.ARGV, *extra]) == 2


class TestFlagSurface:
    """The unified flag surface: one definition per shared flag, so
    spelling, defaults and help text agree across every subcommand."""

    RUNNER_COMMANDS = {
        "compare": ["compare"],
        "figure": ["figure", "fig8"],
    }

    def subparser(self, *path):
        """The argparse subparser object behind a command path."""
        parser = build_parser()
        for name in path:
            actions = [a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)]
            parser = actions[0].choices[name]
        return parser

    def flag(self, subparser, option):
        for action in subparser._actions:
            if option in action.option_strings:
                return action
        raise AssertionError(f"{option} missing from {subparser.prog}")

    def test_runner_flags_identical_across_compare_and_figure(self):
        for option in ("--jobs", "--no-cache", "--emit-metrics"):
            actions = [self.flag(self.subparser(cmd), option)
                       for cmd in ("compare", "figure")]
            helps = {a.help for a in actions}
            defaults = {a.default for a in actions}
            assert len(helps) == 1, f"{option} help text diverged"
            assert len(defaults) == 1, f"{option} default diverged"

    def test_emit_metrics_spelled_identically_everywhere(self):
        surfaces = [self.subparser("compare"), self.subparser("figure"),
                    self.subparser("events")]
        helps = {self.flag(s, "--emit-metrics").help for s in surfaces}
        assert len(helps) == 1

    def test_progress_goes_to_stderr_only_with_jobs(self):
        from repro.cli import _cli_progress, _runner_context
        for flags, progress in ((["--jobs", "2"], _cli_progress),
                                ([], None)):
            args = build_parser().parse_args(["compare", *flags])
            with _runner_context(args) as runner:
                assert runner.progress is progress
                assert runner.jobs == (2 if flags else 1)

    @pytest.mark.parametrize("argv", [
        ["compare", "--backend", "serial"],
        ["figure", "fig8", "--backend", "fork:2"],
        ["events", "--backend", "serial"],
        ["worker", "serve", "--register", "hub:7071"],
        ["cluster", "status", "hub:7071"],
        ["top", "hub:7071"],
    ], ids=["compare-backend", "figure-backend", "events-backend", "worker",
            "cluster", "top"])
    def test_remote_execution_surface_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as error:
            build_parser().parse_args(argv)
        assert error.value.code == 2
