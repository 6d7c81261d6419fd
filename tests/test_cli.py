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


class TestWorkerCli:
    def test_serve_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])

    def test_serve_announces_and_honours_max_tasks(self, capsys):
        """Drive a real registered worker through one task: it
        announces its registration, then drains after --max-tasks."""
        import threading

        from repro.exec import Runner, spec_experiment
        from repro.exec.cluster import ClusterBackend, ClusterServer

        codes = {}
        with ClusterServer() as server:
            def run_worker():
                codes["exit"] = main(["worker", "serve", "--register",
                                      server.endpoint, "--max-tasks", "1",
                                      "--heartbeat", "0.2"])

            thread = threading.Thread(target=run_worker, daemon=True)
            thread.start()
            reports = Runner(backend=ClusterBackend(server.address),
                             use_cache=False).run(
                [spec_experiment("HMMER", cores=1, scale=0.1)])
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert codes["exit"] == 0
        assert len(reports) == 1
        captured = capsys.readouterr()
        assert f"registered with {server.endpoint}" in captured.out
        assert "worker stopped after 1 tasks" in captured.err

    def test_distributed_failure_is_a_clean_exit(self, tmp_path, capsys,
                                                 monkeypatch):
        """An unreachable dispatcher surfaces as exit code 1, not a
        traceback."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cc"))
        code = main(["compare", "--benchmark", "GCC", "--scale", "0.1",
                     "--cores", "1", "--backend", "cluster://127.0.0.1:1",
                     "--no-cache"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


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
        for option in ("--jobs", "--backend", "--no-cache",
                       "--emit-metrics"):
            actions = [self.flag(self.subparser(cmd), option)
                       for cmd in ("compare", "figure")]
            helps = {a.help for a in actions}
            defaults = {a.default for a in actions}
            assert len(helps) == 1, f"{option} help text diverged"
            assert len(defaults) == 1, f"{option} default diverged"

    def test_emit_metrics_spelled_identically_everywhere(self):
        surfaces = [self.subparser("compare"), self.subparser("figure"),
                    self.subparser("worker", "serve"),
                    self.subparser("cluster", "serve")]
        helps = {self.flag(s, "--emit-metrics").help for s in surfaces}
        assert len(helps) == 1

    def test_task_timeout_shared_with_cluster_commands(self):
        surfaces = [self.subparser("cluster", "serve"),
                    self.subparser("cluster", "drain")]
        helps = {self.flag(s, "--task-timeout").help for s in surfaces}
        defaults = {self.flag(s, "--task-timeout").default for s in surfaces}
        assert len(helps) == 1
        assert defaults == {300.0}

    def test_backend_spec_timeout_is_not_overridden(self):
        """The runner commands have no --task-timeout, so a cluster
        spec's own frame_timeout reaches the backend (a flag default
        used to override it)."""
        from repro.cli import _runner_context
        for path in (("compare",), ("figure",), ("events",)):
            options = {option for action in self.subparser(*path)._actions
                       for option in action.option_strings}
            assert "--task-timeout" not in options
        args = build_parser().parse_args(
            ["compare", "--backend", "cluster://hub:7071?frame_timeout=900"])
        with _runner_context(args) as runner:
            assert runner.backend.frame_timeout == 900.0

    def test_keyfile_shared_across_worker_and_cluster(self):
        surfaces = [self.subparser("worker", "serve"),
                    self.subparser("cluster", "serve"),
                    self.subparser("cluster", "status"),
                    self.subparser("cluster", "drain"),
                    self.subparser("cluster", "shutdown")]
        helps = {self.flag(s, "--keyfile").help for s in surfaces}
        assert len(helps) == 1

    def test_backend_spec_flag_parsed(self):
        args = build_parser().parse_args(
            ["compare", "--backend", "cluster://hub:7071?keyfile=k.key"])
        assert args.backend == "cluster://hub:7071?keyfile=k.key"

    def test_backend_serial_runs_end_to_end(self, capsys):
        assert main(["compare", "--benchmark", "HMMER", "--scale", "0.15",
                     "--cores", "1", "--no-cache",
                     "--backend", "serial"]) == 0
        assert "HMMER" in capsys.readouterr().out

    def test_backend_with_jobs_is_a_clean_exit(self, capsys):
        """``--backend`` and ``--jobs N`` contradict each other, as in
        ``Runner``: the run is refused instead of silently serial."""
        assert main(["compare", "--benchmark", "HMMER", "--scale", "0.1",
                     "--cores", "1", "--no-cache", "--backend", "serial",
                     "--jobs", "4"]) == 1
        captured = capsys.readouterr()
        assert "error: pass either jobs=N or backend=..., not both" \
            in captured.err
        assert captured.out == ""

    def test_progress_goes_to_stderr_with_a_backend_or_jobs(self):
        from repro.cli import _cli_progress, _runner_context
        for flags, progress in ((["--backend", "serial"], _cli_progress),
                                (["--jobs", "2"], _cli_progress),
                                ([], None)):
            args = build_parser().parse_args(["compare", *flags])
            with _runner_context(args) as runner:
                assert runner.progress is progress

    def test_bad_backend_spec_is_a_clean_exit(self, capsys):
        assert main(["compare", "--benchmark", "HMMER",
                     "--backend", "warp-drive"]) == 1
        assert "cannot parse backend spec" in capsys.readouterr().err


class TestClusterCli:
    def test_cluster_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster"])

    def test_keygen_writes_keyfile(self, tmp_path, capsys):
        path = tmp_path / "cluster.key"
        assert main(["cluster", "keygen", str(path)]) == 0
        assert "cluster key written" in capsys.readouterr().out
        from repro.exec.wire import FrameAuth
        assert FrameAuth.from_keyfile(path) is not None

    def test_status_against_live_dispatcher(self, capsys):
        from repro.exec.cluster import ClusterServer
        with ClusterServer() as server:
            host, port = server.address
            assert main(["cluster", "status", f"{host}:{port}"]) == 0
            status = json.loads(capsys.readouterr().out)
        assert status["queue_depth"] == 0
        assert status["workers"] == []

    def test_drain_and_shutdown_round_trip(self, capsys):
        from repro.exec.cluster import ClusterServer
        with ClusterServer() as server:
            host, port = server.address
            endpoint = f"{host}:{port}"
            assert main(["cluster", "drain", endpoint]) == 0
            assert "drained" in capsys.readouterr().out
            assert main(["cluster", "shutdown", endpoint]) == 0
            assert server.wait(timeout=30)

    def test_status_unreachable_is_a_clean_exit(self, capsys):
        assert main(["cluster", "status", "127.0.0.1:1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_top_shows_the_queue_and_each_worker(self, capsys):
        """``repro top`` against a live dispatcher with one registered
        worker: a header line for the queue and a row for the worker."""
        import time

        from repro.exec.cluster import ClusterServer, cluster_status
        from repro.exec.worker import registered_worker_pool
        with ClusterServer() as server:
            with registered_worker_pool(1, server.endpoint) as workers:
                deadline = time.monotonic() + 30
                while not cluster_status(server.address)["workers"]:
                    assert time.monotonic() < deadline, "worker never joined"
                    time.sleep(0.05)
                assert main(["top", server.endpoint,
                             "--iterations", "1"]) == 0
                lines = capsys.readouterr().out.splitlines()
                name = f"worker-{workers[0].process.pid}"
        assert lines[0] == ("cluster serving — queue 0, inflight 0, "
                            "completed 0, cache hit rate n/a")
        assert lines[1] == "workers (1):"
        # name, tasks done, seconds since the last heartbeat, state
        row = lines[2].split()
        assert row[:3] == [name, "completed=0", "idle"]
        assert row[3].endswith("s") and row[4] == "idle"
        assert len(lines) == 3
