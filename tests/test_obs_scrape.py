"""The live Prometheus scrape endpoint (repro.obs.scrape)."""

import urllib.error
import urllib.request

import pytest

from repro.obs import MetricsRegistry
from repro.obs.scrape import PROMETHEUS_CONTENT_TYPE, start_metrics_server


@pytest.fixture()
def registry():
    registry = MetricsRegistry()
    registry.counter("mem.nvm.writes", unit="ops").inc(7)
    registry.gauge("cache.counter.entries", unit="entries").set(3)
    return registry


def fetch(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, dict(response.headers), \
            response.read().decode("utf-8")


class TestScrapeEndpoint:
    def test_metrics_route_serves_prometheus_text(self, registry):
        with start_metrics_server(registry) as server:
            status, headers, body = fetch(
                f"http://{server.endpoint}/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        assert "mem_nvm_writes 7" in body
        assert "cache_counter_entries 3" in body

    def test_scrape_is_live_not_a_snapshot_at_bind(self, registry):
        with start_metrics_server(registry) as server:
            registry.counter("mem.nvm.writes").inc(5)
            _, _, body = fetch(f"http://{server.endpoint}/metrics")
        assert "mem_nvm_writes 12" in body

    def test_index_and_health_routes(self, registry):
        with start_metrics_server(registry) as server:
            status, _, body = fetch(f"http://{server.endpoint}/")
            health_status, _, _ = fetch(f"http://{server.endpoint}/health")
        assert status == 200 and health_status == 200
        assert "/metrics" in body

    def test_unknown_route_is_404(self, registry):
        with start_metrics_server(registry) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(f"http://{server.endpoint}/nope")
        assert excinfo.value.code == 404

    def test_close_releases_the_port(self, registry):
        server = start_metrics_server(registry)
        endpoint = server.endpoint
        server.close()
        with pytest.raises(OSError):
            fetch(f"http://{endpoint}/metrics", timeout=0.5)

    def test_port_zero_picks_an_ephemeral_port(self, registry):
        with start_metrics_server(registry, port=0) as server:
            assert server.port > 0


class TestWorkerWiring:
    def test_serve_announces_metrics_endpoint(self, capsys):
        """worker serve --register ... --metrics-port 0 brings up a
        scrapeable endpoint for the registered worker's registry."""
        import re
        import threading

        from repro.cli import main
        from repro.exec.cluster import ClusterServer

        codes = {}
        with ClusterServer() as server:
            def run_worker():
                codes["exit"] = main(["worker", "serve", "--register",
                                      server.endpoint, "--metrics-port", "0",
                                      "--heartbeat", "0.2"])

            thread = threading.Thread(target=run_worker, daemon=True)
            thread.start()
            out = ""
            for _ in range(200):
                out += capsys.readouterr().out
                if "registered with" in out:
                    break
                thread.join(timeout=0.05)
            match = re.search(r"http://([\d.]+):(\d+)/metrics", out)
            assert match, out
            _, _, body = fetch(match.group(0))
            assert "exec_worker_tasks_served 0" in body
        # Stopping the dispatcher says goodbye: the worker exits cleanly.
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert codes["exit"] == 0

    def test_cli_parses_metrics_port(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["worker", "serve", "--register", "hub:7071",
             "--metrics-port", "9100"])
        assert args.metrics_port == 9100
        default = build_parser().parse_args(
            ["worker", "serve", "--register", "hub:7071"])
        assert default.metrics_port is None
        with pytest.raises(SystemExit):     # --register is required
            build_parser().parse_args(["worker", "serve"])
