"""Live Prometheus scrape endpoint over a :class:`MetricsRegistry`.

``start_metrics_server(registry, port=9100)`` binds a tiny threaded
HTTP server whose ``GET /metrics`` renders the registry's current
snapshot in the text exposition format (the same formatter the
``--emit-metrics`` dumps use), so a long-lived process — typically a
registered worker (``repro worker serve --register HOST:PORT
--metrics-port N``) or the cluster dispatcher — can be scraped by any
Prometheus-compatible collector instead of only dumping metrics at
shutdown. The server runs on a daemon thread and snapshots on every
request; registries are already thread-safe, so no coordination with
the serving process is needed.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Optional

from .exporters import to_prometheus

if TYPE_CHECKING:
    from .registry import MetricsRegistry

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _ScrapeHandler(BaseHTTPRequestHandler):
    """Serves /metrics from the registry attached to the server."""

    server_version = "repro-metrics/1"

    def do_GET(self) -> None:     # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = to_prometheus(self.server.registry.snapshot())
            self._send(200, body, PROMETHEUS_CONTENT_TYPE)
        elif path in ("/", "/health"):
            self._send(200, "repro metrics endpoint; scrape /metrics\n",
                       "text/plain; charset=utf-8")
        else:
            self._send(404, f"no route {path!r}; scrape /metrics\n",
                       "text/plain; charset=utf-8")

    def _send(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args) -> None:
        pass    # scrapes are periodic; per-request logging is noise


class _ScrapeServer(ThreadingHTTPServer):
    daemon_threads = True
    registry: "MetricsRegistry"


class MetricsHTTPServer:
    """A bound-but-not-yet-started scrape server; see :meth:`start`."""

    def __init__(self, registry: "MetricsRegistry", *,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.registry = registry
        self._server = _ScrapeServer((host, port), _ScrapeHandler)
        self._server.registry = registry
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "MetricsHTTPServer":
        """Serve on a daemon thread; returns self for chaining."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name=f"repro-metrics-{self.port}", daemon=True)
            self._thread.start()
        return self

    def close(self, timeout: float = 5.0) -> None:
        """Stop serving and release the socket."""
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "MetricsHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


def start_metrics_server(registry: "MetricsRegistry", *,
                         host: str = "127.0.0.1",
                         port: int = 0) -> MetricsHTTPServer:
    """Bind and start a scrape endpoint; ``port=0`` picks a free port."""
    return MetricsHTTPServer(registry, host=host, port=port).start()
