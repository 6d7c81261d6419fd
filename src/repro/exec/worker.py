"""The experiment worker: a dial-out member of the experiment cluster.

``python -m repro worker serve --register HOST:PORT`` turns any machine
with the ``repro`` package into an execution endpoint for the cluster
dispatcher (:mod:`repro.exec.cluster`). :func:`run_registered_worker`
dials out to the dispatcher, holds one persistent authenticated
connection speaking the length-prefixed JSON protocol of
:mod:`repro.exec.wire`, heartbeats while idle, executes ``run`` frames
as they arrive — answering each with a ``result`` frame (the
``SystemReport.to_dict()`` payload) or an ``error`` frame if the task
raised — and drains gracefully on shutdown. No inbound port is needed,
so fleets behind NAT or in containers just work. Executor exceptions
never kill the worker: the dispatcher owns the retry decision.

Workers are deliberately sequential (one task at a time): parallelism
comes from running more workers, which keeps each worker's memory
footprint to a single simulation.

:func:`spawn_registered_workers` / :func:`registered_worker_pool` fork
workers on this machine — the easy way to use every local core through
the same code path as a remote fleet (``--spawn-local N``), and how the
test-suite exercises fault handling.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import socket
import threading
import time
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple, Union

from ..errors import BackendError, WireAuthError, WireProtocolError
from ..obs import DEFAULT_DURATION_BUCKETS_NS, MetricsRegistry
from .wire import (MSG_DRAIN, MSG_GOODBYE, MSG_PING, MSG_PONG, MSG_RUN,
                   MSG_SHUTDOWN, MSG_WELCOME, FrameAuth, error_reply,
                   hello_message, recv_message, result_reply, send_message)


class _TaskExecutor:
    """Runs a worker's ``run`` frames and answers each with a reply frame.

    ``cache_dir`` enables a worker-side :class:`~repro.exec.ResultCache`
    consulted before executing each task, so repeated dispatches of the
    same experiment (e.g. after a dispatcher restart) are served from
    disk; its key includes the code-version salt, so worker and
    dispatcher code drift can never serve stale results. Each task runs
    under an ``exec.worker.task`` span and feeds the ``exec.worker.*``
    instruments of ``metrics``.
    """

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.cache = None
        if cache_dir is not None:
            from .cache import ResultCache
            self.cache = ResultCache(cache_dir)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if self.cache is not None:
            self.cache.bind_metrics(self.metrics, prefix="exec.worker.cache")
        self._tasks_counter = self.metrics.counter(
            "exec.worker.tasks_served", unit="ops")
        self._errors_counter = self.metrics.counter(
            "exec.worker.errors", unit="ops")
        self._duration_hist = self.metrics.histogram(
            "exec.worker.task_duration_ns", unit="ns",
            buckets=DEFAULT_DURATION_BUCKETS_NS)

    def run(self, request: dict) -> dict:
        """The ``result`` (or ``error``) frame answering one ``run`` frame."""
        started = time.perf_counter_ns()
        try:
            document = request["experiment"]
            if not isinstance(document, dict):
                raise BackendError("run request carries no experiment dict")
            # A propagated trace context makes this task's span part of
            # the dispatching client's timeline; without one the span
            # roots a fresh single-process trace.
            from ..obs import SpanTracer, TraceContext
            context = TraceContext.from_dict(request.get("trace"))
            tracer = SpanTracer.for_context(context, process="worker")
            with tracer.span("exec.worker.task",
                             attrs={"label": str(document.get("name")
                                                or document.get("workload")
                                                or "?")}) as record:
                report_doc, cache_hit = self._execute_cached(document)
                record.attrs["cache_hit"] = cache_hit
            self._tasks_counter.inc()
            self._duration_hist.observe(time.perf_counter_ns() - started)
            return result_reply(report_doc, spans=tracer.snapshot())
        except Exception as error:      # noqa: BLE001 - survive any task
            self._errors_counter.inc()
            return error_reply(error)

    def _execute_cached(self, document: dict) -> tuple:
        """Run one experiment document, through the worker cache if any.

        Returns ``(report_doc, cache_hit)``.
        """
        # Imported lazily so a worker process only pays for the
        # simulator once it actually receives work.
        from .backends import _execute_to_dict
        if self.cache is None:
            return _execute_to_dict(document), False
        from .experiment import Experiment
        experiment = Experiment.from_dict(document)
        cached = self.cache.get(experiment)
        if cached is not None:
            return cached.to_dict(), True
        report_doc = _execute_to_dict(document)
        from ..sim.system import SystemReport
        self.cache.put(experiment, SystemReport.from_dict(report_doc))
        return report_doc, False


# ---------------------------------------------------------------------------
# Registered (dial-out) cluster workers
# ---------------------------------------------------------------------------

#: Generous limit for the dispatcher's ``welcome`` during registration.
HANDSHAKE_TIMEOUT = 10.0

#: Consecutive failed registrations before a registered worker gives up
#: (a likely auth or version mismatch, not a transient outage).
MAX_HANDSHAKE_FAILURES = 3


def _dial_dispatcher(address: Tuple[str, int], window: float,
                     stop: threading.Event) -> Optional[socket.socket]:
    """Connect to the dispatcher, retrying within ``window`` seconds."""
    deadline = time.monotonic() + window
    while not stop.is_set():
        try:
            return socket.create_connection(address, timeout=5.0)
        except OSError:
            if time.monotonic() >= deadline:
                return None
            stop.wait(0.2)
    return None


def run_registered_worker(dispatcher: Union[str, Tuple[str, int]], *,
                          auth: Optional[FrameAuth] = None,
                          keyfile: Optional[Union[str, Path]] = None,
                          name: Optional[str] = None,
                          cache_dir: Optional[Union[str, Path]] = None,
                          max_tasks: Optional[int] = None,
                          heartbeat: float = 5.0,
                          connect_window: float = 10.0,
                          metrics: Optional[MetricsRegistry] = None,
                          announce: Optional[Callable[[str], None]] = None,
                          stop_event: Optional[threading.Event] = None,
                          ) -> int:
    """Serve an experiment cluster over one dial-out connection.

    Registers with the dispatcher at ``dispatcher`` (``"host:port"``),
    executes ``run`` frames one at a time, sends ``ping`` heartbeats
    while idle, and reconnects (within ``connect_window`` seconds) when
    the dispatcher drops. The worker leaves via graceful drain — after
    ``max_tasks`` tasks or once ``stop_event`` is set it asks the
    dispatcher to stop assigning work and exits on the dispatcher's
    ``goodbye``, so no task is ever abandoned mid-flight.

    ``auth``/``keyfile`` enable HMAC frame authentication (must match
    the dispatcher's key); a key mismatch raises
    :class:`~repro.errors.WireAuthError` instead of retrying forever.
    Returns the number of tasks served.
    """
    from .backends import parse_address
    address = parse_address(dispatcher)
    if auth is None and keyfile is not None:
        auth = FrameAuth.from_keyfile(keyfile)
    stop = stop_event if stop_event is not None else threading.Event()
    worker_name = name or f"worker-{os.getpid()}"
    executor = _TaskExecutor(cache_dir=cache_dir, metrics=metrics)
    served = 0
    handshake_failures = 0
    while not stop.is_set():
        sock = _dial_dispatcher(address, connect_window, stop)
        if sock is None:
            break
        registered = False
        draining = False
        try:
            sock.settimeout(HANDSHAKE_TIMEOUT)
            send_message(sock, hello_message("worker", worker_name),
                         auth=auth)
            welcome = recv_message(sock, auth=auth)
            if welcome.get("type") != MSG_WELCOME:
                raise WireProtocolError(
                    f"dispatcher refused registration: {welcome!r}")
            registered = True
            handshake_failures = 0
            if announce is not None:
                announce(f"registered with {address[0]}:{address[1]} "
                         f"as {worker_name} "
                         f"(session {welcome.get('id', '?')})")
            sock.settimeout(heartbeat)
            while True:
                try:
                    message = recv_message(sock, auth=auth)
                except socket.timeout:
                    if (stop.is_set() or (max_tasks is not None
                                          and served >= max_tasks)):
                        if not draining:
                            send_message(sock, {"type": MSG_DRAIN},
                                         auth=auth)
                            draining = True
                    else:
                        send_message(sock, {"type": MSG_PING}, auth=auth)
                    continue
                kind = message.get("type")
                if kind == MSG_RUN:
                    reply = executor.run(message)
                    reply["task"] = message.get("task")
                    send_message(sock, reply, auth=auth)
                    served += 1
                    if max_tasks is not None and served >= max_tasks \
                            and not draining:
                        send_message(sock, {"type": MSG_DRAIN}, auth=auth)
                        draining = True
                elif kind == MSG_PONG:
                    snapshot = message.get("metrics")
                    if isinstance(snapshot, dict):
                        # Heartbeat replies carry the dispatcher's
                        # cumulative registry; mirroring it keeps this
                        # worker's scrape endpoint (--metrics-port)
                        # showing the whole cluster's exec.cluster.*
                        # instruments, not just exec.worker.*.
                        executor.metrics.update_from_snapshot(snapshot)
                elif kind in (MSG_GOODBYE, MSG_SHUTDOWN):
                    return served
                # unknown frames: ignore
        except WireAuthError:
            raise       # wrong shared key: retrying cannot help
        except (WireProtocolError, OSError):
            if not registered:
                handshake_failures += 1
                if handshake_failures >= MAX_HANDSHAKE_FAILURES:
                    raise WireProtocolError(
                        f"dispatcher at {address[0]}:{address[1]} dropped "
                        f"{handshake_failures} registration attempts in a "
                        f"row (auth key mismatch?)")
            if stop.is_set():
                break
            # Dispatcher restart or network blip: dial again.
        finally:
            sock.close()
    return served


def _registered_worker_main(dispatcher: str, keyfile: Optional[str],
                            cache_dir: Optional[str],
                            max_tasks: Optional[int],
                            heartbeat: float) -> None:
    run_registered_worker(dispatcher, keyfile=keyfile, cache_dir=cache_dir,
                          max_tasks=max_tasks, heartbeat=heartbeat)


class RegisteredWorker:
    """Handle on one forked dial-out worker process."""

    def __init__(self, process: multiprocessing.process.BaseProcess) -> None:
        self.process = process

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def terminate(self, timeout: float = 5.0) -> None:
        """Kill the worker process (SIGTERM) and reap it."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout)


def spawn_registered_workers(count: int, dispatcher: str, *,
                             keyfile: Optional[Union[str, Path]] = None,
                             cache_dir: Optional[Union[str, Path]] = None,
                             max_tasks: Optional[int] = None,
                             heartbeat: float = 1.0,
                             ) -> List[RegisteredWorker]:
    """Fork ``count`` workers that register with a cluster dispatcher.

    Prefers the ``fork`` start method, so the forked processes inherit
    test-registered workload kinds; they dial ``dispatcher``
    (``"host:port"``) on start and exit when the dispatcher says
    goodbye.
    """
    if count < 1:
        raise BackendError(f"worker count must be >= 1, got {count}")
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else None)
    workers: List[RegisteredWorker] = []
    for _ in range(count):
        process = context.Process(
            target=_registered_worker_main,
            args=(dispatcher,
                  str(keyfile) if keyfile is not None else None,
                  str(cache_dir) if cache_dir is not None else None,
                  max_tasks, heartbeat),
            daemon=True)
        process.start()
        workers.append(RegisteredWorker(process))
    return workers


@contextlib.contextmanager
def registered_worker_pool(count: int, dispatcher: str, *,
                           keyfile: Optional[Union[str, Path]] = None,
                           cache_dir: Optional[Union[str, Path]] = None,
                           max_tasks: Optional[int] = None,
                           heartbeat: float = 1.0,
                           ) -> Iterator[List[RegisteredWorker]]:
    """``with registered_worker_pool(2, "host:7071"):`` — spawn, clean up."""
    workers = spawn_registered_workers(count, dispatcher, keyfile=keyfile,
                                       cache_dir=cache_dir,
                                       max_tasks=max_tasks,
                                       heartbeat=heartbeat)
    try:
        yield workers
    finally:
        for worker in workers:
            worker.terminate()
