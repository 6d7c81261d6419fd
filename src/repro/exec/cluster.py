"""Simulation-as-a-service: the experiment cluster.

:class:`ClusterDispatcher` is a long-lived asyncio service and the one
way to run experiments on other processes or machines. *Everyone dials
the dispatcher*:

* **Workers** self-register over a persistent connection
  (``repro worker serve --register HOST:PORT``), send idle heartbeats,
  and leave via graceful drain — the fleet can grow, shrink and roll
  without any client noticing.
* **Clients** (:class:`ClusterBackend`, pluggable into
  :class:`~repro.exec.Runner` like any other backend) submit batches of
  experiment documents and stream results back. Every task waits in
  one first-in, first-out queue, whichever client submitted it, and
  owes exactly one delivery: its slot in the submitting batch.
* **A shared cache tier**: the dispatcher consults one
  :class:`~repro.exec.ResultCache` for every submission, so any
  client's warm hit is every client's warm hit.

Fault handling splits worker faults from task faults: a worker that
dies mid-task has its task re-queued for the survivors (charged to the
worker, not the task), an executor error or a ``task_timeout`` burns
one of the task's retries, and a task that exhausts ``max_retries``
fails only its own batch. A ``drain`` admin request completes all
queued and in-flight work — none lost, none duplicated — then refuses
new submissions.

All connections speak the length-prefixed JSON protocol of
:mod:`repro.exec.wire`; give the dispatcher and every peer the same
keyfile (:class:`~repro.exec.wire.FrameAuth`) and each frame in both
directions is HMAC-signed, with unauthenticated peers dropped at the
first frame. Pass ``ssl`` contexts through the seams for encrypted
transport.

Telemetry rides the ``exec.cluster.*`` namespace (queue depth,
per-task latency, drain latency, cache-tier hits; see
``docs/OBSERVABILITY.md``), and the ``status`` admin request reports
the workers, the queue and the cache tier.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import os
import socket
import threading
import time
from typing import (Any, Deque, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from ..errors import (BackendError, ClusterError, WireAuthError,
                      WireProtocolError)
from ..obs import (DEFAULT_DURATION_BUCKETS_NS, MetricsRegistry, SpanTracer,
                   default_tracer, merge_span_records)
from ..sim.system import SystemReport
from .backends import Address, ExecutionBackend, NotifyFn, parse_address
from .cache import ResultCache
from .experiment import Experiment
from .wire import (HEADER_BYTES, MSG_BATCH_DONE, MSG_DRAIN, MSG_DRAINED,
                   MSG_ERROR, MSG_GOODBYE, MSG_HELLO, MSG_NOTICE, MSG_OK,
                   MSG_PING, MSG_PONG, MSG_RESULT, MSG_SHUTDOWN, MSG_STATUS,
                   MSG_SUBMIT, MSG_WELCOME, PROTO_VERSION, FrameAuth,
                   decode_payload, encode_frame, hello_message, recv_message,
                   run_request, send_message, unpack_length)

#: How long a connecting peer has to present its ``hello`` frame.
HANDSHAKE_TIMEOUT = 10.0


class _ConnectionClosed(Exception):
    """The peer hung up (EOF / reset) — a session end, not a protocol bug."""


async def _read_frame(reader: asyncio.StreamReader,
                      auth: Optional[FrameAuth]) -> Dict[str, Any]:
    """Read one wire frame from a stream, verifying auth when enabled."""
    try:
        header = await reader.readexactly(HEADER_BYTES)
        payload = await reader.readexactly(unpack_length(header))
    except (asyncio.IncompleteReadError, ConnectionError):
        raise _ConnectionClosed()
    return decode_payload(payload, auth=auth)


# ---------------------------------------------------------------------------
# Dispatcher state records
# ---------------------------------------------------------------------------

class _ClusterTask:
    """One unit of cluster work, owed to exactly one batch slot.

    ``client_id``/``batch``/``index`` name the delivery the result
    owes. A task whose client hung up while a worker held it still
    runs (warming the shared cache) but delivers to nobody.
    """

    __slots__ = ("experiment", "payload", "label", "attempts",
                 "client_id", "batch", "index", "trace")

    def __init__(self, experiment: Experiment, payload: Dict[str, Any],
                 label: str, client_id: int, batch: str, index: int,
                 trace: Optional[Dict[str, Any]] = None) -> None:
        self.experiment = experiment
        self.payload = payload
        self.label = label
        self.attempts = 0
        self.client_id = client_id
        self.batch = batch
        self.index = index
        #: TraceContext document of the submitting batch, propagated to
        #: the executing worker and stamped on the dispatcher's span.
        self.trace = trace


class _WorkerSession:
    """Dispatcher-side state of one registered worker connection."""

    __slots__ = ("id", "name", "writer", "task", "task_id", "started",
                 "started_ns", "deadline", "last_seen", "completed",
                 "draining", "closing")

    def __init__(self, session_id: int, name: str,
                 writer: asyncio.StreamWriter, now: float) -> None:
        self.id = session_id
        self.name = name
        self.writer = writer
        self.task: Optional[_ClusterTask] = None
        self.task_id = -1
        self.started = now
        self.started_ns = 0       # perf_counter_ns at assignment (spans)
        self.deadline = 0.0
        self.last_seen = now
        self.completed = 0
        self.draining = False
        self.closing = False


class _ClientSession:
    """Dispatcher-side state of one client connection."""

    __slots__ = ("id", "writer", "remaining")

    def __init__(self, session_id: int,
                 writer: asyncio.StreamWriter) -> None:
        self.id = session_id
        self.writer = writer
        #: per-batch undelivered result count, for ``batch-done`` frames
        self.remaining: Dict[str, int] = {}


# ---------------------------------------------------------------------------
# The dispatcher
# ---------------------------------------------------------------------------

class ClusterDispatcher:
    """The long-lived multiplexing heart of the experiment cluster.

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` lets the OS pick (read it back from
        :attr:`address` after :meth:`start`).
    auth:
        A :class:`~repro.exec.wire.FrameAuth` shared with every worker
        and client. When set, each frame in both directions is
        HMAC-signed and a peer whose first frame fails verification is
        dropped (counted in ``exec.cluster.auth_failures``).
    cache:
        The cluster-wide shared :class:`~repro.exec.ResultCache` tier.
        Every submission is served from it when warm, and every fresh
        result is stored back, so one client's run is every client's
        cache hit. ``None`` disables the tier.
    task_timeout:
        Seconds a worker may hold one task before the dispatcher closes
        the wedged connection and charges the attempt to the task.
    max_retries:
        Failed attempts (errors, timeouts) a task survives before its
        submitting batch receives an ``error`` frame.
    heartbeat_timeout:
        Seconds of silence after which an idle registered worker is
        declared dead and its connection closed. A busy worker sends
        nothing while it executes, so ``task_timeout`` alone bounds it.
    tick:
        Reaper period (seconds) for deadline and heartbeat checks.
    ssl:
        Optional ``ssl.SSLContext`` for the listening socket — the TLS
        seam; peers must then connect with a matching client context.
    metrics:
        The dispatcher's :class:`~repro.obs.MetricsRegistry`; receives
        the ``exec.cluster.*`` instruments.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 auth: Optional[FrameAuth] = None,
                 cache: Optional[ResultCache] = None,
                 task_timeout: float = 300.0,
                 max_retries: int = 3,
                 heartbeat_timeout: float = 30.0,
                 tick: float = 0.25,
                 ssl: Optional[Any] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.host = host
        self.port = int(port)
        self.auth = auth
        self.cache = cache
        self.task_timeout = float(task_timeout)
        self.max_retries = int(max_retries)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.tick = float(tick)
        self.ssl = ssl
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Dispatcher-side span records (task lifetimes, cache hits);
        #: each record is also shipped to the submitting client so the
        #: merged timeline gets a dispatcher lane.
        self.tracer = SpanTracer(process="dispatcher")

        self._workers: Dict[int, _WorkerSession] = {}
        self._clients: Dict[int, _ClientSession] = {}
        self._queue: Deque[_ClusterTask] = collections.deque()
        self._next_id = 1
        self._next_task_id = 1
        self._draining = False
        self._stopped = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._reaper: Optional[asyncio.Task] = None
        self._drain_waiters: List[asyncio.Future] = []
        self._on_stop: List[Any] = []

        if self.cache is not None:
            self.cache.bind_metrics(self.metrics, prefix="exec.cluster.cache")
        counter = self.metrics.counter
        self._m_submissions = counter("exec.cluster.submissions", unit="ops")
        self._m_completed = counter("exec.cluster.tasks_completed",
                                    unit="ops")
        self._m_failed = counter("exec.cluster.tasks_failed", unit="ops")
        self._m_requeues = counter("exec.cluster.requeues", unit="ops")
        self._m_retries = counter("exec.cluster.retries", unit="ops")
        self._m_timeouts = counter("exec.cluster.timeouts", unit="ops")
        self._m_results = counter("exec.cluster.results_sent", unit="ops")
        self._m_auth_failures = counter("exec.cluster.auth_failures",
                                        unit="ops")
        self._m_queue_depth = self.metrics.gauge("exec.cluster.queue_depth")
        self._m_workers = self.metrics.gauge("exec.cluster.workers")
        self._m_inflight = self.metrics.gauge("exec.cluster.inflight")
        self._m_task_duration = self.metrics.histogram(
            "exec.cluster.task_duration_ns", unit="ns",
            buckets=DEFAULT_DURATION_BUCKETS_NS)
        self._m_drain_duration = self.metrics.histogram(
            "exec.cluster.drain_duration_ns", unit="ns",
            buckets=DEFAULT_DURATION_BUCKETS_NS)

    # -- lifecycle ----------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    @property
    def draining(self) -> bool:
        return self._draining

    def add_stop_callback(self, callback) -> None:
        """Run ``callback()`` (loop thread) once the dispatcher stops."""
        self._on_stop.append(callback)

    async def start(self) -> Tuple[str, int]:
        """Bind, start serving and start the reaper; returns the endpoint."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, ssl=self.ssl)
        self.port = self._server.sockets[0].getsockname()[1]
        self._reaper = self._loop.create_task(self._reap_loop())
        return self.address

    async def stop(self) -> None:
        """Stop serving: goodbye the workers, close every connection."""
        if self._stopped:
            return
        self._stopped = True
        if self._reaper is not None:
            self._reaper.cancel()
        if self._server is not None:
            self._server.close()
        for waiter in self._drain_waiters:
            if not waiter.done():
                waiter.set_result(None)
        self._drain_waiters.clear()
        for worker in list(self._workers.values()):
            self._write(worker.writer, {"type": MSG_GOODBYE})
            worker.closing = True
            worker.writer.close()
        for client in list(self._clients.values()):
            client.writer.close()
        if self._server is not None:
            await self._server.wait_closed()
        for callback in self._on_stop:
            callback()

    # -- connection handling ------------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            hello = await asyncio.wait_for(_read_frame(reader, self.auth),
                                           HANDSHAKE_TIMEOUT)
        except WireAuthError:
            self._m_auth_failures.inc()
            writer.close()
            return
        except (_ConnectionClosed, WireProtocolError, asyncio.TimeoutError,
                OSError):
            writer.close()
            return
        if hello.get("type") != MSG_HELLO:
            self._write(writer, {"type": MSG_ERROR,
                                 "error": "expected a hello frame",
                                 "kind": "ClusterError"})
            writer.close()
            return
        # Absent means a pre-versioning peer, which speaks generation 1.
        proto = hello.get("proto", PROTO_VERSION)
        if proto != PROTO_VERSION:
            self._write(writer, {"type": MSG_ERROR,
                                 "error": f"unsupported protocol version "
                                          f"{proto!r} (dispatcher speaks "
                                          f"{PROTO_VERSION})",
                                 "kind": "ClusterError"})
            writer.close()
            return
        role = hello.get("role")
        try:
            if role == "worker":
                await self._serve_worker(reader, writer, hello)
            elif role == "client":
                await self._serve_client(reader, writer)
            else:
                self._write(writer, {"type": MSG_ERROR,
                                     "error": f"unknown role {role!r}",
                                     "kind": "ClusterError"})
        finally:
            writer.close()

    # -- worker sessions ----------------------------------------------------------

    async def _serve_worker(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter,
                            hello: Dict[str, Any]) -> None:
        assert self._loop is not None
        session_id = self._next_id
        self._next_id += 1
        name = str(hello.get("name") or f"worker-{session_id}")
        worker = _WorkerSession(session_id, name, writer, self._loop.time())
        self._workers[session_id] = worker
        self._m_workers.set(len(self._workers))
        self._write(writer, {"type": MSG_WELCOME, "id": session_id})
        self._assign()
        try:
            while not self._stopped:
                try:
                    message = await _read_frame(reader, self.auth)
                except WireAuthError:
                    self._m_auth_failures.inc()
                    break
                except (_ConnectionClosed, WireProtocolError, OSError):
                    break
                worker.last_seen = self._loop.time()
                kind = message.get("type")
                if kind == MSG_PING:
                    self._write(writer, {"type": MSG_PONG})
                elif kind == MSG_RESULT:
                    self._on_worker_result(worker, message)
                elif kind == MSG_ERROR:
                    self._on_worker_error(worker, message)
                elif kind == MSG_DRAIN:
                    worker.draining = True
                    if worker.task is None:
                        self._write(writer, {"type": MSG_GOODBYE})
                        break
                # anything else: ignore (forward compatibility)
        finally:
            self._workers.pop(session_id, None)
            self._m_workers.set(len(self._workers))
            stranded = worker.task
            worker.task = None
            if stranded is not None and not self._stopped:
                # The endpoint died mid-task: requeue for the
                # survivors, don't charge the task's retry budget.
                self._m_requeues.inc()
                self._requeue(stranded)
            self._assign()

    def _on_worker_result(self, worker: _WorkerSession,
                          message: Dict[str, Any]) -> None:
        assert self._loop is not None
        task = worker.task
        if task is None or message.get("task") != worker.task_id:
            return      # stale frame from a reassigned/timed-out task
        worker.task = None
        worker.completed += 1
        self._m_completed.inc()
        self._m_task_duration.observe(
            (self._loop.time() - worker.started) * 1e9)
        report_doc = message.get("result")
        if not isinstance(report_doc, dict):
            self._task_attempt_failed(task, "worker sent a result frame "
                                            "without a result document")
            self._assign()
            return
        if self.cache is not None:
            self.cache.put(task.experiment, SystemReport.from_dict(report_doc))
        worker_spans = message.get("spans")
        if not isinstance(worker_spans, list):
            worker_spans = []
        trace = task.trace or {}
        dispatcher_span = self.tracer.record_span(
            "exec.cluster.task",
            start_ns=worker.started_ns,
            duration_ns=time.perf_counter_ns() - worker.started_ns,
            attrs={"label": task.label, "worker": worker.name,
                   "attempts": task.attempts},
            trace_id=trace.get("trace_id"),
            parent_span_id=trace.get("parent_span_id"))
        spans = merge_span_records(worker_spans, [dispatcher_span.to_dict()])
        self._send_result(task.client_id, task.batch, task.index, report_doc,
                          spans=spans)
        if worker.draining:
            self._write(worker.writer, {"type": MSG_GOODBYE})
            worker.closing = True
            worker.writer.close()
        self._assign()

    def _on_worker_error(self, worker: _WorkerSession,
                         message: Dict[str, Any]) -> None:
        task = worker.task
        if task is None or message.get("task") != worker.task_id:
            return
        worker.task = None
        error = f"{message.get('kind', 'Error')}: {message.get('error', '?')}"
        self._task_attempt_failed(task, error)
        if worker.draining:
            self._write(worker.writer, {"type": MSG_GOODBYE})
            worker.closing = True
            worker.writer.close()
        self._assign()

    def _task_attempt_failed(self, task: _ClusterTask, error: str) -> None:
        """One attempt failed on a live worker: retry or fail the task."""
        task.attempts += 1
        self._m_retries.inc()
        if task.attempts > self.max_retries:
            self._fail_task(task, f"experiment {task.label!r} failed after "
                                  f"{task.attempts} attempts: {error}")
        else:
            self._requeue(task)

    def _requeue(self, task: _ClusterTask) -> None:
        """Put a task back at the tail of the queue, or drop it when its
        client has hung up."""
        if task.client_id not in self._clients:
            return
        self._queue.append(task)
        self._send_notice(task.client_id, task.batch, task.label)
        self._update_queue_gauges()

    def _fail_task(self, task: _ClusterTask, error: str) -> None:
        self._m_failed.inc()
        self._send_task_error(task.client_id, task.batch, task.index,
                              task.label, error)

    # -- client sessions ----------------------------------------------------------

    async def _serve_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        session_id = self._next_id
        self._next_id += 1
        client = _ClientSession(session_id, writer)
        self._clients[session_id] = client
        self._write(writer, {"type": MSG_WELCOME, "id": session_id})
        try:
            while not self._stopped:
                try:
                    message = await _read_frame(reader, self.auth)
                except WireAuthError:
                    self._m_auth_failures.inc()
                    break
                except (_ConnectionClosed, WireProtocolError, OSError):
                    break
                kind = message.get("type")
                if kind == MSG_SUBMIT:
                    self._on_submit(client, message)
                elif kind == MSG_STATUS:
                    self._write(writer, self._status_reply())
                elif kind == MSG_DRAIN:
                    await self._on_drain(client, message)
                elif kind == MSG_SHUTDOWN:
                    self._write(writer, {"type": MSG_OK})
                    assert self._loop is not None
                    self._loop.create_task(self.stop())
                    break
                elif kind == MSG_PING:
                    self._write(writer, {"type": MSG_PONG})
                # anything else: ignore (forward compatibility)
        finally:
            self._clients.pop(session_id, None)
            if not self._stopped:
                self._forget_client(client)

    def _on_submit(self, client: _ClientSession,
                   message: Dict[str, Any]) -> None:
        batch = str(message.get("batch", "b0"))
        documents = message.get("experiments")
        if self._draining:
            self._write(client.writer, {
                "type": MSG_ERROR, "batch": batch,
                "error": "dispatcher is draining and refuses new batches",
                "kind": "ClusterError"})
            return
        if not isinstance(documents, list) or not documents:
            self._write(client.writer, {
                "type": MSG_ERROR, "batch": batch,
                "error": "submit carries no experiment list",
                "kind": "ClusterError"})
            return
        self._m_submissions.inc()
        client.remaining[batch] = len(documents)
        trace = message.get("trace")
        if not isinstance(trace, dict):
            trace = None
        for index, document in enumerate(documents):
            try:
                experiment = Experiment.from_dict(document)
            except Exception as error:    # noqa: BLE001 - report, don't die
                self._send_task_error(client.id, batch, index,
                                      f"task-{index}",
                                      f"bad experiment document: {error}")
                continue
            label = experiment.name or experiment.workload
            lookup_ns = time.perf_counter_ns()
            cached = self.cache.get(experiment) \
                if self.cache is not None else None
            if cached is not None:
                hit_span = self.tracer.record_span(
                    "exec.cluster.cache_hit",
                    start_ns=lookup_ns,
                    duration_ns=time.perf_counter_ns() - lookup_ns,
                    attrs={"label": label},
                    trace_id=(trace or {}).get("trace_id"),
                    parent_span_id=(trace or {}).get("parent_span_id"))
                self._send_result(client.id, batch, index, cached.to_dict(),
                                  spans=[hit_span.to_dict()])
                continue
            self._queue.append(_ClusterTask(experiment, document, label,
                                            client.id, batch, index,
                                            trace=trace))
        self._update_queue_gauges()
        self._assign()

    def _forget_client(self, client: _ClientSession) -> None:
        """Client hung up: drop its queued tasks. A task a worker holds
        runs on and warms the shared cache, delivering to nobody."""
        self._queue = collections.deque(
            task for task in self._queue if task.client_id != client.id)
        self._update_queue_gauges()
        self._maybe_finish_drain()

    # -- drain --------------------------------------------------------------------

    async def _on_drain(self, client: _ClientSession,
                        message: Dict[str, Any]) -> None:
        assert self._loop is not None
        started = self._loop.time()
        self._draining = True
        waiter: asyncio.Future = self._loop.create_future()
        self._drain_waiters.append(waiter)
        self._maybe_finish_drain()
        await waiter
        self._m_drain_duration.observe((self._loop.time() - started) * 1e9)
        if message.get("stop_workers"):
            for worker in list(self._workers.values()):
                worker.draining = True
                if worker.task is None:
                    self._write(worker.writer, {"type": MSG_GOODBYE})
                    worker.closing = True
                    worker.writer.close()
        self._write(client.writer, {
            "type": MSG_DRAINED,
            "completed": int(self._m_completed.value),
            "duration_s": self._loop.time() - started})

    def _maybe_finish_drain(self) -> None:
        if not self._draining or not self._drain_waiters:
            return
        inflight = sum(1 for w in self._workers.values()
                       if w.task is not None)
        if len(self._queue) == 0 and inflight == 0:
            for waiter in self._drain_waiters:
                if not waiter.done():
                    waiter.set_result(None)
            self._drain_waiters.clear()

    # -- scheduling ---------------------------------------------------------------

    def _assign(self) -> None:
        """Hand queued tasks to idle workers, oldest task first."""
        assert self._loop is not None
        while self._queue:
            worker = next(
                (w for w in self._workers.values()
                 if w.task is None and not w.draining and not w.closing),
                None)
            if worker is None:
                break
            task = self._queue.popleft()
            task_id = self._next_task_id
            self._next_task_id += 1
            worker.task = task
            worker.task_id = task_id
            worker.started = self._loop.time()
            worker.started_ns = time.perf_counter_ns()
            worker.deadline = worker.started + self.task_timeout
            frame = run_request(task.payload, trace=task.trace)
            frame["task"] = task_id
            self._write(worker.writer, frame)
        self._update_queue_gauges()
        self._maybe_finish_drain()

    def _update_queue_gauges(self) -> None:
        self._m_queue_depth.set(len(self._queue))
        self._m_inflight.set(sum(1 for w in self._workers.values()
                                 if w.task is not None))

    async def _reap_loop(self) -> None:
        """Periodic deadline and heartbeat enforcement.

        A worker sends no heartbeat while it executes, so a busy worker
        answers to ``task_timeout`` alone and the heartbeat silence
        check applies to idle workers only.
        """
        assert self._loop is not None
        while True:
            await asyncio.sleep(self.tick)
            now = self._loop.time()
            for worker in list(self._workers.values()):
                if worker.closing:
                    continue
                if worker.task is not None:
                    if now > worker.deadline:
                        # Wedged mid-task: the protocol has no cancel, so
                        # drop the connection and charge the attempt to
                        # the task (it may be the task's fault).
                        task = worker.task
                        worker.task = None
                        worker.closing = True
                        worker.writer.close()
                        self._m_timeouts.inc()
                        self._task_attempt_failed(
                            task, f"no result within {self.task_timeout:g}s")
                elif now - worker.last_seen > self.heartbeat_timeout:
                    worker.closing = True
                    worker.writer.close()
            self._assign()

    # -- client delivery ----------------------------------------------------------

    def _send_result(self, client_id: int, batch: str, index: int,
                     report_doc: Dict[str, Any], *,
                     spans: Optional[List[Dict[str, Any]]] = None) -> None:
        client = self._clients.get(client_id)
        if client is None:
            return
        self._m_results.inc()
        frame = {"type": MSG_RESULT, "batch": batch,
                 "task": index, "result": report_doc}
        if spans:
            frame["spans"] = spans
        self._write(client.writer, frame)
        self._batch_delivered(client, batch)

    def _send_task_error(self, client_id: int, batch: str, index: int,
                         label: str, error: str) -> None:
        client = self._clients.get(client_id)
        if client is None:
            return
        self._write(client.writer, {"type": MSG_ERROR, "batch": batch,
                                    "task": index, "label": label,
                                    "error": error,
                                    "kind": "BackendError"})
        self._batch_delivered(client, batch)

    def _send_notice(self, client_id: int, batch: str, label: str) -> None:
        client = self._clients.get(client_id)
        if client is None:
            return
        self._write(client.writer, {"type": MSG_NOTICE, "batch": batch,
                                    "event": "retry", "label": label})

    def _batch_delivered(self, client: _ClientSession, batch: str) -> None:
        if batch not in client.remaining:
            return
        client.remaining[batch] -= 1
        if client.remaining[batch] <= 0:
            del client.remaining[batch]
            self._write(client.writer,
                        {"type": MSG_BATCH_DONE, "batch": batch})

    def _write(self, writer: asyncio.StreamWriter,
               message: Dict[str, Any]) -> None:
        if writer.is_closing():
            return
        try:
            writer.write(encode_frame(message, auth=self.auth))
        except (OSError, RuntimeError):    # pragma: no cover - racing close
            pass

    # -- introspection ------------------------------------------------------------

    def _status_reply(self) -> Dict[str, Any]:
        now = self._loop.time() if self._loop is not None else 0.0
        workers = [{"name": w.name, "completed": w.completed,
                    "busy": w.task is not None, "draining": w.draining,
                    "idle_s": max(0.0, now - w.last_seen)}
                   for w in self._workers.values()]
        reply: Dict[str, Any] = {
            "type": MSG_STATUS,
            "workers": workers,
            "queue_depth": len(self._queue),
            "inflight": sum(1 for w in self._workers.values()
                            if w.task is not None),
            "tasks_completed": int(self._m_completed.value),
            "draining": self._draining,
        }
        if self.cache is not None:
            stats = self.cache.stats
            reply["cache"] = {"hits": stats.hits, "misses": stats.misses,
                              "stores": stats.stores}
        # The full registry snapshot, for operators reading `repro
        # cluster status` (which prints the whole reply) and programmatic
        # pollers; no in-tree peer parses it.
        reply["metrics"] = self.metrics.snapshot()  # repro: suppress REPRO602 -- operator probe
        return reply


# ---------------------------------------------------------------------------
# Thread-hosted server wrapper
# ---------------------------------------------------------------------------

class ClusterServer:
    """Host a :class:`ClusterDispatcher` on a background event loop.

    The synchronous face of the service for tests, scripts and the CLI:
    ``start()`` returns the bound endpoint, ``wait()`` blocks until an
    admin ``shutdown`` stops the dispatcher, ``close()`` tears it down.
    Usable as a context manager.
    """

    def __init__(self, **kwargs: Any) -> None:
        self.dispatcher = ClusterDispatcher(**kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self.dispatcher.add_stop_callback(self._stopped.set)

    @property
    def address(self) -> Tuple[str, int]:
        return self.dispatcher.address

    @property
    def endpoint(self) -> str:
        host, port = self.dispatcher.address
        return f"{host}:{port}"

    def start(self) -> Tuple[str, int]:
        if self._loop is not None:
            return self.dispatcher.address
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever,
                                        name="repro-cluster", daemon=True)
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(self.dispatcher.start(),
                                                  self._loop)
        try:
            return future.result(timeout=30.0)
        except BaseException:
            self.close()
            raise

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the dispatcher stops; True if it did."""
        return self._stopped.wait(timeout)

    def close(self) -> None:
        loop, thread = self._loop, self._thread
        self._loop = self._thread = None
        if loop is None:
            return
        with contextlib.suppress(Exception):
            asyncio.run_coroutine_threadsafe(
                self.dispatcher.stop(), loop).result(timeout=10.0)
        loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=10.0)
        loop.close()

    def __enter__(self) -> "ClusterServer":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# The client backend
# ---------------------------------------------------------------------------

class ClusterBackend(ExecutionBackend):
    """Run batches through a shared experiment cluster.

    Plug into :class:`~repro.exec.Runner` like any backend — the runner
    keeps its local cache consultation above this seam, and the
    dispatcher adds the *cluster-wide* cache tier below it.

    Parameters
    ----------
    address:
        The dispatcher endpoint, ``("host", port)`` or ``"host:port"``.
    auth / keyfile:
        Frame authentication: a shared :class:`FrameAuth`, or the path
        of the cluster keyfile to load one from.
    connect_timeout / frame_timeout:
        Seconds for the TCP connect and for each result frame gap.
    ssl:
        Optional client-side ``ssl.SSLContext`` (the TLS seam).
    """

    def __init__(self, address: Address, *,
                 auth: Optional[FrameAuth] = None,
                 keyfile: Optional[str] = None,
                 connect_timeout: float = 10.0,
                 frame_timeout: float = 600.0,
                 ssl: Optional[Any] = None) -> None:
        self.address = parse_address(address)
        if auth is None and keyfile is not None:
            auth = FrameAuth.from_keyfile(keyfile)
        self.auth = auth
        self.connect_timeout = float(connect_timeout)
        self.frame_timeout = float(frame_timeout)
        self.ssl = ssl

    def describe(self) -> str:
        host, port = self.address
        return f"cluster({host}:{port})"

    def _connect(self) -> socket.socket:
        try:
            sock = socket.create_connection(self.address,
                                            timeout=self.connect_timeout)
        except OSError as error:
            host, port = self.address
            raise ClusterError(
                f"cannot reach cluster dispatcher {host}:{port}: {error}")
        if self.ssl is not None:
            host, _ = self.address
            sock = self.ssl.wrap_socket(sock, server_hostname=host)
        sock.settimeout(self.frame_timeout)
        return sock

    def _recv(self, sock: socket.socket) -> Dict[str, Any]:
        try:
            return recv_message(sock, auth=self.auth)
        except socket.timeout:
            raise ClusterError(
                f"no frame from the dispatcher within "
                f"{self.frame_timeout:g}s")
        except WireProtocolError as error:
            host, port = self.address
            raise ClusterError(
                f"cluster session with {host}:{port} broke: {error} "
                f"(a mid-handshake hangup usually means an auth key "
                f"mismatch)")

    def submit(self, experiments: Sequence[Experiment], *,
               notify: Optional[NotifyFn] = None,
               ) -> Iterator[Tuple[int, SystemReport]]:
        if not experiments:
            return
        sock = self._connect()
        try:
            send_message(sock, hello_message("client",
                                             f"client-{os.getpid()}"),
                         auth=self.auth)
            welcome = self._recv(sock)
            if welcome.get("type") != MSG_WELCOME:
                raise ClusterError(
                    f"dispatcher refused the session: {welcome!r}")
            documents = [experiment.to_dict() for experiment in experiments]
            # The batch's trace context rides the submit frame so
            # dispatcher and worker spans land in this client's trace.
            batch_id = "b0"
            send_message(sock, {"type": MSG_SUBMIT, "batch": batch_id,
                                "experiments": documents,
                                "trace": default_tracer().context().to_dict()},
                         auth=self.auth)
            remaining = len(documents)
            while remaining:
                message = self._recv(sock)
                kind = message.get("type")
                # Every dispatcher frame echoes the batch tag; a
                # mismatch means crossed sessions, not a task failure.
                tag = message.get("batch")
                if tag is not None and tag != batch_id:
                    raise ClusterError(
                        f"frame for unknown batch {tag!r} "
                        f"(this session submitted {batch_id!r})")
                if kind == MSG_RESULT:
                    spans = message.get("spans")
                    if isinstance(spans, list) and spans:
                        default_tracer().ingest(spans)
                    yield (int(message["task"]),
                           SystemReport.from_dict(message["result"]))
                    remaining -= 1
                elif kind == MSG_NOTICE:
                    if notify is not None:
                        notify(str(message.get("label", "?")),
                               str(message.get("event", "retry")))
                elif kind == MSG_ERROR:
                    raise BackendError(
                        f"cluster task {message.get('label', '?')!r} "
                        f"failed: {message.get('error', '?')}")
                elif kind == MSG_BATCH_DONE:
                    raise ClusterError(
                        f"dispatcher closed the batch with {remaining} "
                        f"results missing")
        finally:
            sock.close()


# ---------------------------------------------------------------------------
# Admin helpers
# ---------------------------------------------------------------------------

def _admin_request(address: Address, message: Dict[str, Any], *,
                   auth: Optional[FrameAuth] = None,
                   timeout: float = 30.0) -> Dict[str, Any]:
    """One request/reply exchange on a throwaway client session."""
    endpoint = parse_address(address)
    try:
        sock = socket.create_connection(endpoint, timeout=10.0)
    except OSError as error:
        raise ClusterError(
            f"cannot reach cluster dispatcher "
            f"{endpoint[0]}:{endpoint[1]}: {error}")
    try:
        sock.settimeout(timeout)
        send_message(sock, hello_message("client", "admin"), auth=auth)
        welcome = recv_message(sock, auth=auth)
        if welcome.get("type") != MSG_WELCOME:
            raise ClusterError(f"dispatcher refused the session: {welcome!r}")
        send_message(sock, message, auth=auth)
        return recv_message(sock, auth=auth)
    except socket.timeout:
        raise ClusterError(
            f"no reply from the dispatcher within {timeout:g}s")
    except WireProtocolError as error:
        raise ClusterError(f"cluster admin request failed: {error}")
    finally:
        sock.close()


def cluster_status(address: Address, *, auth: Optional[FrameAuth] = None,
                   timeout: float = 30.0) -> Dict[str, Any]:
    """The dispatcher's live status document (workers, queue, cache)."""
    return _admin_request(address, {"type": MSG_STATUS}, auth=auth,
                          timeout=timeout)


def cluster_drain(address: Address, *, auth: Optional[FrameAuth] = None,
                  stop_workers: bool = False,
                  timeout: float = 600.0) -> Dict[str, Any]:
    """Drain the cluster: finish all queued and in-flight work.

    Blocks until the dispatcher reports ``drained``; afterwards new
    submissions are refused. ``stop_workers`` additionally says goodbye
    to every registered worker once the queue is empty.
    """
    reply = _admin_request(address,
                           {"type": MSG_DRAIN,
                            "stop_workers": bool(stop_workers)},
                           auth=auth, timeout=timeout)
    if reply.get("type") != MSG_DRAINED:
        raise ClusterError(f"unexpected drain reply: {reply!r}")
    return reply


def cluster_shutdown(address: Address, *, auth: Optional[FrameAuth] = None,
                     timeout: float = 30.0) -> Dict[str, Any]:
    """Stop the dispatcher itself (workers receive ``goodbye``)."""
    return _admin_request(address, {"type": MSG_SHUTDOWN}, auth=auth,
                          timeout=timeout)
