"""The experiment cluster: fair queue, dispatcher, faults, auth.

Registered (dial-out) workers are forked, so workloads registered in
this module are inherited by the worker processes — the nap workload
below keeps tasks slow enough to observe scheduling and inject faults,
the flaky one fails its first attempt and the crasher kills its worker
process on its first attempt.
"""

import contextlib
import json
import os
import socket
import threading
import time

import pytest

from repro.errors import BackendError, ClusterError
from repro.exec import (Experiment, ResultCache, Runner, experiment_pair,
                        register_workload, spec_experiment)
from repro.exec.cluster import (ClusterBackend, ClusterServer, FairQueue,
                                cluster_drain, cluster_status)
from repro.exec.wire import (MSG_BATCH_DONE, MSG_RESULT, MSG_SUBMIT,
                             MSG_WELCOME, FrameAuth, hello_message,
                             recv_message, send_message)
from repro.exec.worker import (registered_worker_pool,
                               spawn_registered_workers)
from repro.obs import MetricsRegistry


@register_workload("cluster-napper")
def _napper(system, params):
    time.sleep(float(params.get("seconds", 0.05)))


@register_workload("cluster-flaky")
def _flaky(system, params):
    """Fail until a marker file exists; the first attempt plants it."""
    marker = params["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as stream:
            stream.write("attempted")
        raise RuntimeError("transient failure, retry me")


@register_workload("cluster-crasher")
def _crasher(system, params):
    """Kill the whole worker process mid-task until the marker exists."""
    marker = params["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as stream:
            stream.write("attempted")
        os._exit(17)


def canonical(reports):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in reports]


def nap_batch(count, seconds=0.15, tag="nap"):
    return [Experiment("cluster-napper",
                       params={"seconds": seconds, "tag": tag, "i": i},
                       name=f"{tag}-{i}") for i in range(count)]


@contextlib.contextmanager
def cluster(**kwargs):
    """A running dispatcher on a background thread; yields the server."""
    with ClusterServer(**kwargs) as server:
        yield server


class TestFairQueue:
    def test_fifo_within_one_tenant(self):
        queue = FairQueue()
        for i in range(3):
            queue.push("a", f"a{i}")
        assert [queue.pop() for _ in range(3)] == ["a0", "a1", "a2"]
        assert queue.pop() is None

    def test_equal_weights_interleave(self):
        queue = FairQueue()
        for i in range(3):
            queue.push("a", f"a{i}")
            queue.push("b", f"b{i}")
        order = [queue.pop() for _ in range(6)]
        assert order == ["a0", "b0", "a1", "b1", "a2", "b2"]

    def test_weighted_tenant_gets_its_share(self):
        """Weight 3 vs 1: three of the first four pops serve the
        heavy tenant, yet the light tenant is never starved."""
        queue = FairQueue()
        for i in range(4):
            queue.push("heavy", f"a{i}", weight=3)
            queue.push("light", f"b{i}", weight=1)
        order = [queue.pop() for _ in range(8)]
        assert order == ["a0", "a1", "a2", "b0", "a3", "b1", "b2", "b3"]

    def test_idle_tenant_accrues_nothing(self):
        """A tenant with no queued work is forgotten by the rotation:
        deficit does not pile up while idle (DRR, not lottery)."""
        queue = FairQueue()
        queue.push("a", "a0", weight=5)
        assert queue.pop() == "a0"
        queue.push("b", "b0")
        queue.push("a", "a1", weight=5)
        # Both serve promptly; no 5-task backlog claim for "a".
        assert sorted([queue.pop(), queue.pop()]) == ["a1", "b0"]

    def test_drop_tenant_returns_queued_tasks(self):
        queue = FairQueue()
        queue.push("a", "a0")
        queue.push("b", "b0")
        queue.push("a", "a1")
        assert queue.drop_tenant("a") == ["a0", "a1"]
        assert queue.tenants() == ["b"]
        assert queue.pop() == "b0"

    def test_depth_total_and_per_tenant(self):
        queue = FairQueue()
        queue.push("a", "a0")
        queue.push("a", "a1")
        queue.push("b", "b0")
        assert len(queue) == 3
        assert queue.depth("a") == 2
        assert queue.depth("missing") == 0

    def test_rejects_non_positive_weight(self):
        with pytest.raises(BackendError, match="weight"):
            FairQueue().push("a", "a0", weight=0)


class TestClusterDeterminism:
    def test_small_batch_matches_serial_byte_for_byte(self):
        """One client, one mixed batch over 2 registered workers: the
        reports are byte-identical to the serial backend's."""
        batch = []
        for name in ("GCC", "H264"):
            batch.extend(experiment_pair(
                spec_experiment(name, cores=1, scale=0.15)))
        serial = Runner(use_cache=False).run(batch)
        with cluster() as server:
            with registered_worker_pool(2, server.endpoint):
                backend = ClusterBackend(server.address, client_name="solo")
                clustered = Runner(backend=backend, use_cache=False).run(batch)
        assert canonical(clustered) == canonical(serial)

    def test_two_concurrent_clients_match_serial(self):
        """The ISSUE acceptance: two clients on disjoint batches over a
        shared 2-worker cluster each get byte-identical-to-serial
        reports."""
        batches = [experiment_pair(spec_experiment(name, cores=1, scale=0.15))
                   for name in ("GCC", "H264")]
        serial = [Runner(use_cache=False).run(batch) for batch in batches]
        with cluster() as server:
            with registered_worker_pool(2, server.endpoint):
                results = [None, None]
                errors = []

                def client(slot):
                    try:
                        backend = ClusterBackend(server.address,
                                                 client_name=f"c{slot}")
                        results[slot] = Runner(backend=backend,
                                               use_cache=False,
                                               ).run(batches[slot])
                    except Exception as error:   # propagated to the assert
                        errors.append(error)

                threads = [threading.Thread(target=client, args=(slot,))
                           for slot in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
        assert not errors
        for slot in range(2):
            assert canonical(results[slot]) == canonical(serial[slot])

    def test_warm_hit_serves_every_client(self, tmp_path):
        """The shared cache tier: one client's warm result is served to
        the next client without re-executing anything."""
        batch = experiment_pair(spec_experiment("GCC", cores=1, scale=0.15))
        metrics = MetricsRegistry()
        with cluster(cache=ResultCache(tmp_path / "shared"),
                     metrics=metrics) as server:
            with registered_worker_pool(1, server.endpoint):
                first = Runner(backend=ClusterBackend(server.address,
                                                      client_name="warmer"),
                               use_cache=False).run(batch)
            # No workers left: only the cluster cache can answer now.
            second = Runner(backend=ClusterBackend(server.address,
                                                   client_name="beneficiary"),
                            use_cache=False).run(batch)
            status = cluster_status(server.address)
        assert canonical(first) == canonical(second)
        assert status["cache"]["stores"] == len(batch)
        assert status["cache"]["hits"] == len(batch)
        # Only the first client's tasks ever reached a worker.
        assert metrics.counter("exec.cluster.tasks_completed").value \
            == len(batch)


def dial_client(address, name, weight=1, auth=None, timeout=60.0):
    sock = socket.create_connection(address, timeout=timeout)
    sock.settimeout(timeout)
    send_message(sock, hello_message("client", name, weight=weight),
                 auth=auth)
    welcome = recv_message(sock, auth=auth)
    assert welcome.get("type") == MSG_WELCOME
    return sock


def submit_batch(sock, experiments, batch="b0", auth=None):
    send_message(sock, {"type": MSG_SUBMIT, "batch": batch,
                        "experiments": [e.to_dict() for e in experiments]},
                 auth=auth)


def read_batch(sock, auth=None):
    """Collect result frames until ``batch-done``; returns the frames."""
    frames = []
    while True:
        message = recv_message(sock, auth=auth)
        if message.get("type") == MSG_BATCH_DONE:
            return frames
        if message.get("type") == MSG_RESULT:
            frames.append(message)


class TestClusterTracePropagation:
    def test_cluster_run_yields_one_timeline(self):
        """A cluster batch merges into one trace on the client: the
        runner's ``exec.batch`` span parents both the dispatcher's
        ``exec.cluster.task`` spans and the forked workers'
        ``exec.worker.task`` spans, correlated by one trace id."""
        from repro.obs import default_tracer
        tracer = default_tracer()
        before = len(tracer.records)
        with cluster() as server:
            with registered_worker_pool(2, server.endpoint):
                backend = ClusterBackend(server.address,
                                         client_name="tracing")
                Runner(backend=backend, use_cache=False).run(
                    nap_batch(3, seconds=0.01, tag="traced"))
        new = tracer.records[before:]
        roots = [r for r in new if r.name == "exec.batch"]
        workers = [r for r in new if r.name == "exec.worker.task"]
        dispatch = [r for r in new if r.name == "exec.cluster.task"]
        assert len(roots) == 1
        assert len(workers) == 3 and len(dispatch) == 3
        root = roots[0]
        for record in workers + dispatch:
            assert record.trace_id == root.trace_id
            assert record.parent_span_id == root.span_id
        assert {r.process for r in workers} == {"worker"}
        assert {r.process for r in dispatch} == {"dispatcher"}
        assert all(r.pid != os.getpid() for r in workers)
        assert all(r.attrs.get("worker") for r in dispatch)

    def test_cache_hit_recorded_as_span(self, tmp_path):
        from repro.obs import default_tracer
        tracer = default_tracer()
        before = len(tracer.records)
        experiment = nap_batch(1, seconds=0.01, tag="hit")
        with cluster(cache=ResultCache(tmp_path / "cache")) as server:
            with registered_worker_pool(1, server.endpoint):
                for _ in range(2):      # second submission hits the cache
                    backend = ClusterBackend(server.address,
                                             client_name="hitter")
                    Runner(backend=backend,
                           use_cache=False).run(experiment)
        hits = [r for r in tracer.records[before:]
                if r.name == "exec.cluster.cache_hit"]
        assert len(hits) == 1
        assert hits[0].process == "dispatcher"


class TestClusterFaults:
    def test_worker_death_mid_task_requeues(self):
        """Kill one of two workers mid-batch: every task still
        completes, in order, and the retries surface as progress
        events."""
        batch = nap_batch(6, tag="death")
        events = []
        with cluster(task_timeout=60) as server:
            workers = spawn_registered_workers(2, server.endpoint)
            try:
                backend = ClusterBackend(server.address, client_name="brave")
                killer = threading.Timer(0.3, workers[0].terminate)
                killer.start()
                reports = Runner(backend=backend, use_cache=False,
                                 progress=events.append).run(batch)
                killer.join()
            finally:
                for worker in workers:
                    worker.terminate()
        assert [r.name for r in reports] == [f"death-{i}" for i in range(6)]
        retries = [e for e in events if e.source == "retry"]
        assert retries, "the killed worker's task must be re-queued"
        assert len([e for e in events if e.source == "worker"]) == 6

    def test_worker_killed_mid_batch_requeues(self):
        """A killed worker is charged to the worker, not to its task:
        with max_retries=0 the stranded task is still re-queued, and
        the batch completes with nothing failed."""
        metrics = MetricsRegistry()
        batch = nap_batch(8, tag="killed")
        with cluster(task_timeout=60, max_retries=0,
                     metrics=metrics) as server:
            workers = spawn_registered_workers(2, server.endpoint)
            try:
                deadline = time.monotonic() + 30
                while len(cluster_status(server.address)["workers"]) < 2:
                    assert time.monotonic() < deadline, "workers never joined"
                    time.sleep(0.05)

                def kill_on_first_completion(event):
                    # Tasks are still queued, so the dispatcher has
                    # handed every live worker one (it assigns in the
                    # same step that forwards a result): the killed
                    # worker strands exactly one task.
                    if event.source == "worker" and workers[0].is_alive():
                        workers[0].terminate()

                backend = ClusterBackend(server.address, client_name="stoic")
                reports = Runner(backend=backend, use_cache=False,
                                 progress=kill_on_first_completion).run(batch)
            finally:
                for worker in workers:
                    worker.terminate()
        assert [r.name for r in reports] == [f"killed-{i}" for i in range(8)]
        assert metrics.counter("exec.cluster.requeues").value == 1
        assert metrics.counter("exec.cluster.tasks_failed").value == 0

    def test_worker_crash_mid_task_retries_elsewhere(self, tmp_path):
        """os._exit inside the executor: the worker's connection dies
        mid-task, the task is re-queued, and the surviving worker
        finishes it."""
        marker = str(tmp_path / "crashed-once")
        batch = [Experiment("cluster-crasher", params={"marker": marker},
                            name="kamikaze")]
        metrics = MetricsRegistry()
        with cluster(task_timeout=60, metrics=metrics) as server:
            with registered_worker_pool(2, server.endpoint):
                backend = ClusterBackend(server.address,
                                         client_name="survivor")
                reports = Runner(backend=backend, use_cache=False).run(batch)
        assert [r.name for r in reports] == ["kamikaze"]
        assert os.path.exists(marker)
        assert metrics.counter("exec.cluster.requeues").value == 1

    def test_retry_then_succeed(self, tmp_path):
        """An executor error is charged to the task and retried; the
        retry surfaces as exactly one progress event before the
        completion."""
        marker = str(tmp_path / "flaked-once")
        batch = [Experiment("cluster-flaky", params={"marker": marker},
                            name="flaky-one")]
        events = []
        with cluster(max_retries=3) as server:
            with registered_worker_pool(1, server.endpoint):
                backend = ClusterBackend(server.address, client_name="flaky")
                reports = Runner(backend=backend, use_cache=False,
                                 progress=events.append).run(batch)
        assert [r.name for r in reports] == ["flaky-one"]
        retries = [e for e in events if e.source == "retry"]
        assert len(retries) == 1
        assert retries[0].label == "flaky-one"
        assert events[-1].source == "worker"

    def test_retries_exhausted_names_the_experiment(self):
        """A deterministic failure exhausts max_retries and the error
        carries the experiment label and attempt count."""
        batch = [Experiment("no-such-workload-kind", name="doomed")]
        with cluster(max_retries=2) as server:
            with registered_worker_pool(1, server.endpoint):
                backend = ClusterBackend(server.address,
                                         client_name="doomed")
                with pytest.raises(BackendError,
                                   match=r"doomed.*3 attempts"):
                    Runner(backend=backend, use_cache=False).run(batch)

    def test_timeout_is_charged_to_the_task(self):
        """A task that outlives task_timeout burns the task's retry
        budget and counts in exec.cluster.timeouts. With max_retries=0
        the batch fails at once, without waiting for the napping
        worker (which the pool then terminates)."""
        metrics = MetricsRegistry()
        batch = [Experiment("cluster-napper", params={"seconds": 30.0},
                            name="slowpoke")]
        with cluster(task_timeout=0.3, max_retries=0, tick=0.05,
                     metrics=metrics) as server:
            with registered_worker_pool(1, server.endpoint):
                backend = ClusterBackend(server.address,
                                         client_name="patient")
                started = time.monotonic()
                with pytest.raises(BackendError,
                                   match="slowpoke.*no result within"):
                    Runner(backend=backend, use_cache=False).run(batch)
                assert time.monotonic() - started < 20
        assert metrics.counter("exec.cluster.timeouts").value == 1
        assert metrics.counter("exec.cluster.tasks_failed").value == 1
        assert metrics.counter("exec.cluster.requeues").value == 0

    def test_graceful_drain_loses_nothing(self):
        """Drain mid-batch: every in-flight and queued task completes
        exactly once, then new submissions are refused."""
        batch = nap_batch(6, seconds=0.2, tag="drain")
        with cluster() as server:
            with registered_worker_pool(2, server.endpoint):
                done = {}

                def client():
                    backend = ClusterBackend(server.address,
                                             client_name="drained")
                    done["reports"] = Runner(backend=backend,
                                             use_cache=False).run(batch)

                thread = threading.Thread(target=client)
                thread.start()
                time.sleep(0.4)          # let the batch get in flight
                reply = cluster_drain(server.address, timeout=120)
                thread.join(timeout=60)
                assert reply["completed"] >= 1
                names = [r.name for r in done["reports"]]
                assert names == [f"drain-{i}" for i in range(6)]
                # The drained dispatcher refuses the next batch.
                latecomer = ClusterBackend(server.address,
                                           client_name="late")
                with pytest.raises(BackendError, match="drain"):
                    Runner(backend=latecomer,
                           use_cache=False).run(nap_batch(1, tag="late"))

    def test_client_disconnect_mid_batch(self):
        """A client that hangs up mid-batch takes its queue with it;
        the cluster keeps serving everyone else."""
        with cluster(task_timeout=60) as server:
            with registered_worker_pool(1, server.endpoint):
                quitter = dial_client(server.address, "quitter")
                submit_batch(quitter, nap_batch(5, seconds=0.3, tag="orphan"))
                time.sleep(0.2)          # first task reaches the worker
                quitter.close()
                deadline = time.time() + 30
                while time.time() < deadline:
                    status = cluster_status(server.address)
                    clients = [c["name"] for c in status["clients"]]
                    if "quitter" not in clients \
                            and status["queue_depth"] == 0:
                        break
                    time.sleep(0.1)
                assert status["queue_depth"] == 0, \
                    "the quitter's queued tasks must be dropped"
                # The cluster still serves a well-behaved client.
                survivor = ClusterBackend(server.address,
                                          client_name="survivor")
                reports = Runner(backend=survivor,
                                 use_cache=False).run(nap_batch(2, tag="ok"))
                assert [r.name for r in reports] == ["ok-0", "ok-1"]

    def test_unequal_priorities_get_fair_shares(self):
        """Weight 3 vs 1 on one worker, both batches queued up front:
        DRR serves the heavy client three tasks for every light one, so
        the heavy batch finishes while the light one has completed at
        most two of its four tasks."""
        with cluster() as server:
            heavy = dial_client(server.address, "heavy", weight=3)
            light = dial_client(server.address, "light", weight=1)
            try:
                submit_batch(heavy, nap_batch(4, seconds=0.25, tag="heavy"))
                submit_batch(light, nap_batch(4, seconds=0.25, tag="light"))
                deadline = time.time() + 30
                while time.time() < deadline:      # both batches queued?
                    if cluster_status(server.address)["queue_depth"] == 8:
                        break
                    time.sleep(0.05)
                with registered_worker_pool(1, server.endpoint):
                    heavy_results = read_batch(heavy)
                    status = cluster_status(server.address)
                    light_results = read_batch(light)
            finally:
                heavy.close()
                light.close()
        assert len(heavy_results) == 4 and len(light_results) == 4
        light_done = [c for c in status["clients"]
                      if c["name"] == "light"][0]["completed"]
        assert light_done <= 2, \
            f"light client got {light_done}/4 before heavy finished"


class TestClusterAuth:
    KEY = b"a-very-secret-cluster-key"

    def test_unauthenticated_client_rejected(self):
        metrics = MetricsRegistry()
        with cluster(auth=FrameAuth(self.KEY), metrics=metrics) as server:
            backend = ClusterBackend(server.address, frame_timeout=10.0)
            with pytest.raises(ClusterError, match="auth key mismatch"):
                list(backend.submit(nap_batch(1)))
        assert metrics.counter("exec.cluster.auth_failures").value == 1

    def test_wrong_key_rejected(self):
        with cluster(auth=FrameAuth(self.KEY)) as server:
            backend = ClusterBackend(server.address,
                                     auth=FrameAuth(b"not-the-right-key!"),
                                     frame_timeout=10.0)
            with pytest.raises(ClusterError):
                list(backend.submit(nap_batch(1)))

    def test_keyfile_round_trip(self, tmp_path):
        """Dispatcher, worker and client all loading the same keyfile
        interoperate; the admin plane honours it too."""
        keyfile = tmp_path / "cluster.key"
        FrameAuth.generate_keyfile(keyfile)
        auth = FrameAuth.from_keyfile(keyfile)
        batch = nap_batch(2, seconds=0.01, tag="auth")
        with cluster(auth=auth) as server:
            with registered_worker_pool(1, server.endpoint,
                                        keyfile=keyfile):
                backend = ClusterBackend(server.address, keyfile=str(keyfile))
                reports = Runner(backend=backend, use_cache=False).run(batch)
                status = cluster_status(server.address, auth=auth)
        assert [r.name for r in reports] == ["auth-0", "auth-1"]
        assert status["tasks_completed"] == 2
