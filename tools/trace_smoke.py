#!/usr/bin/env python3
"""CI smoke test for the observability plane (docs/OBSERVABILITY.md).

Spawns a dispatcher with two dial-out workers and drives one client
batch of shred-heavy access-stream experiments through the cluster.
Asserts:

* the merged trace on the client's default tracer is **one** timeline:
  the runner's ``exec.batch`` span parents every dispatcher
  ``exec.cluster.task`` span and every forked worker's
  ``exec.worker.task`` span, all under a single trace id, with the
  worker spans carrying distinct (non-client) pids so the trace-event
  export lays each process on its own lane;
* the flight-recorder event log embedded in every report is
  byte-identical between the serial reference run and the cluster run,
  and across the scalar/batch/vector engines.

Exits non-zero (with a one-line reason) on any violation.

Usage: PYTHONPATH=src python tools/trace_smoke.py
"""

import json
import os
import sys

from repro.exec import Experiment, Runner
from repro.exec.cluster import ClusterBackend, ClusterServer
from repro.exec.worker import registered_worker_pool
from repro.obs import default_tracer, format_event, to_trace_events

TASKS = 6


def stream_experiment(index, engine="scalar"):
    return Experiment(
        workload="access-stream",
        params={"source": "synthetic", "accesses": 3000, "pages": 24,
                "shred_fraction": 0.1, "read_fraction": 0.6,
                "epoch_length": 128, "seed": 40 + index},
        engine=engine, name=f"trace-smoke-{index}-{engine}")


def event_log(report):
    return "\n".join(format_event(e) for e in report.events)


def fail(reason):
    print(f"trace-smoke: FAIL: {reason}", file=sys.stderr)
    return 1


def main():
    batch = [stream_experiment(i) for i in range(TASKS)]
    print("trace-smoke: serial reference run ...")
    serial = Runner(use_cache=False).run(batch)
    if not any(report.events for report in serial):
        return fail("shred-heavy run recorded no flight-recorder events")

    for engine in ("batch", "vector"):
        engined = Runner(use_cache=False).run(
            [stream_experiment(i, engine) for i in range(TASKS)])
        for index, (a, b) in enumerate(zip(serial, engined)):
            if event_log(a) != event_log(b):
                return fail(f"task {index}: {engine}-engine event log "
                            f"diverged from scalar")
    print("trace-smoke: event logs identical across "
          "scalar/batch/vector engines")

    tracer = default_tracer()
    before = len(tracer.records)
    with ClusterServer() as server:
        host, port = server.address
        print(f"trace-smoke: dispatcher on {host}:{port}, 2 workers, "
              f"one client batch of {TASKS} ...")
        with registered_worker_pool(2, server.endpoint):
            backend = ClusterBackend(server.address, client_name="smoke")
            clustered = Runner(backend=backend, use_cache=False).run(batch)

    for index, (a, b) in enumerate(zip(serial, clustered)):
        if event_log(a) != event_log(b):
            return fail(f"task {index}: cluster event log diverged "
                        f"from serial")
        if json.dumps(a.to_dict(), sort_keys=True) \
                != json.dumps(b.to_dict(), sort_keys=True):
            return fail(f"task {index}: cluster report diverged from serial")
    print("trace-smoke: cluster event logs byte-identical to serial")

    spans = [r.to_dict() for r in tracer.records[before:]]
    roots = [s for s in spans if s["name"] == "exec.batch"]
    workers = [s for s in spans if s["name"] == "exec.worker.task"]
    dispatch = [s for s in spans if s["name"] == "exec.cluster.task"]
    if len(roots) != 1:
        return fail(f"expected one exec.batch root span, got {len(roots)}")
    root = roots[0]
    if len(workers) != TASKS:
        return fail(f"expected {TASKS} worker task spans, "
                    f"got {len(workers)}")
    if len(dispatch) != TASKS:
        return fail(f"expected {TASKS} dispatcher task spans, "
                    f"got {len(dispatch)}")
    for span in workers + dispatch:
        if span.get("trace_id") != root["trace_id"]:
            return fail(f"span {span['name']} is outside the batch trace")
        if span.get("parent_span_id") != root["span_id"]:
            return fail(f"span {span['name']} is not parented under "
                        f"the client batch span")
    if {s.get("process") for s in workers} != {"worker"}:
        return fail("worker spans missing their process role")
    if {s.get("process") for s in dispatch} != {"dispatcher"}:
        return fail("dispatcher spans missing their process role")
    worker_pids = {s.get("pid") for s in workers}
    if os.getpid() in worker_pids:
        return fail("worker spans carry the client pid (identity lost)")
    if len(worker_pids) < 2:
        return fail(f"expected spans from 2 worker processes, "
                    f"saw pids {sorted(worker_pids)}")

    document = to_trace_events(spans)
    lanes = {e["pid"] for e in document["traceEvents"]
             if e.get("ph") == "M"}
    if len(lanes) < 3:
        return fail(f"trace export has {len(lanes)} process lanes, "
                    f"expected client + 2 workers")
    print(f"trace-smoke: one timeline, trace {root['trace_id'][:8]}..., "
          f"{len(spans)} spans across {len(lanes)} process lanes")
    print("trace-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
