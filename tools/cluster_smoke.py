#!/usr/bin/env python3
"""CI smoke test for the experiment cluster (docs/SERVICE.md).

Spawns a dispatcher with a shared cache and HMAC auth, registers two
dial-out workers, and drives two concurrent clients over disjoint
batches. Asserts the cluster's reports are byte-identical to serial
execution, the shared cache tier stores every result, and a graceful
drain completes all work. Exits non-zero (with a one-line reason) on
any violation.

Usage: PYTHONPATH=src python tools/cluster_smoke.py
"""

import json
import sys
import tempfile
import threading
from pathlib import Path

from repro.exec import ResultCache, Runner, experiment_pair, spec_experiment
from repro.exec.cluster import (ClusterBackend, ClusterServer, cluster_drain,
                                cluster_status)
from repro.exec.wire import FrameAuth
from repro.exec.worker import registered_worker_pool


def canonical(reports):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in reports]


def fail(reason):
    print(f"cluster-smoke: FAIL: {reason}", file=sys.stderr)
    return 1


def main():
    batches = [experiment_pair(spec_experiment(name, cores=1, scale=0.15))
               for name in ("GCC", "H264")]
    print("cluster-smoke: serial reference run ...")
    serial = [Runner(use_cache=False).run(batch) for batch in batches]

    with tempfile.TemporaryDirectory() as scratch:
        keyfile = Path(scratch) / "cluster.key"
        FrameAuth.generate_keyfile(keyfile)
        auth = FrameAuth.from_keyfile(keyfile)
        with ClusterServer(auth=auth,
                           cache=ResultCache(Path(scratch) / "shared"),
                           ) as server:
            host, port = server.address
            print(f"cluster-smoke: dispatcher on {host}:{port}, "
                  f"2 workers, 2 concurrent clients ...")
            with registered_worker_pool(2, server.endpoint,
                                        keyfile=keyfile):
                results = [None, None]
                errors = []

                def client(slot):
                    try:
                        backend = ClusterBackend(server.address,
                                                 client_name=f"ci-{slot}",
                                                 keyfile=str(keyfile),
                                                 weight=slot + 1)
                        results[slot] = Runner(backend=backend,
                                               use_cache=False,
                                               ).run(batches[slot])
                    except Exception as error:
                        errors.append(error)

                threads = [threading.Thread(target=client, args=(slot,))
                           for slot in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=600)
                if errors:
                    return fail(f"client raised: {errors[0]}")
                for slot in range(2):
                    if results[slot] is None:
                        return fail(f"client {slot} never finished")
                    if canonical(results[slot]) != canonical(serial[slot]):
                        return fail(f"client {slot} reports diverged "
                                    f"from serial")
                print("cluster-smoke: reports byte-identical to serial")

                status = cluster_status(server.address, auth=auth)
                expected = sum(len(batch) for batch in batches)
                stores = status["cache"]["stores"]
                if stores != expected:
                    return fail(f"shared cache stored {stores} results, "
                                f"expected {expected}")
                reply = cluster_drain(server.address, auth=auth,
                                      stop_workers=True, timeout=300)
                print(f"cluster-smoke: drained "
                      f"({reply['completed']} tasks, "
                      f"{reply['duration_s']:.3f}s); cache stores="
                      f"{stores}")
    print("cluster-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
