#!/usr/bin/env python3
"""CI smoke test for the flight recorder under parallel execution
(docs/OBSERVABILITY.md).

Runs one batch of section 4.2 shred-policy ablation experiments (two
per shred policy) twice, serially and on a two-process fork pool
(``Runner(jobs=2)``). Asserts:

* the serial run records every flight-recorder event kind;
* each task's event log and ``SystemReport.to_dict()`` JSON are
  byte-identical between the serial and the parallel run.

Exits non-zero (with a one-line reason) on any violation.

Usage: PYTHONPATH=src python tools/trace_smoke.py
"""

import json
import sys
import time
from dataclasses import replace

from repro.config import bench_config
from repro.exec import Experiment, Runner
from repro.obs import EVENT_KINDS, format_event

#: The shred policies of section 4.2. Together they record every event
#: kind: increment-minors overflows minor counters and regenerates IVs,
#: major-reset-minors zero-fills reads and un-shreds blocks on write.
POLICIES = ("increment-minors", "increment-major", "major-reset-minors")
TASKS = 2 * len(POLICIES)

#: The configuration ``repro figure policies`` runs the ablation under.
ABLATION_CONFIG = replace(bench_config().with_zeroing("shred"),
                          functional=False)


def ablation_experiment(index):
    policy = POLICIES[index // 2]
    return Experiment(
        workload="policy-ablation",
        params={"pages": 4 + 2 * (index % 2), "shreds_per_page": 80},
        config=ABLATION_CONFIG, shredder=True, policy=policy,
        name=f"trace-smoke-{index}-{policy}")


def event_log(report):
    return "\n".join(format_event(e) for e in report.events)


def fail(reason):
    print(f"trace-smoke: FAIL: {reason}", file=sys.stderr)
    return 1


def timed_run(jobs, batch):
    start = time.perf_counter()
    reports = Runner(jobs=jobs, use_cache=False).run(batch)
    return reports, time.perf_counter() - start


def main():
    batch = [ablation_experiment(i) for i in range(TASKS)]
    serial, serial_s = timed_run(1, batch)
    kinds = {event["kind"] for report in serial for event in report.events}
    missing = sorted(set(EVENT_KINDS) - kinds)
    if missing:
        return fail(f"policy ablation recorded no {', '.join(missing)} "
                    f"events")
    print(f"trace-smoke: serial run of {TASKS} tasks recorded all "
          f"{len(EVENT_KINDS)} event kinds ({serial_s:.2f} s)")

    parallel, parallel_s = timed_run(2, batch)
    for index, (a, b) in enumerate(zip(serial, parallel)):
        if event_log(a) != event_log(b):
            return fail(f"task {index}: jobs=2 event log diverged "
                        f"from serial")
        if json.dumps(a.to_dict(), sort_keys=True) \
                != json.dumps(b.to_dict(), sort_keys=True):
            return fail(f"task {index}: jobs=2 report diverged from serial")
    print(f"trace-smoke: jobs=2 event logs and reports byte-identical "
          f"to serial ({parallel_s:.2f} s)")
    print("trace-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
