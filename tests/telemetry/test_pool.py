"""The process-pool helper every parallel sweep dispatches through."""

import time

from repro import telemetry
from repro.telemetry.pool import pool_map


def _probe(index, delay):
    """Sleep, leave an index-stamped mark in the registry, and report the
    switches and inherited counts this worker saw."""
    time.sleep(delay)
    telemetry.counter("pool.tasks").inc()
    telemetry.histogram("pool.order").observe(index)
    obs = telemetry.observer()
    seen = (
        telemetry.tracer().enabled,
        obs.enabled,
        obs.stride,
        telemetry.profiler().enabled,
        telemetry.counter("pool.parent_only").value,
    )
    return index, seen


def test_order_switches_and_isolation():
    try:
        with telemetry.session(
            trace=True, observe=True, profile=True, stride=3
        ):
            telemetry.counter("pool.parent_only").inc(5)
            # the first task is the slowest, so completion order is not
            # task order on two workers
            tasks = [(0, 0.3), (1, 0.0), (2, 0.0), (3, 0.0)]
            results = pool_map(_probe, tasks, workers=2)
        snap = telemetry.snapshot()
    finally:
        telemetry.reset()
    assert [index for index, _ in results] == [0, 1, 2, 3]
    assert snap["histograms"]["pool.order"] == [0, 1, 2, 3]
    assert snap["counters"]["pool.tasks"] == 4
    # each worker restored every switch of the parent's session and
    # started from zero
    assert all(seen == (True, True, 3, True, 0) for _, seen in results)
    # the parent's own count is merged back once, not once per worker
    assert snap["counters"]["pool.parent_only"] == 5
