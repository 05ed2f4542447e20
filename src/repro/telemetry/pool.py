"""Process-pool fan-out that loses no telemetry.

Both parallel sweeps (the engine's Figure 3 series and fault campaign,
one task per sweep point) have the same needs: run a picklable
module-level function over a list of argument tuples in worker
processes, get the results back in task order, and leave the parent's
registry exactly as a serial run would.  :func:`pool_map` is that one
dispatcher.

Per task, the worker runs the function in a
:func:`repro.telemetry.session` with the parent's tracing, observation
(with its stride) and profiling switches, and ships its snapshot back
next to the result.  The switches travel in the task payload, not by
inheritance, so spawn-based pools behave the same; the session's reset
drops the counts a forked worker inherits, so each task reports only
its own.  The parent merges the snapshots in task order, never
completion order.  ``Executor.map`` submits every task up front, so
free workers still pick up whatever is left; callers balance load by
the size of the tasks they hand in.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

from repro import telemetry

__all__ = ["pool_map"]

#: (tracing on, observation on, observation stride, profiling on).
_Switches = Tuple[bool, bool, int, bool]


def _switches() -> _Switches:
    obs = telemetry.observer()
    return (
        telemetry.tracer().enabled,
        obs.enabled,
        obs.stride,
        telemetry.profiler().enabled,
    )


def _run_task(payload: Tuple[Callable[..., Any], _Switches, tuple]):
    fn, (trace, observe, stride, profile), args = payload
    with telemetry.session(trace, observe, profile, stride):
        result = fn(*args)
    return result, telemetry.snapshot()


def pool_map(
    fn: Callable[..., Any], tasks: Sequence[tuple], workers: int
) -> List[Any]:
    """``[fn(*task) for task in tasks]`` over ``workers`` processes.

    Results come back in task order, and each task's telemetry snapshot
    is merged into this process's registry in the same order.  ``fn``
    must be picklable (a module-level function).
    """
    # imported here: the pool machinery costs import time that a serial
    # run should not pay
    from concurrent.futures import ProcessPoolExecutor

    switches = _switches()
    results: List[Any] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        payloads = [(fn, switches, task) for task in tasks]
        for result, snap in pool.map(_run_task, payloads):
            telemetry.merge(snap)
            results.append(result)
    return results
