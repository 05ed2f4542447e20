"""Bounded retry-with-backoff for the reconfiguration protocols.

The paper's handshakes are all two-phase and abortable: the CSD
request/grant/ack chaining (Figure 2) blocks cleanly when no channel
survives, a ChainedCSD chaining rolls back every leg it occupied, and a
scaling worm retreats and releases everything it reserved (section 3.3).
That makes retry safe: after a failed attempt the fabric is exactly as
it was, so the recovery layer can simply wait out a transient fault and
try again.

:class:`RetryPolicy` bounds both the attempt count and the simulated
backoff (exponential, in *cycles* of the telemetry tracer's logical
clock — backoff time is architectural, not wall-clock).  On success
after ``k`` failed attempts the accumulated backoff is the **recovery
latency**, recorded into the ``faults.recovery.cycles`` histogram that
the campaign reports as p50/p95/p99.  On exhaustion a typed
:class:`~repro.errors.RetryExhaustedError` is raised — never a hang —
and the degradation layer (:mod:`repro.faults.degrade`) takes over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple, Type, TypeVar

from repro import telemetry
from repro.errors import (
    AllocationConflictError,
    ChannelAllocationError,
    FaultInjectionError,
    RegionError,
    RetryExhaustedError,
    SimulationError,
)

__all__ = [
    "RetryPolicy",
    "with_retry",
    "connect_with_retry",
    "chained_connect_with_retry",
    "CSD_RETRYABLE",
    "RECONFIG_RETRYABLE",
]

T = TypeVar("T")

#: What a failed CSD handshake raises (blocked broadcast, faulted leg).
CSD_RETRYABLE: Tuple[Type[BaseException], ...] = (
    ChannelAllocationError,
    FaultInjectionError,
)

#: What a failed scaling worm raises: a reservation conflict, a worm
#: stalled to death by link faults, or a worm that delivered fewer
#: chain instructions than it carried.
RECONFIG_RETRYABLE: Tuple[Type[BaseException], ...] = (
    AllocationConflictError,
    FaultInjectionError,
    RegionError,
    SimulationError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff, measured in simulated cycles."""

    max_attempts: int = 4
    base_backoff_cycles: int = 2
    backoff_multiplier: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.base_backoff_cycles < 0:
            raise ValueError("backoff cannot be negative")
        if self.backoff_multiplier < 1:
            raise ValueError("backoff multiplier must be >= 1")

    def backoff_cycles(self, failed_attempts: int) -> int:
        """Cycles to wait after the ``failed_attempts``-th failure."""
        if failed_attempts < 1:
            return 0
        return self.base_backoff_cycles * (
            self.backoff_multiplier ** (failed_attempts - 1)
        )

    def total_backoff_budget(self) -> int:
        """Worst-case cycles a caller can spend backing off — finite by
        construction, which is the no-hang guarantee."""
        return sum(
            self.backoff_cycles(k) for k in range(1, self.max_attempts)
        )


#: The default policy the campaign and the CLI use.
DEFAULT_POLICY = RetryPolicy()


def with_retry(
    operation: Callable[[], T],
    policy: RetryPolicy = DEFAULT_POLICY,
    retry_on: Tuple[Type[BaseException], ...] = CSD_RETRYABLE,
    what: str = "operation",
) -> T:
    """Run ``operation`` under bounded retry-with-backoff.

    Returns the operation's result.  After each retryable failure the
    tracer's logical clock advances by the policy's backoff (simulated
    wait), bounded by ``policy.max_attempts``.  Raises
    :class:`RetryExhaustedError` (chained to the last failure) when the
    attempts run out; any non-retryable exception propagates untouched.
    """
    tracer = telemetry.tracer()
    backoff_total = 0
    last_exc: BaseException
    for attempt in range(1, policy.max_attempts + 1):
        try:
            result = operation()
        except retry_on as exc:
            last_exc = exc
            if attempt == policy.max_attempts:
                telemetry.counter("faults.recovery.exhausted").inc()
                if tracer.enabled:
                    tracer.instant(
                        "faults.retry.exhausted", what=what, attempts=attempt
                    )
                raise RetryExhaustedError(
                    f"{what} still failing after {attempt} attempts "
                    f"({backoff_total} backoff cycles): {exc}",
                    attempts=attempt,
                    backoff_cycles=backoff_total,
                ) from exc
            wait = policy.backoff_cycles(attempt)
            backoff_total += wait
            telemetry.counter("faults.recovery.retries").inc()
            if tracer.enabled:
                tracer.instant(
                    "faults.retry.backoff", what=what,
                    attempt=attempt, wait_cycles=wait,
                )
                tracer.advance(wait)  # the simulated wait
            continue
        if attempt > 1:
            telemetry.counter("faults.recovery.recovered").inc()
            telemetry.histogram("faults.recovery.cycles").observe(
                backoff_total
            )
            if tracer.enabled:
                tracer.instant(
                    "faults.retry.recovered", what=what,
                    attempts=attempt, recovery_cycles=backoff_total,
                )
        return result
    raise AssertionError("unreachable")  # pragma: no cover


# -- protocol-specific wrappers -------------------------------------------


def connect_with_retry(
    net,
    source: int,
    sink: int,
    policy: RetryPolicy = DEFAULT_POLICY,
):
    """The request/grant/ack handshake under retry: re-broadcast after a
    backoff when no channel survives (transient segment faults heal
    while the source waits)."""
    return with_retry(
        lambda: net.connect(source, sink),
        policy=policy,
        retry_on=CSD_RETRYABLE,
        what=f"csd.connect {source}->{sink}",
    )


def chained_connect_with_retry(
    chained,
    source,
    sink,
    policy: RetryPolicy = DEFAULT_POLICY,
):
    """A cross-segment chaining under retry.  Each failed attempt has
    already rolled back every leg it occupied, so re-attempting is safe."""
    return with_retry(
        lambda: chained.connect(source, sink),
        policy=policy,
        retry_on=CSD_RETRYABLE,
        what=f"chained.connect {source}->{sink}",
    )

