"""Unit tests for the sleep timer (section 3.3)."""

from repro.core.states import ProcessorState, ProcessorStateMachine


def sleeping(wake_at=None):
    sm = ProcessorStateMachine()
    sm.configure()
    sm.activate()
    sm.sleep(wake_at=wake_at)
    return sm


class TestTimer:
    def test_timer_wakes_at_deadline(self):
        sm = sleeping(wake_at=100)
        assert not sm.tick(99)
        assert sm.state is ProcessorState.SLEEP
        assert sm.tick(100)
        assert sm.state is ProcessorState.ACTIVE

    def test_late_tick_also_wakes(self):
        sm = sleeping(wake_at=100)
        assert sm.tick(250)
        assert sm.state is ProcessorState.ACTIVE

    def test_event_only_sleep_ignores_ticks(self):
        # "or wait for an event from inside"
        sm = sleeping(wake_at=None)
        assert not sm.tick(10_000)
        assert sm.state is ProcessorState.SLEEP
        sm.wake()  # the event
        assert sm.state is ProcessorState.ACTIVE

    def test_wake_clears_timer(self):
        sm = sleeping(wake_at=100)
        sm.wake()
        assert sm.wake_at is None

    def test_ticks_ignored_outside_sleep(self):
        sm = ProcessorStateMachine()
        assert not sm.tick(1)
        sm.configure()
        sm.activate()
        assert not sm.tick(1)
        assert sm.state is ProcessorState.ACTIVE

    def test_synchronization_barrier_pattern(self):
        # "the sleep state can be used for processor-level synchronization"
        workers = [sleeping(wake_at=50) for _ in range(4)]
        for now in range(49):
            assert not any(sm.tick(now) for sm in workers)
        woke = [sm.tick(50) for sm in workers]
        assert all(woke)  # all wake on the same tick: a barrier
