"""Unit tests for the repro.telemetry subsystem."""

import pytest

from repro import telemetry
from repro.telemetry import Counter, Registry, Scope, Timer


class TestCounter:
    def test_inc_and_reset(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        c.reset()
        assert c.value == 0

    def test_counts_up_only(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestTimer:
    def test_accumulates(self):
        t = Timer("phase")
        t.add(0.5)
        t.add(1.5)
        assert t.total_s == 2.0
        assert t.calls == 2
        assert t.mean_s == 1.0

    def test_idle_mean_is_zero(self):
        assert Timer("phase").mean_s == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Timer("phase").add(-0.1)


class TestScope:
    def test_times_a_block(self):
        t = Timer("block")
        with Scope(t):
            pass
        assert t.calls == 1
        assert t.total_s >= 0.0

    def test_records_on_exception(self):
        t = Timer("block")
        with pytest.raises(RuntimeError):
            with Scope(t):
                raise RuntimeError("boom")
        assert t.calls == 1


class TestRegistry:
    def test_get_or_create(self):
        reg = Registry("t")
        assert reg.counter("a") is reg.counter("a")
        assert reg.timer("b") is reg.timer("b")

    def test_snapshot_roundtrip(self):
        reg = Registry("t")
        reg.counter("hits").inc(3)
        reg.timer("phase").add(0.25)
        snap = reg.snapshot()
        assert snap["counters"] == {"hits": 3}
        assert snap["timers"]["phase"] == {"total_s": 0.25, "calls": 1}

    def test_merge_is_additive(self):
        a, b = Registry("a"), Registry("b")
        a.counter("hits").inc(2)
        a.timer("phase").add(1.0)
        b.counter("hits").inc(5)
        b.counter("misses").inc(1)
        b.timer("phase").add(0.5)
        a.merge(b.snapshot())
        assert a.counter("hits").value == 7
        assert a.counter("misses").value == 1
        assert a.timer("phase").total_s == 1.5
        assert a.timer("phase").calls == 2

    def test_merge_overlapping_names_across_worker_snapshots(self):
        # satellite: several workers report the same instrument names;
        # folding all snapshots into the parent must be order-free and
        # additive across every instrument kind
        workers = []
        for i in range(3):
            w = Registry(f"worker-{i}")
            w.counter("csd.connect.grants").inc(i + 1)
            w.timer("fig3.point").add(0.25 * (i + 1))
            w.histogram("lat").observe(10 * (i + 1))
            workers.append(w.snapshot())
        parent = Registry("parent")
        parent.counter("csd.connect.grants").inc(10)
        for snap in workers:
            parent.merge(snap)
        assert parent.counter("csd.connect.grants").value == 10 + 1 + 2 + 3
        assert parent.timer("fig3.point").total_s == pytest.approx(1.5)
        assert parent.timer("fig3.point").calls == 3
        assert sorted(parent.histogram("lat").values) == [10, 20, 30]

    def test_merge_histogram_percentiles_order_free(self):
        forward, backward = Registry("f"), Registry("b")
        snaps = []
        for i in range(4):
            w = Registry(f"w{i}")
            w.histogram("lat").extend([i, i + 10])
            snaps.append(w.snapshot())
        for snap in snaps:
            forward.merge(snap)
        for snap in reversed(snaps):
            backward.merge(snap)
        assert forward.histogram("lat").p50 == backward.histogram("lat").p50
        assert forward.histogram("lat").p99 == backward.histogram("lat").p99

    def test_summary_reports_histograms(self):
        reg = Registry("t")
        reg.histogram("lat").extend([1, 2, 3, 4])
        out = reg.summary()
        assert "lat" in out
        assert "p95" in out

    def test_reset_clears_everything(self):
        reg = Registry("t")
        reg.counter("hits").inc()
        reg.timer("phase").add(1.0)
        reg.histogram("lat").observe(3)
        reg.reset()
        assert reg.counter("hits").value == 0
        assert reg.timer("phase").calls == 0
        assert reg.histogram("lat").count == 0

    def test_summary_elides_zero_instruments(self):
        reg = Registry("t")
        reg.counter("silent")
        reg.counter("loud").inc()
        out = reg.summary()
        assert "loud" in out
        assert "silent" not in out

    def test_empty_summary(self):
        assert "no events recorded" in Registry("t").summary()

    def test_summary_reports_gauges_series_heatmaps(self):
        reg = Registry("t")
        reg.gauge("fill").set(0.75)
        reg.time_series("depth").record(0, 1.0)
        reg.time_series("depth").record(4, 3.0)
        reg.heatmap("demand").add("s0", 0, 2.0)
        out = reg.summary()
        assert "Gauge" in out and "fill" in out
        assert "Series" in out and "depth" in out
        assert "Heatmap" in out and "demand" in out

    def test_summary_orders_gauges_deterministically(self):
        reg = Registry("t")
        reg.gauge("b.second").set(2.0)
        reg.gauge("a.first").set(1.0)
        out = reg.summary()
        assert out.index("a.first") < out.index("b.second")

    def test_summary_elides_idle_observation_instruments(self):
        reg = Registry("t")
        reg.gauge("idle.gauge")
        reg.time_series("idle.series")
        reg.heatmap("idle.heatmap")
        reg.counter("loud").inc()
        out = reg.summary()
        assert "idle." not in out


class TestHistogramStats:
    def test_min_and_stddev(self):
        from repro.telemetry.metrics import Histogram

        h = Histogram("lat", values=[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert h.min == 2.0
        assert h.stddev == 2.0  # classic population-stddev example

    def test_idle_histogram_stats_are_zero(self):
        from repro.telemetry.metrics import Histogram

        h = Histogram("lat")
        assert h.min == 0.0
        assert h.stddev == 0.0
        assert Histogram("lat", values=[3.0]).stddev == 0.0

    def test_summary_surfaces_min_and_stddev_columns(self):
        reg = Registry("t")
        reg.histogram("lat").extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        out = reg.summary()
        assert "Min" in out and "Stddev" in out


class TestDefaultRegistry:
    def test_module_level_helpers(self):
        telemetry.reset()
        telemetry.counter("test.hits").inc(2)
        with telemetry.scope("test.phase"):
            pass
        snap = telemetry.snapshot()
        assert snap["counters"]["test.hits"] == 2
        assert snap["timers"]["test.phase"]["calls"] == 1
        telemetry.reset()
        assert telemetry.counter("test.hits").value == 0

    def test_hot_paths_feed_default_registry(self):
        from repro.csd.dynamic_csd import DynamicCSDNetwork
        from repro.errors import ChannelAllocationError

        telemetry.reset()
        net = DynamicCSDNetwork(8, n_channels=1)
        conn = net.connect(0, 7)
        with pytest.raises(ChannelAllocationError):
            net.connect(1, 6)
        net.disconnect(conn)
        snap = telemetry.snapshot()
        assert snap["counters"]["csd.connect.grants"] == 1
        assert snap["counters"]["csd.connect.blocks"] == 1
        assert snap["counters"]["csd.disconnects"] == 1


def _switches():
    obs = telemetry.observer()
    return (
        telemetry.tracer().enabled,
        obs.enabled,
        obs.stride,
        telemetry.profiler().enabled,
    )


def _record_work():
    telemetry.counter("session.hits").inc(3)
    with telemetry.span("session.work"):
        pass


class TestSession:
    """``telemetry.session`` is the one way an instrumented run starts:
    a reset registry, exactly the requested switches, and all three off
    again on the way out with what was recorded kept for export."""

    @pytest.fixture(autouse=True)
    def _clean(self):
        telemetry.reset()
        yield
        telemetry.reset()

    @pytest.mark.parametrize("trace, observe, profile, stride", [
        (False, False, False, 0),
        (True, False, False, 0),
        (False, True, False, 5),
        (False, False, True, 0),
        (True, True, True, 3),
    ])
    def test_entry_resets_and_sets_requested_switches(
        self, trace, observe, profile, stride
    ):
        telemetry.counter("session.stale").inc(7)
        # start from the opposite switches, so entering must set each one
        telemetry.enable_tracing(not trace)
        telemetry.enable_observation(not observe, stride + 1)
        telemetry.enable_profiling(not profile)
        with telemetry.session(
            trace=trace, observe=observe, profile=profile, stride=stride
        ):
            assert telemetry.counter("session.stale").value == 0
            assert _switches() == (trace, observe, stride, profile)

    def test_normal_exit_switches_off_and_keeps_data(self):
        with telemetry.session(
            trace=True, observe=True, profile=True, stride=2
        ):
            _record_work()
        assert _switches() == (False, False, 0, False)
        assert telemetry.snapshot()["counters"]["session.hits"] == 3
        assert [s.name for s in telemetry.tracer().spans] == ["session.work"]

    def test_exception_exit_switches_off_and_keeps_data(self):
        with pytest.raises(RuntimeError, match="boom"):
            with telemetry.session(trace=True, observe=True, profile=True):
                _record_work()
                raise RuntimeError("boom")
        assert _switches() == (False, False, 0, False)
        assert telemetry.snapshot()["counters"]["session.hits"] == 3
        assert [s.name for s in telemetry.tracer().spans] == ["session.work"]
