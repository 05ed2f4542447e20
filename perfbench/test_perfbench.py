"""Tests of the benchmark's own arithmetic (run: python3 -m pytest perfbench)."""

from __future__ import annotations

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Recorder, covered, self_times, unattributed, within  # noqa: E402
from timing import REFERENCE_PROBE_S, Meter, latency_summary, percentile, spread  # noqa: E402


def span(name, start, end, parent=-1, op=None):
    return (name, float(start), float(end), parent, op)


class TestSelfTime:
    def test_nested_children(self):
        # a [0, 10] > b [1, 6] > c [2, 4]
        spans = [span("a", 0, 10), span("b", 1, 6, 0), span("c", 2, 4, 1)]
        assert self_times(spans) == {"a": 5.0, "b": 3.0, "c": 2.0}

    def test_back_to_back_children(self):
        # two children that touch at t=4 cover [2, 7] once, not twice
        spans = [span("a", 0, 10), span("b", 2, 4, 0), span("b", 4, 7, 0)]
        assert self_times(spans) == {"a": 5.0, "b": 5.0}

    def test_self_times_and_gaps_sum_to_the_phase(self):
        spans = [span("a", 1, 4), span("b", 2, 3, 0), span("a", 5, 8),
                 span("c", 6, 8, 2)]
        phase = (0.0, 10.0)
        loose = unattributed(spans, *phase)
        assert loose == 4.0  # [0,1] + [4,5] + [8,10]
        assert sum(self_times(spans).values()) + loose == 10.0

    def test_covered_merges_overlaps_and_clips(self):
        assert covered([(0, 3), (2, 5), (7, 9)], 1, 8) == 5.0  # [1,5] + [7,8]
        assert covered([], 0, 1) == 0.0

    def test_within_drops_subtrees_outside_sections(self):
        spans = [span("a", 0, 1), span("b", 0.2, 0.5, 0), span("a", 2, 3),
                 span("b", 2.1, 2.2, 2)]
        kept = within(spans, [(1.5, 3.5)])
        assert kept == [span("a", 2, 3), span("b", 2.1, 2.2, 0)]


class TestRecorder:
    def test_wrapped_calls_nest_and_restore(self):
        class Box:
            def outer(self):
                return self.inner() + 1

            def inner(self):
                return 1

        rec = Recorder()
        original = Box.__dict__["outer"]
        rec.wrap(Box, "outer", "layer.outer", op_key=lambda a: "op-1")
        rec.wrap(Box, "inner", "layer.inner",
                 on_return=lambda r, a, res: r.count("inner.calls"))
        assert Box().outer() == 2
        rec.unpatch()
        assert Box.__dict__["outer"] is original
        (outer, inner) = rec.finished()
        assert outer[0] == "layer.outer" and outer[3] == -1
        assert inner[0] == "layer.inner" and inner[3] == 0
        assert inner[4] == "op-1"
        assert rec.counts == {"inner.calls": 1}

    def test_missing_boundary_is_skipped(self):
        rec = Recorder()
        assert rec.wrap(object, "no_such_attribute", "x") is False


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100
        assert percentile([7.0], 99) == 7.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 0)

    def test_latency_summary_counts_samples_beyond_the_tail(self):
        values = [float(v) for v in range(1, 2001)]
        summary = latency_summary(values, 99)
        assert summary["count"] == 2000
        assert summary["p50"] == 1000.0
        assert summary["tail"] == 1980.0
        assert summary["beyond_tail"] == 20
        assert latency_summary(values, 90)["beyond_tail"] == 200

    def test_spread_matches_statistics_quantiles(self):
        st = spread([1.0, 2.0, 3.0, 4.0, 5.0])
        assert st["median"] == 3.0
        assert (st["q1"], st["q3"]) == (1.5, 4.5)
        assert math.isclose(st["iqr_share"], 1.0)


def meter_with(probes):
    """A meter holding the given (start, length) probes."""
    meter = Meter()
    for start, length in probes:
        meter._starts.append(float(start))
        meter._ends.append(float(start + length))
        meter._lengths.append(float(length))
    return meter


class TestMeter:
    # probes: [0, 1) of length 1, [5, 7) of length 2, [10, 11) of length 1
    PROBES = [(0, 1), (5, 2), (10, 1)]

    def norm(self, seconds, *lengths):
        return seconds * REFERENCE_PROBE_S / (sum(lengths) / len(lengths))

    def test_op_between_two_probes_uses_their_mean(self):
        raw, normalized = meter_with(self.PROBES).busy(2, 4)
        assert raw == 2.0
        assert math.isclose(normalized, self.norm(2, 1, 2))

    def test_span_across_probes_leaves_them_out(self):
        # [1, 5) between probes 0 and 1, [7, 10) between probes 1 and 2
        raw, normalized = meter_with(self.PROBES).busy(1, 10)
        assert raw == 7.0
        assert math.isclose(normalized, self.norm(4, 1, 2) + self.norm(3, 2, 1))

    def test_stretches_outside_the_probes_use_the_nearest(self):
        meter = meter_with(self.PROBES)
        assert meter.busy(-2, 0) == (2.0, self.norm(2, 1))
        assert meter.busy(11, 14) == (3.0, self.norm(3, 1))

    def test_start_inside_a_probe(self):
        raw, normalized = meter_with(self.PROBES).busy(6, 8)
        assert raw == 1.0
        assert math.isclose(normalized, self.norm(1, 2, 1))

    def test_real_probes(self):
        meter = Meter()
        meter.probe()
        meter.probe()
        lo, hi = meter._ends[0], meter._starts[1]
        raw, normalized = meter.busy(lo, hi)
        assert raw == hi - lo
        assert math.isclose(normalized, self.norm(raw, *meter._lengths))
        assert meter.mean_probe() == sum(meter._lengths) / 2

    def test_no_probes_is_an_error(self):
        with pytest.raises(ValueError):
            Meter().busy(0, 1)
