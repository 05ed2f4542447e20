"""Lockstep validation of :class:`VectorSampler` against the live
:class:`~repro.telemetry.observe.Sampler` (the identity the engine's
observation replay rests on).

Two layers:

* the unit property drives one random request program through a live
  :class:`DynamicCSDNetwork` with a live sampler ticking per request,
  resolves the same program with :meth:`VectorCSDKernel.grant_many`,
  and replays that grant log through a :class:`VectorSampler` into
  fresh instruments — every heatmap cell, series sample, ``dropped``
  tally, and ``samples_taken`` count must match byte for byte, even
  with tiny instrument capacities forcing evictions;
* the end-to-end property runs the same observed trial on the live
  simulator and on the sweep engine's vector path and demands
  byte-identical observation documents, for N up to 256.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.csd.dynamic_csd import DynamicCSDNetwork
from repro.csd.simulator import CSDSimulator
from repro.engine import SweepEngine
from repro.errors import ChannelAllocationError
from repro.megascale.kernel import VectorCSDKernel, VectorSampler
from repro.telemetry.exposition import observation_document, observe_json
from repro.telemetry.observe import Heatmap, Sampler, TimeSeries

_geometries = st.tuples(st.integers(1, 6), st.integers(4, 10))

#: One request: a span [lo, hi) between two objects of the array.  With
#: at most 6 channels, blocked requests (granted=None, no log row) are
#: common.
def _requests(n_segments):
    return st.lists(
        st.integers(0, n_segments - 1).flatmap(
            lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, n_segments))
        ),
        max_size=30,
    )


def _instruments(series_capacity, heatmap_cells):
    return (
        Heatmap("seg", max_cells=heatmap_cells),
        Heatmap("ch", max_cells=heatmap_cells),
        TimeSeries("used", capacity=series_capacity),
    )


def _state(seg, ch, series):
    return (seg.state(), ch.state(), series.state())


class TestSamplerLockstepProperty:
    @settings(deadline=None, max_examples=80)
    @given(
        geometry=_geometries.flatmap(
            lambda g: st.tuples(st.just(g), _requests(g[1]))
        ),
        stride=st.integers(1, 5),
        series_capacity=st.integers(2, 8),
        heatmap_cells=st.integers(4, 64),
    )
    def test_replay_matches_live_sampler(
        self, geometry, stride, series_capacity, heatmap_cells
    ):
        (n_channels, n_segments), requests = geometry

        # live side: the live network sampled per request by the Sampler
        net = DynamicCSDNetwork(n_segments + 1, n_channels=n_channels)
        seg, ch, series = _instruments(series_capacity, heatmap_cells)
        sampler = Sampler(stride)
        sampler.attach_series(series, net.used_channels)
        sampler.attach_heatmap(
            seg,
            lambda: {f"s{i}": v for i, v in enumerate(net.segment_demand())},
        )
        sampler.attach_heatmap(
            ch,
            lambda: {
                f"ch{i}": v for i, v in enumerate(net.channel_occupancy())
            },
        )
        for lo, hi in requests:
            try:
                net.connect(lo, hi)
            except ChannelAllocationError:
                pass
            sampler.tick()

        # vector side: the kernel's grant log replayed into fresh
        # instruments
        grants = VectorCSDKernel(n_channels, n_segments).grant_many(
            [lo for lo, _ in requests], [hi for _, hi in requests]
        )
        log = [
            (idx + 1, lo, hi, granted)
            for idx, ((lo, hi), granted) in enumerate(zip(requests, grants))
            if granted >= 0
        ]
        cycles = np.asarray([r[0] for r in log], dtype=np.int64)
        lo_col = np.asarray([r[1] for r in log], dtype=np.int64)
        hi_col = np.asarray([r[2] for r in log], dtype=np.int64)
        ch_col = np.asarray([r[3] for r in log], dtype=np.int64)
        seg2, ch2, series2 = _instruments(series_capacity, heatmap_cells)
        vec = VectorSampler(n_segments, n_channels, stride)
        vec.replay(
            cycles, lo_col, hi_col, ch_col, len(requests),
            seg2, ch2, series=series2,
        )

        assert _state(seg2, ch2, series2) == _state(seg, ch, series)
        assert vec.samples_taken == sampler.samples_taken


def _observed_document(stride, run):
    telemetry.reset()
    telemetry.enable_observation(True, stride)
    try:
        run()
        return observe_json(observation_document(telemetry.snapshot()))
    finally:
        telemetry.reset()


class TestEndToEndObservation:
    @settings(deadline=None, max_examples=20)
    @given(
        n_objects=st.sampled_from([8, 16, 32, 64]),
        locality=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        seed=st.integers(0, 2**16),
        stride=st.integers(0, 5),  # 0 = the site's auto stride
        sample_series=st.booleans(),
    )
    def test_cached_trial_document_matches_live(
        self, n_objects, locality, seed, stride, sample_series
    ):
        live = _observed_document(
            stride,
            lambda: CSDSimulator(n_objects).run_trial(
                locality, trial_seed=seed, sample_series=sample_series
            ),
        )
        live_runs = []
        run_trial = CSDSimulator.run_trial

        def spy(self, *args, **kwargs):
            live_runs.append(args)
            return run_trial(self, *args, **kwargs)

        CSDSimulator.run_trial = spy
        try:
            vector = _observed_document(
                stride,
                lambda: SweepEngine().run_csd_trial(
                    n_objects, locality, seed, sample_series=sample_series
                ),
            )
        finally:
            CSDSimulator.run_trial = run_trial
        assert live_runs == []  # the engine stayed on the vector path
        assert vector == live

    def test_matches_live_at_acceptance_size(self):
        """The ISSUE's acceptance bound: byte-identical documents at
        N = 256 (auto stride = 4)."""
        live = _observed_document(
            0,
            lambda: CSDSimulator(256).run_trial(
                0.5, trial_seed=42, sample_series=True
            ),
        )
        cached = _observed_document(
            0,
            lambda: SweepEngine().run_csd_trial(
                256, 0.5, 42, sample_series=True
            ),
        )
        assert cached == live
