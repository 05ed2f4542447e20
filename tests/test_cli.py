"""Unit tests for the command-line interface."""

import hashlib
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro import __version__, telemetry
from repro.__main__ import main
from repro.telemetry import baseline
from tests.planner.test_report import PINNED_SHA256 as PINNED_DEFRAG_SHA256

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.reset()
    telemetry.enable_tracing(False)
    telemetry.enable_observation(False)
    yield
    telemetry.reset()
    telemetry.enable_tracing(False)
    telemetry.enable_observation(False)


class TestTableCommand:
    @pytest.mark.parametrize("number", [1, 2, 3])
    def test_area_tables(self, number, capsys):
        assert main(["table", str(number)]) == 0
        out = capsys.readouterr().out
        assert "Total" in out
        assert "lambda^2" in out

    def test_table4(self, capsys):
        assert main(["table", "4"]) == 0
        out = capsys.readouterr().out
        assert "Peak GOPS" in out
        assert "2010" in out and "2015" in out

    def test_unknown_table_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["table", "9"])


class TestFig3Command:
    def test_small_sweep(self, capsys):
        assert main(["fig3", "--n-objects", "16", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "Nobject=16" in out
        assert "used_channels=" in out

    def test_stats_prints_telemetry_counters(self, capsys):
        assert main(
            ["fig3", "--n-objects", "16", "--trials", "2", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "grants=" in out and "blocks=" in out and "rollbacks=" in out
        assert "csd.connect.grants" in out
        assert "fig3.trial" in out

    def test_workers_match_serial_output(self, capsys):
        args = ["fig3", "--n-objects", "16", "32", "--trials", "2"]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out


class TestReproducibilityBanner:
    def test_stats_prints_banner(self, capsys):
        assert main(
            ["fig3", "--n-objects", "16", "--trials", "2", "--stats",
             "--seed", "7"]
        ) == 0
        out = capsys.readouterr().out
        assert f"repro {__version__} fig3: seed=7 trials=2 workers=1" in out

    def test_banner_reports_worker_count(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        assert main(
            ["fig3", "--n-objects", "16", "--trials", "2",
             "--workers", "2", "--trace", str(trace)]
        ) == 0
        assert "seed=42 trials=2 workers=2" in capsys.readouterr().out

    def test_plain_fig3_has_no_banner(self, capsys):
        assert main(["fig3", "--n-objects", "16", "--trials", "2"]) == 0
        assert "seed=" not in capsys.readouterr().out

    def test_version_flag(self, capsys):
        import numpy

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == (
            f"repro {__version__} (numpy {numpy.__version__})"
        )

    def test_banner_reports_numpy_version(self, capsys):
        import numpy

        assert main(
            ["fig3", "--n-objects", "16", "--trials", "2", "--stats"]
        ) == 0
        assert f"numpy={numpy.__version__}" in capsys.readouterr().out


class TestTraceCommands:
    def test_trace_writes_perfetto_loadable_json(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(
            ["fig3", "--n-objects", "16", "--trials", "2",
             "--trace", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "perfetto" in out
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_trace_then_report_round_trip(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(
            ["fig3", "--n-objects", "16", "--trials", "2",
             "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["trace-report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Critical path" in out
        assert "fig3.point" in out and "fig3.trial" in out
        assert "p50" in out and "p95" in out and "p99" in out
        assert "Blocking hotspots" in out

    def test_trace_disables_tracing_afterwards(self, tmp_path):
        trace = tmp_path / "trace.json"
        main(["fig3", "--n-objects", "16", "--trials", "2",
              "--trace", str(trace)])
        assert telemetry.tracer().enabled is False

    def test_report_missing_file_is_an_error(self, capsys, tmp_path):
        assert main(["trace-report", str(tmp_path / "nope.json")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_report_malformed_file_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        assert main(["trace-report", str(bad)]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_report_json_without_trace_events_is_an_error(
        self, capsys, tmp_path
    ):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a trace"}')
        assert main(["trace-report", str(bad)]) == 2
        assert "cannot read trace" in capsys.readouterr().err


BUNDLE_FILES = [
    "dashboard.html",
    "heatmaps.csv",
    "metrics.prom",
    "observe.json",
    "series.csv",
]


class TestObserveCommands:
    def test_fig3_observe_writes_bundle(self, capsys, tmp_path):
        out = tmp_path / "obs"
        assert main(
            ["fig3", "--n-objects", "16", "--trials", "2",
             "--observe", str(out)]
        ) == 0
        assert "wrote observation bundle" in capsys.readouterr().out
        for name in BUNDLE_FILES:
            assert (out / name).exists(), name
        assert (out / "metrics.prom").read_text().endswith("# EOF\n")
        assert "repro_fig3_used_channels" in (out / "metrics.prom").read_text()
        assert telemetry.observer().enabled is False

    def test_faults_observe_writes_bundle(self, capsys, tmp_path):
        out = tmp_path / "obs"
        assert main(
            ["faults", "--rates", "0.1", "--n-objects", "16",
             "--trials", "1", "--observe", str(out)]
        ) == 0
        metrics = (out / "metrics.prom").read_text()
        assert "repro_faults_survival" in metrics
        assert "repro_faults_recovery_p95" in metrics
        assert "repro_noc_buffer_depth_cells" in metrics

    def test_observe_and_profile_render_one_snapshot(
        self, capsys, tmp_path, monkeypatch
    ):
        calls = []
        snapshot = telemetry.snapshot

        def counted():
            calls.append(1)
            return snapshot()

        monkeypatch.setattr(telemetry, "snapshot", counted)
        assert main(
            ["fig3", "--n-objects", "16", "--trials", "2", "--quiet",
             "--observe", str(tmp_path / "obs"), "--profile"]
        ) == 0
        assert len(calls) == 1

    def test_observe_workers_match_serial_bytes(self, capsys, tmp_path):
        """Acceptance criterion: serial and --workers runs produce
        byte-identical OpenMetrics and heatmap artifacts."""
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        args = ["fig3", "--n-objects", "16", "32", "--trials", "2"]
        assert main(args + ["--observe", str(serial)]) == 0
        assert main(
            args + ["--observe", str(parallel), "--workers", "2"]
        ) == 0
        for name in BUNDLE_FILES:
            assert (serial / name).read_bytes() == (
                parallel / name
            ).read_bytes(), name

    def test_observe_report_round_trip(self, capsys, tmp_path):
        out = tmp_path / "obs"
        assert main(
            ["fig3", "--n-objects", "16", "--trials", "2",
             "--observe", str(out)]
        ) == 0
        capsys.readouterr()
        # accepts the directory or the observe.json inside it
        assert main(["observe-report", str(out)]) == 0
        report = capsys.readouterr().out
        assert "fig3.used_channels[n=16,loc=" in report
        assert main(["observe-report", str(out / "observe.json")]) == 0

    def test_observe_report_missing_is_an_error(self, capsys, tmp_path):
        assert main(["observe-report", str(tmp_path / "nope")]) == 2
        assert "cannot read observation" in capsys.readouterr().err

    def test_observe_report_malformed_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "observe.json"
        bad.write_text("{broken")
        assert main(["observe-report", str(bad)]) == 2
        assert "cannot read observation" in capsys.readouterr().err

    def test_observe_report_malformed_label_is_an_error(self, capsys, tmp_path):
        """An instrument name with a broken label block must be rejected
        with exit 2, not silently mis-parsed into wrong labels."""
        out = tmp_path / "obs"
        assert main(
            ["fig3", "--n-objects", "16", "--trials", "2",
             "--observe", str(out)]
        ) == 0
        capsys.readouterr()
        doc_path = out / "observe.json"
        doc = json.loads(doc_path.read_text())
        first = next(iter(doc["gauges"]))
        doc["gauges"]["broken[n=16"] = doc["gauges"].pop(first)
        doc_path.write_text(json.dumps(doc))
        assert main(["observe-report", str(doc_path)]) == 2
        assert "malformed point label" in capsys.readouterr().err


OBSERVE_DOC = {"schema": "repro.telemetry.observe/1", "title": "t"}


class TestHostileArtifacts:
    """An artifact of the right kind but the wrong shape exits 2 with
    one stderr line naming the file: each loader checks the whole shape
    its report reads, so a file it accepts renders."""

    @pytest.mark.parametrize("command, document", [
        ("trace-report", {"traceEvents": [1]}),
        ("trace-report", {"traceEvents": [{
            "ph": "X", "name": "s", "ts": 0,
            "args": {"span_id": 1, "cycle_start": "a", "cycle_end": "b"},
        }]}),
        ("observe-report", {**OBSERVE_DOC, "counters": [1]}),
        ("observe-report", {**OBSERVE_DOC, "gauges": {"x": 1}}),
        ("observe-report", {**OBSERVE_DOC, "series": {"x": {"samples": []}}}),
        ("profile", {
            **OBSERVE_DOC, "histograms": {"profile.x": {"count": 1}},
        }),
        ("baseline check", {
            "schema": baseline.BASELINE_SCHEMA, "bench": "fig3",
        }),
        ("baseline check", {
            "schema": baseline.BASELINE_SCHEMA, "bench": "planner",
            "config": {**baseline.BENCHES["planner"], "scenarios": ["nope"]},
        }),
        ("slo-report {examples}/slo.toml --records", {
            "schema": "repro.service.records/1", "config": [], "records": [],
        }),
        # nested past the parser's recursion limit: raw text
        ("observe-report", "[" * 100_000 + "]" * 100_000),
    ], ids=[
        "trace-event-not-object", "trace-text-cycles",
        "observe-counters-list", "observe-gauge-number",
        "observe-series-empty", "profile-histogram-short",
        "baseline-no-config", "baseline-unknown-scenario",
        "slo-records-config-list", "observe-nested-too-deep",
    ])
    def test_exits_2_naming_the_file(
        self, command, document, capsys, tmp_path
    ):
        path = tmp_path / "artifact.json"
        path.write_text(
            document if isinstance(document, str) else json.dumps(document)
        )
        argv = command.format(examples=EXAMPLES).split() + [str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and str(path) in lines[0]


class TestQuietFlag:
    def test_quiet_suppresses_fig3_banner(self, capsys, tmp_path):
        out = tmp_path / "obs"
        assert main(
            ["fig3", "--n-objects", "16", "--trials", "2",
             "--observe", str(out), "--quiet"]
        ) == 0
        assert "seed=" not in capsys.readouterr().out

    def test_quiet_suppresses_faults_banner(self, capsys):
        assert main(
            ["faults", "--rates", "0.1", "--n-objects", "16",
             "--trials", "1", "--quiet"]
        ) == 0
        assert "seed=" not in capsys.readouterr().out


#: SHA-256 of the outputs the live sweeps wrote for these commands (with
#: numpy 2.4.6), before the sweep engine became the only sweep path: the
#: engine must reproduce them byte for byte, serially and at --workers 2.
#: Each key is the command; the digest is of its stdout for fig3 and of
#: its ``--report`` file for faults.
PINNED_SHA256 = {
    "fig3 --n-objects 16 32 64 --trials 3":
        "3fc21fbd6ba72c7915c5989dcb0e218683d0bec10a4fc058af6833673275358e",
    "fig3 --n-objects 16 64 --trials 2":
        "ec155ad96193bec70d5419168a7ea2c6de8342bd28275058b4d7ee0c2213c8f0",
    "faults --rates 0 --n-objects 16 32 --trials 3":
        "fc52e5185feca84e935a12bfcd9628a537209f87cac25a671d0d31dda9b74e91",
    "faults --rates 0 0.05 --n-objects 16 32 --trials 3":
        "2240d55255b402493ffac2cc3c332c1685264f570c355d0e97292184706db79f",
    "faults --rates 0 0.05 --n-objects 16 32 --trials 2 --csd-rate 0":
        "a56bde6f2387777a664ce5653d2af3340d976091c2841d77f13a54702b444ba8",
    "faults --rates 0.05 0.2 --n-objects 64 --trials 2":
        "7978e7c33c184bdfb17b71a822dd81ffaa7c33ea8b7d003fd4fb6dd687adc6a3",
    # written by the sweep engine at 9a54dfe, before a ChainedCSD's
    # segment grids were derived in one batch: at rate 0.2 most of the
    # 6-site chained domains hold a faulty segment
    "faults --rates 0.2 --n-objects 16 --trials 8":
        "15d54c0cbdd8d338a590c87c7d51db8355760afe04c415ca4d16d5e5ec10049c",
}

#: SHA-256 of the stdout of ``fig3 --n-objects 1000 4096 --trials 2`` as
#: the sweep engine printed it at commit 7b8afd2 (numpy 2.4.6), serially
#: and at --workers 2, before the draw became columnar.  The live sweeps
#: never ran this size, so this pins the engine's own output, not a
#: live-sweep digest.
PINNED_MEGA_SHA256 = (
    "3d91a5d7493fdec4c2342e184a71389556bd657774c707e8b1a57f3966aa19d5"
)

#: SHA-256 of the ``--trace`` file these ``faults ... --quiet`` commands
#: wrote with numpy 2.4.6, before the CSD fault filter read bitmasks: the
#: order of the ``fault.triggered`` and ``fault.healed`` instants must not
#: move.
PINNED_FAULTS_TRACE_SHA256 = {
    "faults --trials 2 --n-objects 16 32":
        "015a074faa7bcfad1dbbd4a3f33e4432b7bf582ccdcbb18dbcbbe5a1df2a92ba",
    "faults --rates 0.05 0.2 --n-objects 64 --trials 2":
        "f757ca05e68480c5616825dace24e9694a508ea192b5f22a17a699367d61ebcc",
}

#: The same, for each file of ``fig3 --n-objects 64 --trials 2 --quiet
#: --observe DIR``.
PINNED_OBSERVE_SHA256 = {
    "dashboard.html":
        "e576da12fc80ae8a5759d1e026ea0e0b809a05420f77ea902418af737e97e647",
    "heatmaps.csv":
        "be3b0c51d7fa68a58584e884efdfb27c846edddf9a4d9a841a45367222a10447",
    "metrics.prom":
        "cab68b7a69eaaf86373bb367a526da5fb9cec71d0e44e0448c0ea9dfa4ce5c03",
    "observe.json":
        "9c89e7a333de7feaab4e23291df396dbe07568c3e26fa4b4ca89a04aa6bd9dee",
    "series.csv":
        "6b347b8deb36afe30b9ee6da965241961309afc404e7584a608ce1a79afb2ea3",
}

#: The same, for each file of ``faults --rates 0 0.1 --n-objects 16
#: --trials 2 --quiet --observe DIR``, written while four of its
#: configuration worms were still delivered by a sampled express path:
#: a sampled network now steps every worm, and the bundle must not move.
PINNED_FAULTS_OBSERVE_SHA256 = {
    "dashboard.html":
        "8c0fc10d0b43d3446d747076b2a7bbaf30b92088b13b2108bb30abc912268f9c",
    "heatmaps.csv":
        "bb723469385a6a1bab027feba437c84341fecb763481ee3c40c8048ead74e08e",
    "metrics.prom":
        "c55788ad106c7a71ca114770a0bf4aa1bf80b769df54b960ec67fea9bd0812f7",
    "observe.json":
        "90423fd40c3808e415648bc1af7d36e8a44cc3c3e75faea97eb3955aac4f563b",
    "series.csv":
        "6c3247dfa1e4b6de719fbca90c26b32e8895c784185f287c4347dfa7e03ec40f",
}

#: SHA-256 of the files ``service-load`` writes for these commands, run
#: in-process; each maps an output flag to the digest of its file.  The
#: load generator draws from ``random.Random``, not numpy, so these do
#: not move with numpy's version.
PINNED_SERVICE_SHA256 = {
    "service-load --tenants 8 --requests 500 --rows 16 --cols 16 --seed 7": {
        "--report":
            "8f332ab06bc4c81730a7b7d8e68ec03f5d9a5a658085a03e5c654eb8f33a386b",
    },
    "service-load --tenants 4 --requests 12 --rps 500 --seed 42 "
    "--slo {examples}/slo.toml": {
        "--report":
            "e6c164fa15c2974b4d4f7f7720ba84fce35a1a56567ec702be08eda71afd02d8",
        "--trace":
            "436964e392457d934a71be0c630e27e8140baedaf524885fb597507dcbeda88f",
        "--records":
            "011e86095b654d57cc944b81824b252eed93302825982a6ed1c474820bafefc3",
    },
}

WORKER_COUNTS = ([], ["--workers", "2"])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pinned_stdout(capsys, command, extra=()):
    assert main([*command.split(), *extra]) == 0
    return _sha256(capsys.readouterr().out.encode("utf-8"))


def _pinned_report(capsys, tmp_path, command, extra=()):
    report = tmp_path / "report.json"
    assert main(
        [*command.split(), "--quiet", "--report", str(report), *extra]
    ) == 0
    capsys.readouterr()
    return _sha256(report.read_bytes())


@pytest.fixture
def live_trials(monkeypatch):
    """Count the trials that ran on the live simulator."""
    from repro.csd.simulator import CSDSimulator

    calls = []
    run_trial = CSDSimulator.run_trial

    def counted(self, *args, **kwargs):
        calls.append(args)
        return run_trial(self, *args, **kwargs)

    monkeypatch.setattr(CSDSimulator, "run_trial", counted)
    return calls


class TestEngineFlag:
    """The fig3 and faults commands run the sweep engine; their stdout
    and report files must match the digests the live sweeps pinned."""

    FIG3 = "fig3 --n-objects 16 32 64 --trials 3"

    def test_fig3_engine_matches_plain_stdout(self, capsys, live_trials):
        assert _pinned_stdout(capsys, self.FIG3) == PINNED_SHA256[self.FIG3]
        assert live_trials == []  # every trial ran on the vector kernel

    def test_fig3_engine_workers_match_plain_stdout(self, capsys):
        assert _pinned_stdout(
            capsys, self.FIG3, ["--workers", "2", "--quiet"]
        ) == PINNED_SHA256[self.FIG3]

    def test_faults_engine_report_matches_plain(self, capsys, tmp_path):
        for extra in WORKER_COUNTS:
            for command in (
                "faults --rates 0 --n-objects 16 32 --trials 3",
                "faults --rates 0 0.05 --n-objects 16 32 --trials 3",
            ):
                assert _pinned_report(
                    capsys, tmp_path, command, extra
                ) == PINNED_SHA256[command], (command, extra)

    def test_engine_with_observe_stays_on_engine(
        self, capsys, tmp_path, live_trials
    ):
        """Observation replays from the grant log, so an --observe run
        stays on the vector kernel and writes the pinned bundle."""
        out = tmp_path / "obs"
        assert main(
            ["fig3", "--n-objects", "64", "--trials", "2", "--quiet",
             "--observe", str(out)]
        ) == 0
        assert live_trials == []
        for name, digest in PINNED_OBSERVE_SHA256.items():
            assert _sha256((out / name).read_bytes()) == digest, name

    def test_faults_observe_bundle_matches_pinned(self, capsys, tmp_path):
        out = tmp_path / "obs"
        assert main(
            ["faults", "--rates", "0", "0.1", "--n-objects", "16",
             "--trials", "2", "--quiet", "--observe", str(out)]
        ) == 0
        for name, digest in PINNED_FAULTS_OBSERVE_SHA256.items():
            assert _sha256((out / name).read_bytes()) == digest, name

    def test_engine_with_trace_falls_back(self, capsys, tmp_path, live_trials):
        """Under --trace every trial runs on the live simulator, and the
        trace is the live sweep's, byte for byte."""
        from repro.csd.simulator import figure3_series
        from repro.telemetry.export import write_chrome_trace

        trace, live = tmp_path / "t.json", tmp_path / "live.json"
        assert main(
            ["fig3", "--n-objects", "16", "32", "--trials", "3",
             "--trace", str(trace)]
        ) == 0
        assert len(live_trials) == 2 * 6 * 3
        with telemetry.session(trace=True):
            figure3_series(
                localities=[1.0, 0.8, 0.6, 0.4, 0.2, 0.0], n_trials=3,
                n_objects_list=[16, 32],
            )
        write_chrome_trace(telemetry.tracer(), str(live))
        assert trace.read_bytes() == live.read_bytes()


class TestVectorKernelFlag:
    """The vector kernel must stay byte-identical beyond the base sweep:
    N=64, N=1000 and 4096, a faulty N=64 campaign, an N=16 campaign whose
    chained domains mostly hold faults, a pinned ``--csd-rate 0`` and the
    N=64 observation bundle, at --workers 2 as well as serially."""

    FIG3 = "fig3 --n-objects 16 64 --trials 2"
    FAULTY = "faults --rates 0.05 0.2 --n-objects 64 --trials 2"
    CHAINED = "faults --rates 0.2 --n-objects 16 --trials 8"
    MEGA = "fig3 --n-objects 1000 4096 --trials 2"

    def test_fig3_vector_matches_plain_stdout(self, capsys):
        assert _pinned_stdout(capsys, self.FIG3) == PINNED_SHA256[self.FIG3]

    def test_fig3_vector_workers_match_plain_stdout(self, capsys):
        assert _pinned_stdout(
            capsys, self.FIG3, ["--workers", "2"]
        ) == PINNED_SHA256[self.FIG3]

    @pytest.mark.parametrize("extra", WORKER_COUNTS)
    def test_mega_n_matches_pinned(self, capsys, extra):
        assert _pinned_stdout(capsys, self.MEGA, extra) == PINNED_MEGA_SHA256

    def test_vector_observe_bundle_matches_live(self, capsys, tmp_path):
        out = tmp_path / "obs"
        assert main(
            ["fig3", "--n-objects", "64", "--trials", "2", "--quiet",
             "--workers", "2", "--observe", str(out)]
        ) == 0
        for name, digest in PINNED_OBSERVE_SHA256.items():
            assert _sha256((out / name).read_bytes()) == digest, name

    def test_faults_vector_csd_rate_report_matches_plain(
        self, capsys, tmp_path
    ):
        command = "faults --rates 0 0.05 --n-objects 16 32 --trials 2 --csd-rate 0"
        for extra in WORKER_COUNTS:
            assert _pinned_report(
                capsys, tmp_path, command, extra
            ) == PINNED_SHA256[command], extra
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["csd_rate"] == 0.0

    @pytest.mark.parametrize("extra", WORKER_COUNTS)
    def test_faulty_n64_report_matches_pinned(self, capsys, tmp_path, extra):
        assert _pinned_report(
            capsys, tmp_path, self.FAULTY, extra
        ) == PINNED_SHA256[self.FAULTY]

    @pytest.mark.parametrize("extra", WORKER_COUNTS)
    def test_chained_faults_report_matches_pinned(self, capsys, tmp_path, extra):
        assert _pinned_report(
            capsys, tmp_path, self.CHAINED, extra
        ) == PINNED_SHA256[self.CHAINED]

    @pytest.mark.parametrize("command", sorted(PINNED_FAULTS_TRACE_SHA256))
    def test_faults_trace_matches_pinned(self, capsys, tmp_path, command):
        trace = tmp_path / "trace.json"
        assert main(
            [*command.split(), "--quiet", "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        assert _sha256(trace.read_bytes()) == PINNED_FAULTS_TRACE_SHA256[command]


class TestSweepArgumentErrors:
    """Hostile fig3/faults/defrag/service-load arguments exit 2 with one
    stderr line before any work starts — never a traceback, never a
    silent fallback."""

    @pytest.mark.parametrize("argv", [
        ["fig3", "--trials", "0"],
        ["fig3", "--n-objects", "16", "1"],
        ["fig3", "--workers", "-3"],
        ["fig3", "--trials", "-1"],
        ["faults", "--trials", "0"],
        ["faults", "--n-objects", "1"],
        ["faults", "--rates", "0", "2"],
        ["faults", "--rate", "-0.1"],
        ["faults", "--workers", "0"],
        ["faults", "--csd-rate", "1.5"],
        ["faults", "--csd-rate", "nan"],
        ["defrag", "--max-passes", "0"],
        ["defrag", "--max-passes", "-3"],
        ["defrag", "--scenario", "nope"],
        ["service-load", "--rps", "nan"],
        ["fig3", "--seed", "-5"],
        ["faults", "--seed", "-1"],
        ["fig3", "--n-objects", "2147483648", "--trials", "1"],
        ["faults", "--n-objects", "2147483648", "--trials", "1",
         "--rates", "0"],
        ["service-load", "--rps", "inf"],
        ["service-load", "--connect", "127.0.0.1:99999"],
        ["service-load", "--connect", "127.0.0.1:\u00b2"],
        ["service-load", "--connect", "127.0.0.1:0"],
    ])
    def test_exits_2_with_one_line(self, argv, capsys):
        assert main([*argv, "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{argv[0]}: ")


class TestOutputPathErrors:
    """An output path that cannot be written exits 2 with one stderr
    line before the run starts, not with a traceback after it: a file
    output needs an existing parent directory and must not be one, and
    the nearest existing ancestor of --observe must be a directory."""

    @pytest.mark.parametrize("argv", [
        ["fig3", "--n-objects", "16", "--trials", "1",
         "--trace", "{missing}/x.json"],
        ["fig3", "--n-objects", "16", "--trials", "1",
         "--observe", "{file}"],
        ["faults", "--n-objects", "16", "--trials", "1",
         "--report", "{dir}"],
        ["faults", "--n-objects", "16", "--trials", "1",
         "--observe", "{file}"],
        ["service-load", "--requests", "4", "--trace", "{missing}/t.json"],
        ["service-load", "--requests", "4", "--report", "{dir}"],
        ["service-load", "--requests", "4", "--records", "{missing}/r.json"],
        ["defrag", "--report", "{missing}/d.json"],
        ["slo-report", "{spec}", "--records", "{records}",
         "--report", "{missing}/s.json"],
        ["baseline", "record", "--bench", "fig3",
         "--out", "{missing}/b.json"],
        ["fig3", "--n-objects", "16", "--trials", "1",
         "--observe", "{file}/sub"],
    ])
    def test_exits_2_before_the_run(self, argv, capsys, tmp_path):
        existing = tmp_path / "existing.txt"
        existing.write_text("keep me\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"objective": [{
            "name": "rejections", "kind": "rejection_rate",
            "threshold": 0.5, "window_cycles": 64, "budget": 0.5,
        }]}))
        records = tmp_path / "records.json"
        records.write_text(json.dumps({
            "schema": "repro.service.records/1", "records": [],
            "config": {"rows": 8, "cols": 8},
        }))
        paths = {
            "missing": tmp_path / "missing",
            "file": existing,
            "dir": tmp_path,
            "spec": spec,
            "records": records,
        }
        assert main([arg.format(**paths) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{argv[0]}: ")
        assert existing.read_text() == "keep me\n"
        assert not (tmp_path / "missing").exists()


class TestDieSizeErrors:
    """chip and serve reject a die without clusters, and serve a port
    outside 0-65535 or a tenant cap below 1, like every other bad
    argument: exit 2 with one stderr line, before a fabric is built or
    (for serve) the event loop that binds the port starts."""

    @pytest.mark.parametrize("argv", [
        ["chip", "--rows", "0"],
        ["chip", "--cols", "-2"],
        ["serve", "--rows", "0"],
        ["serve", "--cols", "0"],
        ["serve", "--port", "99999"],
        ["serve", "--port", "-5"],
        ["serve", "--metrics-port", "70000"],
        ["serve", "--max-tenants", "0"],
        ["serve", "--max-tenants", "-1"],
    ])
    def test_exits_2_with_one_line(self, argv, capsys, monkeypatch):
        import asyncio

        def no_loop(coro):
            coro.close()
            raise AssertionError("serve started its event loop")

        monkeypatch.setattr(asyncio, "run", no_loop)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{argv[0]}: ")


def _free_port():
    """A localhost port nothing listens on (it may be taken again later,
    which only makes the bind fail the way the test expects)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestServeListenErrors:
    """serve exits 1 with one stderr line when a port it must listen on
    is taken, closing the metrics endpoint if that had started.  It runs
    in a subprocess with a timeout, so a serve that binds anyway fails
    the test instead of serving forever."""

    @pytest.mark.parametrize("flags", [
        ["--port", "{taken}"],
        ["--port", "0", "--metrics-port", "{taken}"],
        ["--port", "{free}", "--metrics-port", "{free}"],
    ], ids=["port-taken", "metrics-port-taken", "same-port-twice"])
    def test_exits_1_with_one_line(self, flags):
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            taken = holder.getsockname()[1]
            free = _free_port()
            argv = [flag.format(taken=taken, free=free) for flag in flags]
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [SRC, env.get("PYTHONPATH", "")]
            )
            done = subprocess.run(
                [sys.executable, "-m", "repro", "serve", *argv],
                capture_output=True, text=True, timeout=60, env=env,
            )
        port = taken if "{taken}" in flags else free
        assert done.returncode == 1
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        assert lines[0].startswith(f"serve: cannot listen on 127.0.0.1:{port}: ")


class TestBaselineCommand:
    def test_record_then_check_passes(self, capsys, tmp_path):
        out = tmp_path / "BENCH_fig3.json"
        assert main(
            ["baseline", "record", "--bench", "fig3", "--out", str(out)]
        ) == 0
        assert "recorded fig3 baseline" in capsys.readouterr().out
        assert main(
            ["baseline", "check", str(out), "--skip-wallclock"]
        ) == 0
        assert "baseline holds" in capsys.readouterr().out

    def test_engine_bench_record_then_check(self, capsys, tmp_path):
        out = tmp_path / "BENCH_engine.json"
        assert main(
            ["baseline", "record", "--bench", "engine", "--out", str(out)]
        ) == 0
        assert "recorded engine baseline" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["wallclock"]["cold_speedup"] >= 10.0
        assert doc["deterministic"]["engine.identical_legacy"] == 1.0
        assert main(["baseline", "check", str(out), "--skip-wallclock"]) == 0
        assert "baseline holds" in capsys.readouterr().out

    def test_check_malformed_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{nope")
        assert main(["baseline", "check", str(bad)]) == 2
        assert "cannot read baseline" in capsys.readouterr().err

    def test_unknown_bench_rejected(self, capsys, tmp_path):
        assert main(
            ["baseline", "record", "--bench", "fig9",
             "--out", str(tmp_path / "x.json")]
        ) == 2

    @pytest.mark.parametrize("flags", [
        ["--throughput-tolerance", "nan"],
        ["--throughput-tolerance", "1"],
        ["--throughput-tolerance", "-0.1"],
        ["--latency-tolerance", "nan"],
    ])
    def test_tolerance_that_disables_a_check_exits_2(
        self, capsys, monkeypatch, tmp_path, flags
    ):
        """Rejected before any bench runs: measuring would raise."""

        def no_bench(*args, **kwargs):
            raise AssertionError("bench ran before the tolerance check")

        monkeypatch.setattr(baseline, "measure_bench", no_bench)
        doc = tmp_path / "BENCH_faults.json"
        doc.write_text(json.dumps({
            "schema": baseline.BASELINE_SCHEMA, "bench": "faults",
            "config": baseline.BENCHES["faults"], "deterministic": {},
            "wallclock": {"points_per_s": 1e9},
        }))
        assert main(["baseline", "check", str(doc), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("baseline: ") and err.count("\n") == 1


class TestFaultsCommand:
    ARGS = ["faults", "--rate", "0.05", "--n-objects", "16", "--trials", "2"]

    def test_small_campaign(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "Fault campaign" in out
        assert "survival" in out
        assert f"repro {__version__} faults: seed=42 trials=2" in out

    def test_stats_prints_recovery_percentiles(self, capsys):
        assert main(self.ARGS + ["--stats"]) == 0
        out = capsys.readouterr().out
        assert "triggered=" in out and "exhausted=" in out
        assert "recovery cycles:" in out
        assert "p50=" in out and "p95=" in out and "p99=" in out

    def test_workers_match_serial_output(self, capsys):
        assert main(self.ARGS) == 0
        serial_out = capsys.readouterr().out
        assert main(self.ARGS + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out.replace("workers=1", "workers=2") == parallel_out

    def test_report_file_is_canonical_json(self, capsys, tmp_path):
        report = tmp_path / "campaign.json"
        assert main(self.ARGS + ["--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["schema"] == "repro.faults.campaign/1"
        assert doc["points"][0]["recovery_cycles"]["p99"] >= 0
        serial = report.read_text()
        report2 = tmp_path / "campaign2.json"
        assert main(
            self.ARGS + ["--workers", "2", "--report", str(report2)]
        ) == 0
        assert report2.read_text() == serial

    def test_trace_writes_fault_spans(self, capsys, tmp_path):
        trace = tmp_path / "faults.json"
        assert main(self.ARGS + ["--trace", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "faults.point" in names
        assert telemetry.tracer().enabled is False

    def test_default_rate_sweep(self, capsys):
        assert main(
            ["faults", "--n-objects", "16", "--trials", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "rates=0,0.02,0.05,0.1,0.2" in out


class TestChipCommand:
    def test_summary(self, capsys):
        assert main(["chip", "--rows", "4", "--cols", "4"]) == 0
        out = capsys.readouterr().out
        assert "4x4 S-topology: 16 clusters" in out
        assert "minimum AP" in out


class TestDefragCommand:
    def test_naive_plan_is_not_a_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["defrag", "--plan", "naive", "--quiet"])
        assert exc.value.code == 2
        assert "invalid choice: 'naive'" in capsys.readouterr().err

    @pytest.mark.parametrize("plan", sorted(PINNED_DEFRAG_SHA256))
    def test_report_matches_pinned(self, plan, capsys, tmp_path):
        report = tmp_path / f"defrag-{plan}.json"
        assert main([
            "defrag", "--scenario", "all", "--plan", plan,
            "--report", str(report), "--quiet",
        ]) == 0
        assert _sha256(report.read_bytes()) == PINNED_DEFRAG_SHA256[plan]


class TestServiceLoadCommand:
    ARGS = [
        "service-load", "--tenants", "2", "--requests", "5",
        "--rps", "200", "--seed", "7",
    ]

    def test_prints_summary_and_banner(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert f"repro {__version__} service-load: seed=7" in out
        assert "latency cycles p50=" in out
        assert "utilization=" in out

    def test_report_file_is_canonical_and_seed_stable(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        again = tmp_path / "b.json"
        assert main(self.ARGS + ["--report", str(first)]) == 0
        assert main(self.ARGS + ["--report", str(again), "--quiet"]) == 0
        assert first.read_text() == again.read_text()
        doc = json.loads(first.read_text())
        assert doc["schema"] == "repro.service.load/2"
        assert doc["requests"]["total"] == 2 * (5 + 2)

    def test_tcp_transport_matches_inproc(self, capsys, tmp_path):
        inproc = tmp_path / "inproc.json"
        tcp = tmp_path / "tcp.json"
        assert main(self.ARGS + ["--report", str(inproc), "--quiet"]) == 0
        assert main(
            self.ARGS
            + ["--transport", "tcp", "--report", str(tcp), "--quiet"]
        ) == 0
        assert inproc.read_text() == tcp.read_text()

    def test_quiet_suppresses_banner(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        assert main(self.ARGS + ["--quiet", "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "service-load: seed" not in out.splitlines()[0]

    def test_impossible_shard_is_exit_2(self, capsys):
        assert main(
            ["service-load", "--tenants", "20", "--rows", "4", "--cols", "4"]
        ) == 2
        assert "cannot shard" in capsys.readouterr().err

    def test_observe_writes_bundle(self, capsys, tmp_path):
        obs = tmp_path / "obs"
        report = tmp_path / "r.json"
        assert main(
            self.ARGS
            + ["--quiet", "--observe", str(obs), "--report", str(report)]
        ) == 0
        assert (obs / "observe.json").exists()
        assert (obs / "metrics.prom").exists()
        assert telemetry.observer().enabled is False

    def test_profile_prints_handle_stage(self, capsys):
        assert main(self.ARGS + ["--quiet", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile.service.handle.seconds" in out

    @pytest.mark.parametrize("command", sorted(PINNED_SERVICE_SHA256))
    def test_outputs_match_pinned(self, command, capsys, tmp_path):
        pins = PINNED_SERVICE_SHA256[command]
        outputs = {flag: tmp_path / flag.lstrip("-") for flag in pins}
        argv = command.format(examples=EXAMPLES).split() + ["--quiet"]
        for flag, path in outputs.items():
            argv += [flag, str(path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert {
            flag: _sha256(path.read_bytes()) for flag, path in outputs.items()
        } == pins


HOLDING_SLO = """\
[[objective]]
name = "latency-p99"
kind = "latency_p99"
threshold = 400000
window = 65536
budget = 0.25
"""

BREACHED_SLO = """\
[[objective]]
name = "impossible-latency"
kind = "latency_p99"
threshold = 0
window = 65536
budget = 0.25
"""


class TestServiceObservabilityCLI:
    ARGS = [
        "service-load", "--tenants", "2", "--requests", "5",
        "--rps", "200", "--seed", "7", "--quiet",
    ]

    def _spec(self, tmp_path, text):
        path = tmp_path / "slo.toml"
        path.write_text(text)
        return str(path)

    def test_slo_verdict_drives_the_exit_code(self, capsys, tmp_path):
        holding = self._spec(tmp_path, HOLDING_SLO)
        assert main(self.ARGS + ["--slo", holding]) == 0
        assert "all error budgets hold" in capsys.readouterr().out
        breached = tmp_path / "bad.toml"
        breached.write_text(BREACHED_SLO)
        assert main(self.ARGS + ["--slo", str(breached)]) == 1
        assert "error budget exhausted" in capsys.readouterr().out

    def test_malformed_slo_spec_is_exit_2(self, capsys, tmp_path):
        spec = tmp_path / "nope.toml"
        spec.write_text("[[objective]]\nname = \"x\"\n")  # missing keys
        assert main(self.ARGS + ["--slo", str(spec)]) == 2
        assert "bad SLO spec" in capsys.readouterr().err

    def test_slo_lands_in_the_report_document(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        assert main(
            self.ARGS
            + ["--slo", self._spec(tmp_path, HOLDING_SLO),
               "--report", str(report)]
        ) == 0
        doc = json.loads(report.read_text())
        assert doc["slo"]["breached"] is False
        (entry,) = doc["slo"]["objectives"]
        assert entry["name"] == "latency-p99"

    def test_trace_is_byte_stable_and_tallied(self, capsys, tmp_path):
        first = tmp_path / "a-trace.json"
        again = tmp_path / "b-trace.json"
        report = tmp_path / "r.json"
        assert main(
            self.ARGS + ["--trace", str(first), "--report", str(report)]
        ) == 0
        assert main(self.ARGS + ["--trace", str(again)]) == 0
        assert first.read_text() == again.read_text()
        doc = json.loads(report.read_text())
        assert doc["trace"]["spans"] > 0
        assert doc["trace"]["dropped"] == 0
        assert "wrote" in capsys.readouterr().out

    def test_records_dump_round_trips_through_slo_report(
        self, capsys, tmp_path
    ):
        records = tmp_path / "records.json"
        assert main(self.ARGS + ["--records", str(records)]) == 0
        doc = json.loads(records.read_text())
        assert doc["schema"] == "repro.service.records/1"
        assert all("owned_clusters" in r for r in doc["records"]
                   if r["op"] != "metrics")
        capsys.readouterr()
        holding = self._spec(tmp_path, HOLDING_SLO)
        out_report = tmp_path / "slo-report.json"
        assert main(
            ["slo-report", holding, "--records", str(records),
             "--report", str(out_report)]
        ) == 0
        assert "all error budgets hold" in capsys.readouterr().out
        assert json.loads(out_report.read_text())["breached"] is False

    def test_slo_report_breach_is_exit_1(self, capsys, tmp_path):
        records = tmp_path / "records.json"
        assert main(self.ARGS + ["--records", str(records)]) == 0
        breached = tmp_path / "bad.toml"
        breached.write_text(BREACHED_SLO)
        assert main(
            ["slo-report", str(breached), "--records", str(records)]
        ) == 1
        assert "BREACHED" in capsys.readouterr().out

    def test_slo_report_rejects_malformed_inputs(self, capsys, tmp_path):
        holding = self._spec(tmp_path, HOLDING_SLO)
        missing = tmp_path / "missing.json"
        assert main(
            ["slo-report", holding, "--records", str(missing)]
        ) == 2
        assert "cannot read records" in capsys.readouterr().err
        not_records = tmp_path / "other.json"
        not_records.write_text('{"schema": "something.else/1"}')
        assert main(
            ["slo-report", holding, "--records", str(not_records)]
        ) == 2
        assert "records document" in capsys.readouterr().err

    def test_connect_excludes_in_process_planes(self, capsys, tmp_path):
        assert main(
            self.ARGS + ["--connect", "127.0.0.1:1", "--trace",
                         str(tmp_path / "t.json")]
        ) == 2
        assert "cannot be combined with --connect" in (
            capsys.readouterr().err
        )

    def test_connect_wants_host_port(self, capsys):
        assert main(self.ARGS + ["--connect", "just-a-host"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_refused_connect_is_exit_1(self, capsys):
        import socket

        with socket.socket() as sock:  # a port nothing listens on now
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        assert main(self.ARGS + ["--connect", f"127.0.0.1:{port}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            f"service-load: cannot connect to 127.0.0.1:{port}: "
        )

    @pytest.mark.parametrize("name, text", [
        ("nan.toml", HOLDING_SLO.replace("400000", "nan")),
        ("inf.json", json.dumps({"objective": [{
            "name": "lat", "kind": "latency_p99", "threshold": float("inf"),
            "window": 65536, "budget": 0.25,
        }]})),
    ], ids=["toml-nan", "json-inf"])
    def test_slo_report_rejects_non_finite_threshold(
        self, name, text, capsys, tmp_path
    ):
        # a NaN threshold compares false, so every window would hold
        records = tmp_path / "records.json"
        assert main(self.ARGS + ["--records", str(records)]) == 0
        capsys.readouterr()
        spec = tmp_path / name
        spec.write_text(text)
        assert main(["slo-report", str(spec), "--records", str(records)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "slo-report: bad SLO spec: "
        )


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
