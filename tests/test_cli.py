"""Unit tests for the command-line interface."""

import json

import pytest

from repro import __version__, telemetry
from repro.__main__ import main


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


class TestEngineFlag:
    """``--engine`` must change throughput only: stdout and the report
    file stay byte-identical to the legacy path."""

    def _fig3(self, capsys, extra=()):
        assert main(
            ["fig3", "--n-objects", "16", "32", "--trials", "3", *extra]
        ) == 0
        return capsys.readouterr()

    def test_fig3_engine_matches_plain_stdout(self, capsys):
        plain = self._fig3(capsys).out
        eng = self._fig3(capsys, ["--engine"])
        assert eng.out == plain
        assert "engine trials" in eng.err  # stats go to stderr only

    def test_fig3_engine_workers_match_plain_stdout(self, capsys):
        plain = self._fig3(capsys).out
        eng = self._fig3(capsys, ["--engine", "--workers", "2"])
        assert eng.out == plain

    def test_faults_engine_report_matches_plain(self, capsys, tmp_path):
        plain, eng = tmp_path / "plain.json", tmp_path / "eng.json"
        base = [
            "faults", "--rates", "0", "0.05", "--n-objects", "16",
            "--trials", "2", "--quiet",
        ]
        assert main([*base, "--report", str(plain)]) == 0
        assert main([*base, "--engine", "--report", str(eng)]) == 0
        err = capsys.readouterr().err
        assert plain.read_bytes() == eng.read_bytes()
        assert "engine trials" in err

    def test_engine_with_observe_stays_on_engine(self, capsys, tmp_path):
        """Observation replays from the cache now — an --engine --observe
        run must stay on the engine and write the exact bundle the live
        path writes."""
        live, eng = tmp_path / "live", tmp_path / "eng"
        self._fig3(capsys, ["--quiet", "--observe", str(live)])
        res = self._fig3(
            capsys, ["--quiet", "--engine", "--observe", str(eng)]
        )
        assert "cannot replay" not in res.err
        assert "engine trials" in res.err
        for name in ("observe.json", "metrics.prom", "series.csv",
                     "heatmaps.csv", "dashboard.html"):
            assert (eng / name).read_bytes() == (live / name).read_bytes()

    def test_engine_with_trace_falls_back(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        res = self._fig3(capsys, ["--engine", "--trace", str(trace)])
        assert "--engine cannot replay traces" in res.err
        assert trace.exists()


class TestVectorKernelFlag:
    """``--engine`` resolves cold trials on the vector kernel; it must
    stay byte-identical on the sizes the CI engine-smoke legs cover
    beyond the base sweep — N=64 and a pinned ``--csd-rate 0``."""

    def _fig3(self, capsys, extra=()):
        assert main(
            ["fig3", "--n-objects", "16", "64", "--trials", "2", *extra]
        ) == 0
        return capsys.readouterr()

    def test_fig3_vector_matches_plain_stdout(self, capsys):
        plain = self._fig3(capsys).out
        vec = self._fig3(capsys, ["--engine"])
        assert vec.out == plain
        assert "engine trials" in vec.err

    def test_fig3_vector_workers_match_plain_stdout(self, capsys):
        plain = self._fig3(capsys).out
        vec = self._fig3(capsys, ["--engine", "--workers", "2"])
        assert vec.out == plain

    def test_vector_observe_bundle_matches_live(self, capsys, tmp_path):
        """A vector-kernel engine run emits the byte-exact observation
        bundle the live path emits."""
        live, vec = tmp_path / "live", tmp_path / "vec"
        self._fig3(capsys, ["--quiet", "--observe", str(live)])
        self._fig3(capsys, ["--quiet", "--engine", "--observe", str(vec)])
        for name in ("observe.json", "metrics.prom", "series.csv",
                     "heatmaps.csv", "dashboard.html"):
            assert (vec / name).read_bytes() == (live / name).read_bytes()

    def test_faults_vector_csd_rate_report_matches_plain(
        self, capsys, tmp_path
    ):
        plain, vec = tmp_path / "plain.json", tmp_path / "vec.json"
        base = [
            "faults", "--rates", "0", "0.05", "--n-objects", "16",
            "--trials", "2", "--csd-rate", "0", "--quiet",
        ]
        assert main([*base, "--report", str(plain)]) == 0
        assert main([*base, "--engine", "--report", str(vec)]) == 0
        capsys.readouterr()
        assert plain.read_bytes() == vec.read_bytes()
        assert json.loads(plain.read_text())["csd_rate"] == 0.0


class TestSweepArgumentErrors:
    """Hostile fig3/faults arguments exit 2 with one stderr line before
    any sweep work starts — never a traceback, never a silent fallback."""

    @pytest.mark.parametrize("argv", [
        ["fig3", "--trials", "0"],
        ["fig3", "--n-objects", "16", "1"],
        ["fig3", "--workers", "-3"],
        ["fig3", "--engine", "--trials", "-1"],
        ["faults", "--trials", "0"],
        ["faults", "--n-objects", "1"],
        ["faults", "--rates", "0", "2"],
        ["faults", "--rate", "-0.1"],
        ["faults", "--workers", "0"],
        ["faults", "--csd-rate", "1.5"],
        ["faults", "--engine", "--csd-rate", "nan"],
    ])
    def test_exits_2_with_one_line(self, argv, capsys):
        assert main([*argv, "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{argv[0]}: ")


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
        assert doc["wallclock"]["speedup"] >= 2.0
        assert doc["deterministic"]["engine.identical_warm"] == 1.0
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


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
