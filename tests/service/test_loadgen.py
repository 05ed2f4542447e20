"""The seeded load generator and its canonical report."""

import json

import pytest

from repro.service.loadgen import (
    LoadConfig,
    build_report,
    build_script,
    report_json,
    run_load,
)


class TestLoadConfig:
    def test_quota_is_equal_fold_slice(self):
        assert LoadConfig(tenants=4, rows=8, cols=8).quota == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tenants": 0},
            {"requests": -1},
            {"rps": 0},
            {"rows": 0},
            {"tenants": 20, "rows": 4, "cols": 4},  # quota would be zero
            {"rps": float("inf")},
            {"rps": float("nan")},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LoadConfig(**kwargs)


class TestBuildScript:
    def test_script_is_seed_pure(self):
        config = LoadConfig(tenants=3, requests=10, seed=7)
        assert build_script(config, 1) == build_script(config, 1)
        assert build_script(config, 1) != build_script(config, 2)

    def test_script_shape(self):
        config = LoadConfig(tenants=4, requests=10, seed=42)
        script = build_script(config, 2)
        assert len(script) == 12  # hello + 10 ops + bye
        assert script[0]["op"] == "hello"
        assert script[0]["slot"] == 2 * config.quota
        assert script[-1]["op"] == "bye"
        assert [r["seq"] for r in script] == list(range(12))
        issues = [r["issue_cycle"] for r in script]
        assert issues == sorted(issues)
        assert all(r["tenant"] == "t02" for r in script)


class TestRunLoad:
    def test_reports_byte_identical_across_runs_and_transports(self):
        config = LoadConfig(tenants=4, requests=8, rps=500, seed=42)
        first = report_json(run_load(config, "inproc"))
        again = report_json(run_load(config, "inproc"))
        tcp = report_json(run_load(config, "tcp"))
        assert first == again
        assert first == tcp

    def test_report_shape_and_accounting(self):
        config = LoadConfig(tenants=2, requests=6, rps=200, seed=3)
        report = run_load(config, "inproc")
        assert report["schema"] == "repro.service.load/2"
        assert report["config"]["seed"] == 3
        req = report["requests"]
        assert req["total"] == 2 * (6 + 2)
        assert req["ok"] + req["rejected"] == req["total"]
        lat = report["latency_cycles"]
        assert lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        fabric = report["fabric"]
        assert 0.0 <= fabric["utilization"] <= 1.0
        assert fabric["cluster_cycles"] == sum(
            t["cluster_cycles"] for t in report["per_tenant"]
        )
        assert [t["tenant"] for t in report["per_tenant"]] == ["t00", "t01"]
        assert len(report["records_sha256"]) == 64

    def test_different_seeds_differ(self):
        a = run_load(LoadConfig(tenants=2, requests=6, seed=1), "inproc")
        b = run_load(LoadConfig(tenants=2, requests=6, seed=2), "inproc")
        assert a["records_sha256"] != b["records_sha256"]

    def test_unknown_transport(self):
        with pytest.raises(ValueError, match="transport"):
            run_load(LoadConfig(), "carrier-pigeon")

    def test_report_json_is_canonical(self):
        report = run_load(LoadConfig(tenants=2, requests=4), "inproc")
        rendered = report_json(report)
        assert rendered.endswith("\n")
        assert json.loads(rendered) == report
        # sorted keys all the way down
        assert rendered == json.dumps(
            json.loads(rendered), sort_keys=True, indent=2
        ) + "\n"


class TestBuildReport:
    def test_arrival_order_is_irrelevant(self):
        config = LoadConfig(tenants=2, requests=4, seed=5)
        records = run_load(config, "inproc")
        # rebuild from shuffled records: identical report
        import random

        from repro.service.loadgen import _execute_inproc
        import asyncio

        raw = asyncio.run(_execute_inproc(config))
        shuffled = list(raw)
        random.Random(0).shuffle(shuffled)
        assert build_report(config, shuffled) == build_report(config, raw)
        assert build_report(config, raw) == records
