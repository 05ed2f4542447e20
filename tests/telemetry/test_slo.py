"""Spec parsing, window math, burn rates, and determinism of
:mod:`repro.telemetry.slo`.

Records here are hand-built response envelopes, so every windowed
aggregate (nearest-rank p99, rejection fraction, integrated occupancy)
can be checked against arithmetic done in the test itself.
"""

import json

import pytest

from repro import telemetry
from repro.telemetry.slo import (
    SLO_REPORT_SCHEMA,
    Objective,
    evaluate_slos,
    format_slo_report,
    load_spec,
    parse_spec,
    record_slo_observation,
    slo_report_json,
)


def record(tenant, seq, completion, latency, ok=True, owned=1):
    return {
        "tenant": tenant,
        "seq": seq,
        "ok": ok,
        "completion_cycle": completion,
        "latency_cycles": latency,
        "owned_clusters": owned,
    }


def objective(**overrides):
    base = dict(
        name="lat", kind="latency_p99", threshold=100.0,
        window_cycles=1000, budget=0.5,
    )
    base.update(overrides)
    return Objective(**base)


class TestObjectiveValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            objective(kind="latency_p50")

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_threshold(self, threshold):
        with pytest.raises(ValueError, match="threshold must be finite"):
            objective(threshold=float(threshold))

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="window_cycles"):
            objective(window_cycles=0)

    @pytest.mark.parametrize("budget", [0.0, -0.5, 1.5])
    def test_rejects_budget_outside_unit_interval(self, budget):
        with pytest.raises(ValueError, match="budget"):
            objective(budget=budget)

    def test_rejects_bad_scope(self):
        with pytest.raises(ValueError, match="scope"):
            objective(scope="galaxy")

    def test_utilization_must_be_fleet_scoped(self):
        with pytest.raises(ValueError, match="whole-fabric"):
            objective(kind="utilization_floor", scope="tenant")

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError, match="name"):
            objective(name="")


class TestParseSpec:
    def _table(self, **overrides):
        base = dict(
            name="lat", kind="latency_p99", threshold=100,
            window=1000, budget=0.5,
        )
        base.update(overrides)
        return base

    def test_parses_objective_list(self):
        (obj,) = parse_spec({"objective": [self._table()]})
        assert obj.name == "lat"
        assert obj.window_cycles == 1000
        assert obj.scope == "fleet"

    def test_objectives_alias_and_window_cycles_key(self):
        (obj,) = parse_spec(
            {"objectives": [self._table(window_cycles=64, window=None)]}
        )
        assert obj.window_cycles == 64

    def test_rejects_empty_or_missing_list(self):
        for spec in ({}, {"objective": []}, {"objective": "nope"}):
            with pytest.raises(ValueError, match="non-empty"):
                parse_spec(spec)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_spec({"objective": [self._table(surprise=1)]})

    def test_rejects_missing_required_key(self):
        table = self._table()
        del table["threshold"]
        with pytest.raises(ValueError, match="missing 'threshold'"):
            parse_spec({"objective": [table]})

    def test_rejects_non_integer_window(self):
        with pytest.raises(ValueError, match="integer 'window'"):
            parse_spec({"objective": [self._table(window=True)]})
        with pytest.raises(ValueError, match="integer 'window'"):
            parse_spec({"objective": [self._table(window="wide")]})

    def test_rejects_non_numeric_threshold_and_budget(self):
        with pytest.raises(ValueError, match="'threshold'"):
            parse_spec({"objective": [self._table(threshold="big")]})
        with pytest.raises(ValueError, match="'budget'"):
            parse_spec({"objective": [self._table(budget="lots")]})

    def test_rejects_integers_past_float_range(self):
        with pytest.raises(ValueError, match="'threshold' is out of range"):
            parse_spec({"objective": [self._table(threshold=10**400)]})
        with pytest.raises(ValueError, match="'budget' is out of range"):
            parse_spec({"objective": [self._table(budget=10**400)]})

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_spec({"objective": [self._table(), self._table()]})

    def test_rejects_non_table_entry(self):
        with pytest.raises(ValueError, match="not a table"):
            parse_spec({"objective": [42]})


class TestLoadSpec:
    TOML = """\
# fleet objectives for the resident fabric
[[objective]]
name = "latency-p99"       # trailing comment
kind = "latency_p99"
threshold = 250.5
window = 4096
budget = 0.25

[[objective]]
name = "rejections"
kind = "rejection_rate"
threshold = 0.1
window = 4096
budget = 0.5
scope = "tenant"
"""

    def test_loads_toml_subset(self, tmp_path):
        path = tmp_path / "slo.toml"
        path.write_text(self.TOML)
        lat, rej = load_spec(path)
        assert lat.threshold == 250.5
        assert rej.scope == "tenant"

    def test_loads_json(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({
            "objective": [{
                "name": "lat", "kind": "latency_p99",
                "threshold": 100, "window": 512, "budget": 0.5,
            }]
        }))
        (obj,) = load_spec(path)
        assert obj.window_cycles == 512

    def test_bad_json_has_source_in_error(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="slo.json"):
            load_spec(path)

    def test_json_spec_must_be_an_object(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_spec(path)

    def test_toml_parse_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "slo.toml"
        path.write_text("[[objective]]\nwhat even is this\n")
        with pytest.raises(ValueError, match=r"slo\.toml:2"):
            load_spec(path)

    def test_toml_rejects_unparseable_value(self, tmp_path):
        path = tmp_path / "slo.toml"
        path.write_text('[[objective]]\nname = unquoted\n')
        with pytest.raises(ValueError, match="cannot parse value"):
            load_spec(path)


class TestLatencyWindows:
    def test_violations_and_burn_rate(self):
        # two windows of 1000 cycles: first holds, second violates
        records = [
            record("t0", 0, 100, 50),
            record("t0", 1, 900, 60),
            record("t0", 2, 1500, 500),  # p99 of window 1 = 500 > 100
        ]
        report = evaluate_slos([objective(budget=0.5)], records, clusters=4)
        (entry,) = report["objectives"]
        assert entry["windows"] == 2
        assert entry["violations"] == 1
        # burn = 1 violation / (0.5 budget * 2 windows) = 1.0 — touching
        # the budget exactly does not breach it
        assert entry["burn_rate"] == 1.0
        assert entry["budget_remaining"] == 0.0
        assert not entry["breached"]
        assert not report["breached"]
        assert report["schema"] == SLO_REPORT_SCHEMA
        assert report["makespan_cycles"] == 1500

    def test_breach_when_burn_exceeds_one(self):
        records = [record("t0", 0, 100, 500)]
        report = evaluate_slos([objective(budget=0.5)], records, clusters=4)
        (entry,) = report["objectives"]
        assert entry["burn_rate"] == 2.0
        assert entry["breached"] and report["breached"]

    def test_nearest_rank_p99_ignores_rejections(self):
        # 100 ok latencies 1..100 -> nearest-rank p99 is 99; the huge
        # rejected "latency" must not count
        records = [
            record("t0", i, 500, i + 1) for i in range(100)
        ] + [record("t0", 100, 600, 10_000, ok=False)]
        report = evaluate_slos(
            [objective(threshold=99)], records, clusters=4
        )
        assert report["objectives"][0]["violations"] == 0
        report = evaluate_slos(
            [objective(threshold=98)], records, clusters=4
        )
        assert report["objectives"][0]["violations"] == 1

    def test_last_window_is_right_closed(self):
        # completion exactly at the makespan boundary lands in the last
        # window, not a phantom one past it
        records = [record("t0", 0, 2000, 500)]
        report = evaluate_slos([objective()], records, clusters=4)
        (entry,) = report["objectives"]
        assert entry["windows"] == 1
        assert len(entry["windows_detail"]) == 2  # ceil(2000/1000)

    def test_tenant_scope_reports_per_tenant(self):
        records = [
            record("a", 0, 100, 500),
            record("b", 0, 100, 10),
        ]
        report = evaluate_slos(
            [objective(scope="tenant")], records, clusters=4
        )
        (entry,) = report["objectives"]
        assert entry["per_tenant"]["a"]["violations"] == 1
        assert entry["per_tenant"]["b"]["violations"] == 0
        assert entry["windows"] == 2  # one evaluated window per tenant


class TestRejectionWindows:
    def test_windowed_rate(self):
        records = [
            record("t0", 0, 100, 1),
            record("t0", 1, 200, 1, ok=False),
            record("t0", 2, 1500, 1),
        ]
        report = evaluate_slos(
            [objective(kind="rejection_rate", threshold=0.4)],
            records, clusters=4,
        )
        (entry,) = report["objectives"]
        # window 0 rate = 1/2 > 0.4 violates; window 1 rate = 0 holds
        assert entry["windows"] == 2
        assert entry["violations"] == 1
        assert entry["windows_detail"] == [[0, 1, 1], [1000, 1, 0]]


class TestUtilizationWindows:
    def test_integrates_occupancy_steps(self):
        # t0 owns 2 clusters from cycle 100 to 1000 (bye at 1000):
        # window 0 integral = 2 * 900 cycles over 4 clusters * 1000
        records = [
            record("t0", 0, 100, 1, owned=2),
            record("t0", 1, 1000, 1, owned=0),
        ]
        threshold = (2 * 900) / (4 * 1000)  # = 0.45 exactly
        report = evaluate_slos(
            [objective(kind="utilization_floor", threshold=threshold)],
            records, clusters=4,
        )
        (entry,) = report["objectives"]
        assert entry["violations"] == 0  # not *below* the floor
        report = evaluate_slos(
            [objective(kind="utilization_floor",
                       threshold=threshold + 1e-9)],
            records, clusters=4,
        )
        assert report["objectives"][0]["violations"] == 1

    def test_requires_owned_clusters_field(self):
        legacy = {k: v for k, v in record("t0", 0, 100, 1).items()
                  if k != "owned_clusters"}
        with pytest.raises(ValueError, match="owned_clusters"):
            evaluate_slos(
                [objective(kind="utilization_floor", threshold=0.1)],
                [legacy], clusters=4,
            )


class TestEvaluateEdges:
    def test_empty_records_hold_all_budgets(self):
        report = evaluate_slos([objective()], [], clusters=4)
        (entry,) = report["objectives"]
        assert entry["windows"] == 0
        assert entry["burn_rate"] == 0.0
        assert not report["breached"]

    def test_rejects_nonpositive_clusters(self):
        with pytest.raises(ValueError, match="clusters"):
            evaluate_slos([objective()], [], clusters=0)

    def test_window_cap_refuses_absurd_reports(self):
        records = [record("t0", 0, 10**9, 1)]
        with pytest.raises(ValueError, match="window cap"):
            evaluate_slos([objective(window_cycles=1)], records, clusters=4)

    def test_report_is_order_invariant_and_byte_stable(self):
        records = [
            record("b", 1, 1500, 40),
            record("a", 0, 100, 500),
            record("b", 0, 700, 10, ok=False),
            record("a", 1, 2100, 30),
        ]
        objectives = [
            objective(scope="tenant"),
            objective(name="rej", kind="rejection_rate", threshold=0.4),
        ]
        forward = evaluate_slos(objectives, records, clusters=4)
        backward = evaluate_slos(objectives, records[::-1], clusters=4)
        assert slo_report_json(forward) == slo_report_json(backward)
        assert slo_report_json(forward).endswith("}\n")


class TestRendering:
    def _report(self):
        return evaluate_slos(
            [objective(budget=0.25)],
            [record("t0", 0, 100, 500)],
            clusters=4,
        )

    def test_format_names_the_breach(self):
        text = format_slo_report(self._report())
        assert "BREACHED" in text
        assert "error budget exhausted" in text
        held = format_slo_report(
            evaluate_slos([objective()], [record("t0", 0, 100, 5)],
                          clusters=4)
        )
        assert "all error budgets hold" in held

    def test_record_slo_observation_mirrors_into_registry(self):
        telemetry.reset()
        try:
            record_slo_observation(self._report())
            snap = telemetry.snapshot()
            gauges = snap["gauges"]
            assert gauges['slo.burn_rate[objective=lat]']["value"] == 4.0
            assert gauges['slo.breached[objective=lat]']["value"] == 1.0
            series = snap["series"]['slo.window_violations[objective=lat]']
            assert series["samples"] == [[0, 1.0]]
        finally:
            telemetry.reset()
