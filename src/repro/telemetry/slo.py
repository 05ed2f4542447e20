"""Deterministic SLO evaluation over sliding virtual-cycle windows.

An SLO here is a **declarative objective** over the resident fabric
service's completion records: "p99 request latency stays under N
cycles", "the rejection rate stays under X", "fabric utilization stays
above Y".  Objectives are loaded from a small TOML/JSON spec, evaluated
over fixed-width windows of the **virtual cycle** axis (never wall
time — see DESIGN.md, "Why SLO windows run on virtual cycles"), and
folded into an error-budget / burn-rate report:

* a window **violates** its objective when the windowed metric crosses
  the threshold;
* the **error budget** is the fraction of evaluated windows the spec
  allows to violate (``budget``);
* the **burn rate** is ``violations / (budget * windows)`` — above 1.0
  the budget is exhausted and the objective is **breached** (that is
  what makes ``repro slo-report`` exit 1).

Every input is an integer cycle or a seed-deterministic count, every
aggregation iterates canonically-sorted records, and the report renders
through the same sorted-keys JSON discipline as every other canonical
artifact — so the same load produces a byte-identical SLO report across
reruns and transports.

The TOML loader accepts a deliberately small subset (``[[objective]]``
tables of ``key = value`` scalars) parsed by a built-in reader, so the
spec format works on every supported Python without ``tomllib``.
JSON specs (``{"objective": [...]}``) are always accepted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.telemetry.artifacts import read_json
from repro.telemetry.metrics import nearest_rank
from repro.telemetry.observe import point_label

__all__ = [
    "SLO_REPORT_SCHEMA",
    "OBJECTIVE_KINDS",
    "Objective",
    "parse_spec",
    "load_spec",
    "evaluate_slos",
    "slo_report_json",
    "format_slo_report",
    "record_slo_observation",
]

#: Version tag of the canonical SLO report (bump on breaking change).
SLO_REPORT_SCHEMA = "repro.telemetry.slo/1"

#: The windowed metrics an objective may target.
OBJECTIVE_KINDS = ("latency_p99", "rejection_rate", "utilization_floor")

#: Evaluating more windows than this means the window width is far too
#: small for the makespan; refuse rather than build a megabyte report.
_MAX_WINDOWS = 100_000


@dataclass(frozen=True)
class Objective:
    """One declarative objective over windowed service metrics."""

    name: str
    kind: str
    #: Threshold the windowed metric is compared against: an upper bound
    #: for ``latency_p99`` (cycles) and ``rejection_rate`` (fraction), a
    #: lower bound for ``utilization_floor`` (fraction).
    threshold: float
    #: Width of the evaluation windows on the virtual-cycle axis.
    window_cycles: int
    #: Fraction of evaluated windows allowed to violate before the
    #: error budget is exhausted.
    budget: float
    #: ``"fleet"`` evaluates one metric over all tenants per window;
    #: ``"tenant"`` evaluates each tenant's own windows and sums them.
    scope: str = "fleet"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("objective needs a non-empty name")
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(
                f"objective {self.name!r}: unknown kind {self.kind!r} "
                f"(want one of {list(OBJECTIVE_KINDS)})"
            )
        if not math.isfinite(self.threshold):  # NaN would hold every window
            raise ValueError(f"objective {self.name!r}: threshold must be finite")
        if self.window_cycles < 1:
            raise ValueError(
                f"objective {self.name!r}: window_cycles must be >= 1"
            )
        if not 0.0 < self.budget <= 1.0:
            raise ValueError(
                f"objective {self.name!r}: budget must be in (0, 1], "
                f"got {self.budget!r}"
            )
        if self.scope not in ("fleet", "tenant"):
            raise ValueError(
                f"objective {self.name!r}: scope must be 'fleet' or "
                f"'tenant', got {self.scope!r}"
            )
        if self.kind == "utilization_floor" and self.scope != "fleet":
            raise ValueError(
                f"objective {self.name!r}: utilization_floor is a "
                "whole-fabric metric; scope must be 'fleet'"
            )


# -- spec loading ------------------------------------------------------------


def parse_spec(data: Mapping[str, Any]) -> List[Objective]:
    """Build objectives from a parsed spec document.

    The document carries a list of objective tables under ``objective``
    (mirroring TOML's ``[[objective]]``); ``objectives`` is accepted as
    an alias.  Raises :class:`ValueError` on anything malformed.
    """
    tables = data.get("objective", data.get("objectives"))
    if not isinstance(tables, list) or not tables:
        raise ValueError(
            "spec needs a non-empty [[objective]] list "
            "(JSON: {\"objective\": [...]})"
        )
    objectives: List[Objective] = []
    seen = set()
    for index, table in enumerate(tables):
        if not isinstance(table, Mapping):
            raise ValueError(f"objective #{index} is not a table")
        known = {"name", "kind", "threshold", "window", "window_cycles",
                 "budget", "scope"}
        unknown = set(table) - known
        if unknown:
            raise ValueError(
                f"objective #{index}: unknown key(s) {sorted(unknown)}"
            )
        for key in ("name", "kind", "threshold", "budget"):
            if key not in table:
                raise ValueError(f"objective #{index}: missing {key!r}")
        window = table.get("window_cycles", table.get("window"))
        if not isinstance(window, int) or isinstance(window, bool):
            raise ValueError(
                f"objective #{index}: needs an integer 'window' "
                f"(cycles), got {window!r}"
            )
        objective = Objective(
            name=str(table["name"]),
            kind=str(table["kind"]),
            threshold=_number(table, "threshold", index),
            window_cycles=window,
            budget=_number(table, "budget", index),
            scope=str(table.get("scope", "fleet")),
        )
        if objective.name in seen:
            raise ValueError(f"duplicate objective name {objective.name!r}")
        seen.add(objective.name)
        objectives.append(objective)
    return objectives


def _number(table: Mapping[str, Any], key: str, index: int) -> float:
    value = table[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"objective #{index}: {key!r} must be a number")
    try:
        return float(value)
    except OverflowError:  # an integer past float range
        raise ValueError(f"objective #{index}: {key!r} is out of range") from None


def load_spec(path: Union[str, Path]) -> List[Objective]:
    """Load a spec file: ``.json`` via the JSON parser, anything else
    through the built-in TOML-subset reader."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        data = read_json(path)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: spec must be a JSON object")
    else:
        data = _parse_mini_toml(
            path.read_text(encoding="utf-8"), source=str(path)
        )
    return parse_spec(data)


def _parse_toml_value(text: str, where: str) -> Any:
    """One scalar of the TOML subset: string, bool, int, or float."""
    if text.startswith('"'):
        end = text.find('"', 1)
        rest = text[end + 1 :].strip() if end != -1 else ""
        if end == -1 or (rest and not rest.startswith("#")):
            raise ValueError(f"{where}: cannot parse string {text!r}")
        return text[1:end]
    # strip a trailing comment off non-string values
    text = text.split("#", 1)[0].strip()
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{where}: cannot parse value {text!r}") from None


def _parse_mini_toml(text: str, source: str = "<spec>") -> Dict[str, Any]:
    """The TOML subset the spec loader understands on every Python:
    ``[[table]]`` array headers, ``[table]`` headers, ``key = value``
    scalars (quoted strings, booleans, ints, floats), comments, and
    blank lines.  Nothing else — a spec is configuration, not a
    document format."""
    root: Dict[str, Any] = {}
    current: Dict[str, Any] = root
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        where = f"{source}:{lineno}"
        if not line or line.startswith("#"):
            continue
        if line.startswith("[[") and line.endswith("]]"):
            key = line[2:-2].strip()
            if not key:
                raise ValueError(f"{where}: empty table-array header")
            tables = root.setdefault(key, [])
            if not isinstance(tables, list):
                raise ValueError(f"{where}: {key!r} is not a table array")
            current = {}
            tables.append(current)
        elif line.startswith("[") and line.endswith("]"):
            key = line[1:-1].strip()
            if not key:
                raise ValueError(f"{where}: empty table header")
            table = root.setdefault(key, {})
            if not isinstance(table, dict):
                raise ValueError(f"{where}: {key!r} is not a table")
            current = table
        elif "=" in line:
            key, _, value = line.partition("=")
            key = key.strip()
            if not key:
                raise ValueError(f"{where}: missing key before '='")
            current[key] = _parse_toml_value(value.strip(), where)
        else:
            raise ValueError(f"{where}: cannot parse line {raw!r}")
    return root


# -- evaluation --------------------------------------------------------------


def _window_index(completion: int, width: int, n_windows: int) -> int:
    """Window holding ``completion``; the last window is right-closed so
    the makespan-defining record stays in range."""
    return min(completion // width, n_windows - 1)


def _group_records(
    records: Sequence[Mapping[str, Any]], scope: str
) -> Dict[str, List[Mapping[str, Any]]]:
    if scope == "tenant":
        groups: Dict[str, List[Mapping[str, Any]]] = {}
        for record in records:
            groups.setdefault(record["tenant"], []).append(record)
        return {name: groups[name] for name in sorted(groups)}
    return {"": list(records)}


def _latency_windows(
    records: Sequence[Mapping[str, Any]],
    objective: Objective,
    n_windows: int,
) -> Tuple[Dict[str, Dict[str, Any]], List[int], List[int]]:
    """Per-group window evaluation for ``latency_p99``."""
    evaluated = [0] * n_windows
    violations = [0] * n_windows
    per_group: Dict[str, Dict[str, Any]] = {}
    for group, mine in _group_records(records, objective.scope).items():
        buckets: Dict[int, List[int]] = {}
        for record in mine:
            if not record["ok"]:
                continue
            index = _window_index(
                record["completion_cycle"], objective.window_cycles, n_windows
            )
            buckets.setdefault(index, []).append(record["latency_cycles"])
        group_windows = 0
        group_violations = 0
        worst = 0.0
        for index, latencies in sorted(buckets.items()):
            p99 = float(nearest_rank(sorted(latencies), 99))
            worst = max(worst, p99)
            evaluated[index] += 1
            group_windows += 1
            if p99 > objective.threshold:
                violations[index] += 1
                group_violations += 1
        per_group[group] = {
            "windows": group_windows,
            "violations": group_violations,
            "worst": worst,
        }
    return per_group, evaluated, violations


def _rejection_windows(
    records: Sequence[Mapping[str, Any]],
    objective: Objective,
    n_windows: int,
) -> Tuple[Dict[str, Dict[str, Any]], List[int], List[int]]:
    """Per-group window evaluation for ``rejection_rate``."""
    evaluated = [0] * n_windows
    violations = [0] * n_windows
    per_group: Dict[str, Dict[str, Any]] = {}
    for group, mine in _group_records(records, objective.scope).items():
        totals: Dict[int, List[int]] = {}  # index -> [total, rejected]
        for record in mine:
            index = _window_index(
                record["completion_cycle"], objective.window_cycles, n_windows
            )
            cell = totals.setdefault(index, [0, 0])
            cell[0] += 1
            if not record["ok"]:
                cell[1] += 1
        group_windows = 0
        group_violations = 0
        worst = 0.0
        for index, (total, rejected) in sorted(totals.items()):
            rate = rejected / total
            worst = max(worst, rate)
            evaluated[index] += 1
            group_windows += 1
            if rate > objective.threshold:
                violations[index] += 1
                group_violations += 1
        per_group[group] = {
            "windows": group_windows,
            "violations": group_violations,
            "worst": worst,
        }
    return per_group, evaluated, violations


def _occupancy_steps(
    records: Sequence[Mapping[str, Any]],
) -> List[Tuple[int, int]]:
    """Per-tenant ``(completion, owned_clusters)`` step functions merged
    into one sorted list of steps per tenant boundary.

    Raises :class:`ValueError` when a record predates the
    ``owned_clusters`` envelope field — utilization objectives need it.
    """
    steps: List[Tuple[int, int]] = []
    by_tenant: Dict[str, List[Mapping[str, Any]]] = {}
    for record in records:
        if record["ok"]:
            by_tenant.setdefault(record["tenant"], []).append(record)
    for name in sorted(by_tenant):
        mine = sorted(
            by_tenant[name], key=lambda r: (r["completion_cycle"], r["seq"])
        )
        for record in mine:
            if "owned_clusters" not in record:
                raise ValueError(
                    "records lack 'owned_clusters' (recorded by an older "
                    "service?) — utilization objectives cannot be evaluated"
                )
        steps.append((-1, 0))  # sentinel: new tenant, owns nothing
        steps.extend(
            (r["completion_cycle"], r["owned_clusters"]) for r in mine
        )
    return steps


def _utilization_windows(
    records: Sequence[Mapping[str, Any]],
    objective: Objective,
    n_windows: int,
    makespan: int,
    clusters: int,
) -> Tuple[Dict[str, Dict[str, Any]], List[int], List[int]]:
    """Window evaluation for ``utilization_floor`` (fleet scope only).

    Each tenant's occupancy is a step function of its own completions
    (``owned_clusters`` after each op); integrating the steps over every
    window and dividing by ``clusters * window_span`` reproduces exactly
    the occupancy integral the server accounts into ``cluster_cycles``.
    """
    width = objective.window_cycles
    cycles = [0.0] * n_windows

    def integrate(lo: int, hi: int, owned: int) -> None:
        if owned <= 0 or hi <= lo:
            return
        first = min(lo // width, n_windows - 1)
        last = min((hi - 1) // width, n_windows - 1)
        for index in range(first, last + 1):
            w_lo = index * width
            w_hi = makespan if index == n_windows - 1 else (index + 1) * width
            overlap = min(hi, w_hi) - max(lo, w_lo)
            if overlap > 0:
                cycles[index] += owned * overlap

    prev_cycle: Optional[int] = None
    prev_owned = 0
    for cycle, owned in _occupancy_steps(records) + [(-1, 0)]:
        if cycle == -1:  # sentinel: close out the previous tenant
            if prev_cycle is not None:
                integrate(prev_cycle, makespan, prev_owned)
            prev_cycle, prev_owned = None, 0
            continue
        if prev_cycle is not None:
            integrate(prev_cycle, cycle, prev_owned)
        prev_cycle, prev_owned = cycle, owned

    evaluated = [1] * n_windows
    violations = [0] * n_windows
    worst = 1.0
    for index in range(n_windows):
        w_lo = index * width
        w_hi = makespan if index == n_windows - 1 else (index + 1) * width
        span = max(1, w_hi - w_lo)
        utilization = cycles[index] / (clusters * span)
        worst = min(worst, utilization)
        if utilization < objective.threshold:
            violations[index] = 1
    per_group = {
        "": {
            "windows": n_windows,
            "violations": sum(violations),
            "worst": worst,
        }
    }
    return per_group, evaluated, violations


def evaluate_slos(
    objectives: Sequence[Objective],
    records: Sequence[Mapping[str, Any]],
    clusters: int,
) -> Dict[str, Any]:
    """Evaluate every objective over a load run's completion records.

    ``records`` are response envelopes (any order — they are re-sorted
    canonically); ``clusters`` is the die size utilization is measured
    against.  Returns the canonical SLO report document.
    """
    if clusters < 1:
        raise ValueError("clusters must be >= 1")
    records = sorted(records, key=lambda r: (r["tenant"], r["seq"]))
    makespan = max((r["completion_cycle"] for r in records), default=0)

    out_objectives: List[Dict[str, Any]] = []
    for objective in objectives:
        width = objective.window_cycles
        n_windows = -(-makespan // width) if makespan else 0
        if n_windows > _MAX_WINDOWS:
            raise ValueError(
                f"objective {objective.name!r}: {n_windows} windows of "
                f"{width} cycles over a {makespan}-cycle run exceeds the "
                f"{_MAX_WINDOWS}-window cap — widen the window"
            )
        if n_windows == 0:
            per_group: Dict[str, Dict[str, Any]] = {}
            evaluated: List[int] = []
            violations: List[int] = []
        elif objective.kind == "latency_p99":
            per_group, evaluated, violations = _latency_windows(
                records, objective, n_windows
            )
        elif objective.kind == "rejection_rate":
            per_group, evaluated, violations = _rejection_windows(
                records, objective, n_windows
            )
        else:  # utilization_floor
            per_group, evaluated, violations = _utilization_windows(
                records, objective, n_windows, makespan, clusters
            )
        total_windows = sum(evaluated)
        total_violations = sum(violations)
        allowed = objective.budget * total_windows
        burn_rate = total_violations / allowed if allowed > 0 else 0.0
        entry: Dict[str, Any] = {
            "name": objective.name,
            "kind": objective.kind,
            "scope": objective.scope,
            "threshold": objective.threshold,
            "window_cycles": width,
            "budget": objective.budget,
            "windows": total_windows,
            "violations": total_violations,
            "burn_rate": burn_rate,
            "budget_remaining": 1.0 - burn_rate,
            "breached": burn_rate > 1.0,
            "windows_detail": [
                [index * width, evaluated[index], violations[index]]
                for index in range(n_windows)
            ],
        }
        if objective.scope == "tenant":
            entry["per_tenant"] = {
                group: dict(stats) for group, stats in per_group.items()
            }
        out_objectives.append(entry)
    return {
        "schema": SLO_REPORT_SCHEMA,
        "clusters": clusters,
        "makespan_cycles": makespan,
        "objectives": out_objectives,
        "breached": any(o["breached"] for o in out_objectives),
    }


# -- rendering ---------------------------------------------------------------


def slo_report_json(report: Dict[str, Any]) -> str:
    """Render an SLO report canonically (sorted keys, trailing newline)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def format_slo_report(report: Dict[str, Any]) -> str:
    """Terminal summary: one line per objective plus the verdict."""
    lines = [
        f"slo: {len(report['objectives'])} objective(s) over "
        f"{report['makespan_cycles']} cycles "
        f"({report['clusters']} clusters)"
    ]
    for entry in report["objectives"]:
        verdict = "BREACHED" if entry["breached"] else "ok"
        lines.append(
            f"  {entry['name']} [{entry['kind']}/{entry['scope']}] "
            f"window={entry['window_cycles']} "
            f"violations={entry['violations']}/{entry['windows']} "
            f"burn={entry['burn_rate']:.3f} "
            f"budget_remaining={entry['budget_remaining']:.3f} {verdict}"
        )
    lines.append(
        "slo: error budget exhausted"
        if report["breached"]
        else "slo: all error budgets hold"
    )
    return "\n".join(lines) + "\n"


def record_slo_observation(report: Dict[str, Any]) -> None:
    """Mirror an SLO report into the default registry's instruments so
    the dashboard can render budget-burn strips next to the service
    series: per-objective ``slo.burn_rate`` / ``slo.budget_remaining`` /
    ``slo.breached`` gauges and a ``slo.window_violations`` series (one
    sample per window, at the window's start cycle)."""
    from repro import telemetry

    for entry in report["objectives"]:
        label = point_label(objective=entry["name"])
        telemetry.gauge(f"slo.burn_rate{label}").set(entry["burn_rate"])
        telemetry.gauge(f"slo.budget_remaining{label}").set(
            entry["budget_remaining"]
        )
        telemetry.gauge(f"slo.breached{label}").set(
            1.0 if entry["breached"] else 0.0
        )
        series = telemetry.time_series(f"slo.window_violations{label}")
        for start, _evaluated, violations in entry["windows_detail"]:
            series.record(start, float(violations))
