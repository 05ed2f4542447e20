"""Command-line interface: regenerate the paper's tables from a shell.

Usage::

    python -m repro table 1          # Tables 1-3 (area budgets)
    python -m repro table 4          # Table 4 (APs / delay / GOPS)
    python -m repro fig3             # Figure 3 channel-demand series
    python -m repro fig3 --workers 4 --stats  # parallel sweep + telemetry
    python -m repro fig3 --trace out.json     # Perfetto-loadable span trace
    python -m repro fig3 --observe out/       # OpenMetrics + dashboard bundle
    python -m repro fig3 --profile --observe out/  # stage self-timing
    python -m repro trace-report out.json     # critical path / latencies
    python -m repro observe-report out/       # summarise an --observe bundle
    python -m repro profile out/              # summarise the self-profile layer
    python -m repro faults --rates 0.05 --trials 4 --workers 2 --stats
    python -m repro baseline record --bench fig3 --out BENCH_fig3.json
    python -m repro baseline check BENCH_fig3.json --skip-wallclock
    python -m repro chip --rows 8 --cols 8   # fabric summary
    python -m repro defrag --plan minimal --report defrag.json
                                             # planned compaction costs
    python -m repro serve --port 7013            # resident fabric server
    python -m repro service-load --tenants 4 --rps 500 --seed 42 \
        --report service.json                    # seeded service load

The heavier experiments (Figures 1-7 with cycle-level simulation, the
ablations) live in the benchmark harness: ``pytest benchmarks/
--benchmark-only -s``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from repro import __version__, telemetry
from repro.analysis.reporting import format_series, format_table
from repro.costmodel.areas import (
    control_objects_budget,
    memory_block_budget,
    physical_object_budget,
)
from repro.costmodel.performance import table4
from repro.csd.locality import MAX_OBJECTS

__all__ = ["main"]


def _print_area_table(budget) -> None:
    rows = [
        (name, f"{proc:.2f}", f"{area:.3e}") for name, proc, area in budget.rows()
    ]
    rows.append(("Total", "", f"{budget.total_lambda2:.3e}"))
    print(format_table(["Module", "Process [um]", "Area [lambda^2]"], rows,
                       title=budget.title))


def _cmd_table(number: int) -> int:
    if number == 1:
        _print_area_table(physical_object_budget())
    elif number == 2:
        _print_area_table(memory_block_budget())
    elif number == 3:
        _print_area_table(control_objects_budget())
    elif number == 4:
        rows = [
            (p.year, f"{p.feature_nm:.0f}", p.available_aps,
             f"{p.wire_delay_ns:.2f}", f"{p.peak_gops:.0f}")
            for p in table4()
        ]
        print(format_table(
            ["Year", "Process[nm]", "#APs", "Wire-Delay[ns]", "Peak GOPS"],
            rows,
            title="Table 4: Number of APs, Wire Delay, and Peak GOPS",
        ))
    else:
        print(f"no table {number}; the paper has tables 1-4", file=sys.stderr)
        return 2
    return 0


def _sweep_arg_error(
    n_objects: List[int],
    trials: int,
    workers: Optional[int],
    seed: int,
    rates: Sequence[float] = (),
    csd_rate: Optional[float] = None,
) -> Optional[str]:
    """Why a fig3/faults argument set cannot run, or ``None`` — checked
    before the sweep starts so hostile input exits 2, not a traceback."""
    if trials < 1:
        return f"--trials must be at least 1 (got {trials})"
    small = [n for n in n_objects if n < 2]
    if small:
        return f"--n-objects must each be at least 2 (got {small[0]})"
    big = [n for n in n_objects if n >= MAX_OBJECTS]
    if big:
        return f"--n-objects must each be below {MAX_OBJECTS} (got {big[0]})"
    if workers is not None and workers < 1:
        return f"--workers must be at least 1 (got {workers})"
    if seed < 0:
        return f"--seed must be non-negative (got {seed})"
    bad = [r for r in rates if not 0.0 <= r <= 1.0]
    if bad:
        return f"fault rates must lie in [0, 1] (got {bad[0]:g})"
    if csd_rate is not None and not 0.0 <= csd_rate <= 1.0:
        return f"--csd-rate must lie in [0, 1] (got {csd_rate:g})"
    return None


def _die_arg_error(rows: int, cols: int) -> Optional[str]:
    """Why ``--rows``/``--cols`` cannot make a die, or ``None`` — checked
    before any fabric is built (or port bound) so it exits 2."""
    if rows < 1 or cols < 1:
        return f"die needs at least one cluster (got {rows}x{cols})"
    return None


def _output_arg_error(args: argparse.Namespace) -> Optional[str]:
    """Why an output path on the command line cannot be written, or
    ``None`` — checked before any work, so a bad path exits 2 instead of
    a traceback after the run."""
    files = ["trace", "report", "out"]
    if args.command == "service-load":  # slo-report reads its --records
        files.append("records")
    for name in files:
        path = getattr(args, name, None)
        if path is None:
            continue
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            return f"--{name} {path}: no directory {parent}"
        if os.path.isdir(path):
            return f"--{name} {path} is a directory"
    observe = getattr(args, "observe", None)
    if observe is not None:
        # the bundle's directories are made on write: the nearest
        # existing ancestor must be a directory
        ancestor = os.path.abspath(observe)
        while not os.path.exists(ancestor):
            ancestor = os.path.dirname(ancestor)
        if not os.path.isdir(ancestor):
            return f"--observe {observe}: {ancestor} is not a directory"
    return None


def _numpy_version() -> str:
    import numpy

    return numpy.__version__


def _cmd_fig3(
    n_objects: List[int],
    trials: int,
    workers: Optional[int] = None,
    stats: bool = False,
    seed: int = 42,
    trace: Optional[str] = None,
    observe: Optional[str] = None,
    quiet: bool = False,
    profile: bool = False,
) -> int:
    from repro.engine import run_fig3

    error = _sweep_arg_error(n_objects, trials, workers, seed)
    if error:
        print(f"fig3: {error}", file=sys.stderr)
        return 2
    localities = [1.0, 0.8, 0.6, 0.4, 0.2, 0.0]
    if (stats or trace or observe or profile) and not quiet:
        # reproducibility banner: everything needed to reconstruct this
        # run (the sweep derives every trial seed from these); numpy's
        # version pins the vector kernels' numerics
        print(
            f"repro {__version__} fig3: seed={seed} trials={trials} "
            f"workers={workers if workers else 1} "
            f"n_objects={','.join(str(n) for n in n_objects)} "
            f"localities={','.join(f'{x:g}' for x in localities)} "
            f"numpy={_numpy_version()}"
        )
    with telemetry.session(
        trace=bool(trace), observe=bool(observe), profile=profile
    ):
        raw = run_fig3(
            localities=localities,
            n_trials=trials,
            n_objects_list=n_objects,
            seed=seed,
            workers=workers,
        )
    series = {
        f"Nobject={n}": [
            (p.locality_knob, p.used_channels) for p in raw[n]
        ]
        for n in n_objects
    }
    print(format_series(
        series, x_label="locality", y_label="used_channels",
        title="Figure 3: Locality versus Number of Used Channels",
    ))
    _write_artifacts("fig3", trace, observe, profile)
    if stats:
        reg = telemetry.get_registry()
        print()
        print(
            f"grants={reg.counter('csd.connect.grants').value}  "
            f"blocks={reg.counter('csd.connect.blocks').value}  "
            f"rollbacks={reg.counter('chained.connect.rollbacks').value}"
        )
        print(reg.summary())
    return 0


def _write_artifacts(
    command: str, trace: Optional[str], observe: Optional[str], profile: bool
) -> None:
    """Export what a command's :func:`telemetry.session` recorded: the
    Chrome trace, the observation bundle, the self-profile summary.  The
    bundle and the summary render one snapshot of the registry."""
    if observe or profile:
        snapshot = telemetry.snapshot()
    if trace:
        from repro.telemetry.export import write_chrome_trace

        n_spans = write_chrome_trace(telemetry.tracer(), trace)
        print(
            f"wrote {n_spans} spans to {trace} "
            "(load it at https://ui.perfetto.dev or chrome://tracing)"
        )
    if observe:
        from repro.telemetry.exposition import write_observation

        written = write_observation(
            snapshot, observe, title=f"{command} observation"
        )
        print(
            f"wrote observation bundle to {observe}: "
            + ", ".join(sorted(written))
        )
    if profile:
        from repro.telemetry.exposition import (
            format_profile_report,
            observation_document,
        )

        doc = observation_document(snapshot, title=f"{command} profile")
        print(format_profile_report(doc), end="")


def _cmd_faults(
    rates: List[float],
    n_objects: List[int],
    trials: int,
    workers: Optional[int] = None,
    stats: bool = False,
    seed: int = 42,
    trace: Optional[str] = None,
    report_path: Optional[str] = None,
    observe: Optional[str] = None,
    quiet: bool = False,
    csd_rate: Optional[float] = None,
    profile: bool = False,
) -> int:
    from repro.engine import run_faults
    from repro.faults.campaign import report_json

    error = _sweep_arg_error(
        n_objects, trials, workers, seed, rates, csd_rate
    )
    if error:
        print(f"faults: {error}", file=sys.stderr)
        return 2
    if not quiet:
        # reproducibility banner: the campaign derives every fault draw
        # and every trial seed from exactly these knobs; numpy's version
        # pins the vector kernels' numerics
        print(
            f"repro {__version__} faults: seed={seed} trials={trials} "
            f"workers={workers if workers else 1} "
            f"rates={','.join(f'{r:g}' for r in rates)} "
            f"n_objects={','.join(str(n) for n in n_objects)} "
            f"numpy={_numpy_version()}"
        )
    with telemetry.session(
        trace=bool(trace), observe=bool(observe), profile=profile
    ):
        report = run_faults(
            rates,
            n_objects_list=n_objects,
            n_trials=trials,
            seed=seed,
            workers=workers,
            csd_rate=csd_rate,
        )
    rows = []
    for p in report["points"]:
        rc = p["reconfig"]
        rows.append((
            p["n_objects"],
            f"{p['rate']:g}",
            p["fault_triggers"],
            f"{p['csd']['served_fraction']:.3f}",
            f"{rc['first_try']}/{rc['recovered']}/{rc['degraded']}/{rc['lost']}",
            p["chained"]["splits"],
            f"{p['survival']:.2f}",
        ))
    print(format_table(
        ["Nobject", "rate", "faults", "CSD served",
         "ok/rec/deg/lost", "splits", "survival"],
        rows,
        title="Fault campaign: survival by fault rate",
    ))
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(report_json(report))
        print(f"wrote campaign report to {report_path}")
    _write_artifacts("faults", trace, observe, profile)
    if stats:
        reg = telemetry.get_registry()
        rec = reg.histogram("faults.recovery.cycles")
        print()
        print(
            f"triggered={reg.counter('faults.triggered').value}  "
            f"healed={reg.counter('faults.healed').value}  "
            f"retries={reg.counter('faults.recovery.retries').value}  "
            f"recovered={reg.counter('faults.recovery.recovered').value}  "
            f"exhausted={reg.counter('faults.recovery.exhausted').value}  "
            f"degradations={reg.counter('faults.degradations').value}"
        )
        print(
            f"recovery cycles: n={rec.count} "
            f"p50={rec.percentile(50):g} p95={rec.percentile(95):g} "
            f"p99={rec.percentile(99):g}"
        )
        print(reg.summary())
    return 0


def _cmd_trace_report(path: str) -> int:
    from repro.telemetry.analysis import format_trace_report, load_chrome_trace

    try:
        spans = load_chrome_trace(path)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace {path!r}: {exc}", file=sys.stderr)
        return 2
    print(format_trace_report(spans))
    return 0


def _cmd_observation_report(path: str, profile: bool) -> int:
    """``observe-report`` (or ``profile``, the self-profile stages) of an
    ``observe.json`` file or of the bundle directory holding one."""
    from repro.telemetry.exposition import (
        format_observe_report,
        format_profile_report,
        load_observation,
    )

    target = path
    if os.path.isdir(target):
        target = os.path.join(target, "observe.json")
    try:
        doc = load_observation(target)
    except (OSError, ValueError) as exc:
        print(f"cannot read observation {path!r}: {exc}", file=sys.stderr)
        return 2
    render = format_profile_report if profile else format_observe_report
    print(render(doc), end="")
    return 0


def _cmd_baseline(args) -> int:
    from repro.errors import ReproError
    from repro.telemetry.baseline import (
        BENCHES,
        check_baseline,
        load_baseline,
        record_baseline,
        write_baseline,
    )

    if args.action == "record":
        if args.bench not in BENCHES:
            print(
                f"unknown bench {args.bench!r} (want one of {sorted(BENCHES)})",
                file=sys.stderr,
            )
            return 2
        baseline = record_baseline(args.bench)
        out = args.out or f"BENCH_{args.bench}.json"
        write_baseline(baseline, out)
        print(
            f"recorded {args.bench} baseline to {out}: "
            f"{len(baseline['deterministic'])} deterministic metrics, "
            f"{baseline['wallclock']['points_per_s']:.2f} points/s"
        )
        return 0
    # action == "check"
    try:
        baseline = load_baseline(args.baseline_file)
    except (OSError, ValueError) as exc:
        print(f"cannot read baseline: {exc}", file=sys.stderr)
        return 2
    try:
        regressions = check_baseline(
            baseline,
            throughput_tolerance=args.throughput_tolerance,
            latency_tolerance=args.latency_tolerance,
            skip_wallclock=args.skip_wallclock,
        )
    except (ValueError, ReproError) as exc:
        print(f"baseline: {args.baseline_file}: {exc}", file=sys.stderr)
        return 2
    if regressions:
        print(f"{args.baseline_file}: {len(regressions)} regression(s):")
        for line in regressions:
            print(f"  - {line}")
        return 1
    print(
        f"{args.baseline_file}: baseline holds "
        f"({len(baseline['deterministic'])} metrics"
        + (", wall-clock skipped" if args.skip_wallclock else "")
        + ")"
    )
    return 0


def _cmd_serve(
    host: str, port: int, rows: int, cols: int,
    max_tenants: Optional[int] = None,
    metrics_port: Optional[int] = None,
) -> int:
    import asyncio

    from repro.service import (
        FabricServer,
        FabricService,
        MetricsEndpoint,
        ResidentFabric,
    )

    error = _die_arg_error(rows, cols)
    for flag, value in (("--port", port), ("--metrics-port", metrics_port)):
        if value is not None and not 0 <= value <= 65535:  # 0: ephemeral
            error = f"{flag} must lie in 0-65535, got {value}"
    if max_tenants is not None and max_tenants < 1:
        error = f"--max-tenants must be at least 1, got {max_tenants}"
    if error:
        print(f"serve: {error}", file=sys.stderr)
        return 2

    async def _serve() -> Optional[str]:
        """Serve until interrupted; return only when a port cannot be
        bound, with the reason."""
        server = FabricServer(
            FabricService(ResidentFabric(rows, cols, max_tenants=max_tenants)),
            host=host, port=port,
        )
        endpoint = (
            None if metrics_port is None
            else MetricsEndpoint(host=host, port=metrics_port)
        )
        try:
            # the metrics endpoint binds first; whichever bind fails,
            # the finally below closes what did start
            listeners = ((endpoint, metrics_port), (server, port))
            for listener, listen_port in listeners:
                if listener is None:
                    continue
                try:
                    await listener.start()
                except OSError as exc:
                    reason = (
                        os.strerror(exc.errno) if exc.errno and exc.errno > 0
                        else str(exc)
                    )
                    return f"cannot listen on {host}:{listen_port}: {reason}"
            print(
                f"repro {__version__} serve: resident {rows}x{cols} "
                f"fabric on {server.host}:{server.port} "
                f"(max_tenants="
                f"{max_tenants or 'unbounded'})"
                + (
                    f"  metrics on http://{endpoint.host}:"
                    f"{endpoint.port}/metrics"
                    if endpoint
                    else ""
                ),
                flush=True,
            )
            await asyncio.Event().wait()  # until interrupted
        finally:
            await server.close()
            if endpoint is not None:
                await endpoint.close()

    try:
        # the scrape endpoint is only useful with live instruments
        with telemetry.session(observe=metrics_port is not None):
            error = asyncio.run(_serve())
    except KeyboardInterrupt:
        print("serve: interrupted, fabric released", file=sys.stderr)
        return 0
    print(f"serve: {error}", file=sys.stderr)
    return 1


def _cmd_service_load(
    tenants: int,
    requests: int,
    rps: float,
    seed: int = 42,
    rows: int = 8,
    cols: int = 8,
    transport: str = "inproc",
    report_path: Optional[str] = None,
    observe: Optional[str] = None,
    profile: bool = False,
    quiet: bool = False,
    slo: Optional[str] = None,
    trace: Optional[str] = None,
    records_path: Optional[str] = None,
    connect: Optional[str] = None,
) -> int:
    from repro.errors import ServiceError
    from repro.service import (
        LoadConfig,
        build_report,
        execute_load,
        records_document,
        report_json,
    )

    try:
        config = LoadConfig(
            tenants=tenants, requests=requests, rps=rps,
            seed=seed, rows=rows, cols=cols,
        )
    except ValueError as exc:
        print(f"service-load: {exc}", file=sys.stderr)
        return 2
    connect_to: Optional[tuple] = None
    if connect is not None:
        if trace or observe or profile:
            # those planes live in the server process, not this driver
            print(
                "service-load: --trace/--observe/--profile record in the "
                "serving process; they cannot be combined with --connect",
                file=sys.stderr,
            )
            return 2
        host, sep, port_text = connect.rpartition(":")
        # isascii(): isdigit() also passes digits int() rejects, like "²"
        if not (sep and host and port_text.isascii() and port_text.isdigit()
                and len(port_text) <= 5 and 1 <= int(port_text) <= 65535):
            print(
                f"service-load: --connect wants HOST:PORT with PORT in "
                f"1-65535, got {connect!r}",
                file=sys.stderr,
            )
            return 2
        connect_to = (host, int(port_text))
    objectives = None
    if slo:
        from repro.telemetry.slo import load_spec

        try:
            objectives = load_spec(slo)
        except (OSError, ValueError) as exc:
            print(f"service-load: bad SLO spec: {exc}", file=sys.stderr)
            return 2
    if not quiet:
        # reproducibility banner: the report is a pure function of these
        print(
            f"repro {__version__} service-load: seed={seed} "
            f"tenants={tenants} requests={requests} rps={rps:g} "
            f"die={rows}x{cols} "
            + (
                f"connect={connect}"
                if connect
                else f"transport={transport}"
            )
        )
    with telemetry.session(
        trace=bool(trace), observe=bool(observe), profile=profile
    ):
        try:
            records = execute_load(
                config, transport=transport, connect=connect_to
            )
        except ServiceError as exc:  # --connect reached no server
            print(f"service-load: {exc}", file=sys.stderr)
            return 1
    report = build_report(config, records)
    slo_report = None
    if objectives is not None:
        from repro.telemetry.slo import evaluate_slos, record_slo_observation

        slo_report = evaluate_slos(objectives, records, rows * cols)
        report["slo"] = slo_report
        if observe:
            record_slo_observation(slo_report)
    if trace:
        from repro.telemetry.export import select_trees, write_chrome_trace

        tracer = telemetry.tracer()
        # only service-rooted trees: spans from the layers below carry
        # interleaving-dependent op ids that would break byte-identity
        n_spans = write_chrome_trace(select_trees(tracer, "service."), trace)
        # surface truncation: a capped tracer silently drops spans
        report["trace"] = {"spans": n_spans, "dropped": tracer.dropped}
    rendered = report_json(report)
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(rendered)
        print(f"wrote service report to {report_path}")
    else:
        print(rendered, end="")
    if records_path:
        with open(records_path, "w", encoding="utf-8") as fh:
            fh.write(report_json(records_document(config, records)))
        print(f"wrote completion records to {records_path}")
    lat = report["latency_cycles"]
    req = report["requests"]
    print(
        f"service-load: {req['total']} requests "
        f"({req['ok']} ok, {req['rejected']} rejected)  "
        f"latency cycles p50={lat['p50']} p95={lat['p95']} "
        f"p99={lat['p99']}  "
        f"utilization={report['fabric']['utilization']:.3f}"
    )
    if trace:
        print(
            f"wrote {report['trace']['spans']} spans to {trace} "
            f"({report['trace']['dropped']} dropped)"
        )
    if slo_report is not None:
        from repro.telemetry.slo import format_slo_report

        print(format_slo_report(slo_report), end="")
    _write_artifacts("service-load", None, observe, profile)
    return 1 if slo_report is not None and slo_report["breached"] else 0


def _cmd_slo_report(
    spec_path: str,
    records_file: str,
    report_path: Optional[str] = None,
) -> int:
    """Re-evaluate SLO objectives over a saved records dump; exit 1 when
    any error budget is exhausted (2 on malformed inputs)."""
    from repro.service.loadgen import RECORDS_SCHEMA
    from repro.telemetry.artifacts import read_json
    from repro.telemetry.slo import (
        evaluate_slos,
        format_slo_report,
        load_spec,
        slo_report_json,
    )

    try:
        objectives = load_spec(spec_path)
    except (OSError, ValueError) as exc:
        print(f"slo-report: bad SLO spec: {exc}", file=sys.stderr)
        return 2
    try:
        document = read_json(records_file)
    except (OSError, ValueError) as exc:
        print(f"slo-report: cannot read records: {exc}", file=sys.stderr)
        return 2
    config = document.get("config", {}) if isinstance(document, dict) else None
    rows, cols = (
        (config.get("rows", 8), config.get("cols", 8))
        if isinstance(config, dict) else (None, None)
    )
    if not (
        isinstance(document, dict)
        and document.get("schema") == RECORDS_SCHEMA
        and isinstance(document.get("records"), list)
        and all(type(side) is int and side >= 1 for side in (rows, cols))
    ):
        print(
            f"slo-report: {records_file} is not a {RECORDS_SCHEMA} "
            "records document (write one with service-load --records)",
            file=sys.stderr,
        )
        return 2
    clusters = rows * cols
    try:
        slo_report = evaluate_slos(
            objectives, document["records"], clusters
        )
    except (KeyError, TypeError, ValueError) as exc:
        print(f"slo-report: cannot evaluate: {exc}", file=sys.stderr)
        return 2
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(slo_report_json(slo_report))
        print(f"wrote SLO report to {report_path}")
    print(format_slo_report(slo_report), end="")
    return 1 if slo_report["breached"] else 0


def _cmd_defrag(
    scenario: str,
    plan: str,
    mode: str,
    max_passes: int,
    report_path: Optional[str] = None,
    quiet: bool = False,
) -> int:
    from repro.planner import scenario_names
    from repro.planner.report import defrag_report, report_json

    if max_passes < 1:
        print(
            f"defrag: --max-passes must be at least 1 (got {max_passes})",
            file=sys.stderr,
        )
        return 2
    if scenario == "all":
        names = scenario_names()
    elif scenario in scenario_names():
        names = [scenario]
    else:
        print(
            f"defrag: unknown scenario {scenario!r} "
            f"(want 'all' or one of {', '.join(scenario_names())})",
            file=sys.stderr,
        )
        return 2
    if not quiet:
        # reproducibility banner: the strategy lives here, not in the
        # report
        print(
            f"repro {__version__} defrag: plan={plan}"
            + (f" mode={mode}" if plan == "minimal" else "")
            + f" max_passes={max_passes} "
            f"scenarios={','.join(names)}"
        )
    report = defrag_report(
        names, plan=plan, mode=mode, max_passes=max_passes
    )
    rendered = report_json(report)
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(rendered)
        print(f"wrote defrag report to {report_path}")
    else:
        print(rendered, end="")
    total = report["total"]
    print(
        f"defrag: {total['moves']} moves across {len(names)} scenario(s)  "
        f"switch_writes={total['switch_writes']} "
        f"config_flits={total['config_flits']} "
        f"downtime={total['downtime_cycles']} cycles "
        f"(naive {total['naive_downtime_cycles']}, "
        f"saved {total['rewires_saved']})"
    )
    return 0


def _cmd_chip(rows: int, cols: int) -> int:
    from repro.core.vlsi_processor import VLSIProcessor
    from repro.costmodel.areas import ap_area

    error = _die_arg_error(rows, cols)
    if error:
        print(f"chip: {error}", file=sys.stderr)
        return 2
    chip = VLSIProcessor(rows, cols, with_network=False)
    print(f"{rows}x{cols} S-topology: {len(chip.fabric)} clusters, "
          f"{chip.fabric.switch_count()[0]} chain switches")
    print(f"minimum AP: {chip.fabric.resources.compute_objects} compute + "
          f"{chip.fabric.resources.memory_objects} memory objects, "
          f"{ap_area():.3e} lambda^2")
    print(chip.render())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Takano's Very Large-Scale Integrated "
        "Processor (IJNC 2013)",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"repro {__version__} (numpy {_numpy_version()})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print a paper table (1-4)")
    p_table.add_argument("number", type=int, choices=(1, 2, 3, 4))

    p_fig3 = sub.add_parser("fig3", help="run the Figure 3 CSD sweep")
    p_fig3.add_argument(
        "--n-objects", type=int, nargs="+", default=[16, 64, 256]
    )
    p_fig3.add_argument("--trials", type=int, default=5)
    p_fig3.add_argument(
        "--workers", type=int, default=None,
        help="fan the (N, locality) points out over N worker processes "
        "(bit-identical to the serial sweep)",
    )
    p_fig3.add_argument(
        "--stats", action="store_true",
        help="print the repro.telemetry summary (grants, blocks, "
        "rollbacks, per-phase timings) after the sweep",
    )
    p_fig3.add_argument(
        "--seed", type=int, default=42,
        help="sweep seed every trial seed derives from (default 42)",
    )
    p_fig3.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record causal spans (request/grant/ack, per-trial) and "
        "write a Perfetto-loadable Chrome-trace JSON file",
    )
    p_fig3.add_argument(
        "--observe", metavar="DIR", default=None,
        help="sample per-cycle fabric state (segment demand, channel "
        "occupancy, used channels) and write the observation bundle "
        "(OpenMetrics, CSV, JSON, HTML dashboard) into DIR",
    )
    p_fig3.add_argument(
        "--quiet", action="store_true",
        help="suppress the reproducibility banner",
    )
    p_fig3.add_argument(
        "--profile", action="store_true",
        help="time the engine's own stages (resolve, replay, kernel "
        "grants, sweep dispatch) and print a self-profile summary; the "
        "profile.* families also land in the --observe bundle",
    )

    p_faults = sub.add_parser(
        "faults",
        help="run the Monte-Carlo fault-injection campaign "
        "(retry, degradation, survival curves)",
    )
    p_faults.add_argument(
        "--rates", type=float, nargs="+", default=[0.0, 0.02, 0.05, 0.1, 0.2],
        help="fault rates to sweep (default 0 0.02 0.05 0.1 0.2)",
    )
    p_faults.add_argument(
        "--n-objects", type=int, nargs="+", default=[16, 32, 64]
    )
    p_faults.add_argument("--trials", type=int, default=8)
    p_faults.add_argument(
        "--workers", type=int, default=None,
        help="fan the (N, rate) points out over N worker processes "
        "(bit-identical report to the serial run)",
    )
    p_faults.add_argument(
        "--stats", action="store_true",
        help="print fault/recovery telemetry (triggered, healed, "
        "retries, recovery-latency p50/p95/p99) after the campaign",
    )
    p_faults.add_argument(
        "--seed", type=int, default=42,
        help="campaign seed every fault draw and trial seed derives "
        "from (default 42)",
    )
    p_faults.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record causal spans (fault triggers, retries, "
        "degradations) and write a Perfetto-loadable trace",
    )
    p_faults.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the canonical JSON campaign report (sorted keys, "
        "byte-identical for the same seed)",
    )
    p_faults.add_argument(
        "--observe", metavar="DIR", default=None,
        help="sample per-cycle fabric state (lifecycle census, switch "
        "settings, junction states, NoC buffer depths) and write the "
        "observation bundle into DIR",
    )
    p_faults.add_argument(
        "--quiet", action="store_true",
        help="suppress the reproducibility banner",
    )
    p_faults.add_argument(
        "--csd-rate", type=float, default=None,
        help="pin the CSD-segment fault rate at this value while --rates "
        "sweeps every other fault kind (0 keeps the datapath fault-free "
        "so every CSD phase runs on the vector kernel); recorded "
        "in the report as 'csd_rate'",
    )
    p_faults.add_argument(
        "--profile", action="store_true",
        help="time the engine's own stages and print a self-profile "
        "summary (see fig3 --profile)",
    )

    p_report = sub.add_parser(
        "trace-report",
        help="analyse a --trace file: critical path, p50/p95/p99 phase "
        "latencies, blocking hotspots",
    )
    p_report.add_argument("trace_file", help="JSON file written by --trace")

    p_observe = sub.add_parser(
        "observe-report",
        help="summarise an --observe bundle (gauges, series, heatmaps, "
        "dropped-sample warnings)",
    )
    p_observe.add_argument(
        "observe_path",
        help="an --observe output directory, or its observe.json file",
    )

    p_profile = sub.add_parser(
        "profile",
        help="summarise the self-profiling layer of an --observe bundle "
        "(profile.* stage timers)",
    )
    p_profile.add_argument(
        "observe_path",
        help="an --observe output directory (from a --profile run), or "
        "its observe.json file",
    )

    p_baseline = sub.add_parser(
        "baseline",
        help="record or check BENCH_*.json performance baselines",
    )
    baseline_sub = p_baseline.add_subparsers(dest="action", required=True)
    p_record = baseline_sub.add_parser(
        "record", help="run a bench and write its baseline file"
    )
    p_record.add_argument(
        "--bench", required=True,
        help="fig3, faults, engine, megascale, service, or planner",
    )
    p_record.add_argument(
        "--out", default=None,
        help="output path (default BENCH_<bench>.json)",
    )
    p_check = baseline_sub.add_parser(
        "check",
        help="re-run a baseline's bench and fail (exit 1) on regression",
    )
    p_check.add_argument("baseline_file", help="a BENCH_*.json file")
    p_check.add_argument(
        "--throughput-tolerance", type=float, default=0.15,
        help="max relative throughput drop before failing (default 0.15)",
    )
    p_check.add_argument(
        "--latency-tolerance", type=float, default=0.15,
        help="max relative p95 recovery-latency growth (default 0.15)",
    )
    p_check.add_argument(
        "--skip-wallclock", action="store_true",
        help="check only deterministic metrics (for CI runners whose "
        "speed is not comparable to the recording machine)",
    )

    p_chip = sub.add_parser("chip", help="summarise a fabric")
    p_chip.add_argument("--rows", type=int, default=8)
    p_chip.add_argument("--cols", type=int, default=8)

    p_defrag = sub.add_parser(
        "defrag",
        help="compact the deterministic defrag scenario suite under one "
        "reconfiguration strategy and emit the canonical cost report",
    )
    p_defrag.add_argument(
        "--scenario", default="all",
        help="one scenario name, or 'all' for the whole suite (default)",
    )
    p_defrag.add_argument(
        "--plan", choices=("legacy", "minimal"), default="minimal",
        help="execution strategy: 'legacy' (the compaction schedule run "
        "as release-then-reconfigure) or 'minimal' (delta rewiring; "
        "default)",
    )
    p_defrag.add_argument(
        "--mode", choices=("auto", "greedy", "exact"), default="auto",
        help="minimal-planner mode: 'auto' (exact when <=16 regions are "
        "movable, else greedy), 'greedy', or 'exact' (only with "
        "--plan minimal)",
    )
    p_defrag.add_argument(
        "--max-passes", type=int, default=8,
        help="compaction pass budget (default 8, like compact_until_stable)",
    )
    p_defrag.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the canonical JSON report here instead of stdout "
        "(sorted keys; byte-identical for the same strategy)",
    )
    p_defrag.add_argument(
        "--quiet", action="store_true",
        help="suppress the reproducibility banner",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the resident fabric as a TCP service (length-prefixed "
        "JSON frames; see repro.service.protocol)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="listen port (default 0: pick an ephemeral port)",
    )
    p_serve.add_argument("--rows", type=int, default=8)
    p_serve.add_argument("--cols", type=int, default=8)
    p_serve.add_argument(
        "--max-tenants", type=int, default=None,
        help="admission cap on resident tenants (default unbounded)",
    )
    p_serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="also serve the live OpenMetrics snapshot over HTTP at "
        "/metrics on this port (enables observation; 0 picks an "
        "ephemeral port)",
    )

    p_sload = sub.add_parser(
        "service-load",
        help="drive a seeded multi-tenant load at a resident fabric and "
        "emit the canonical latency/utilization report (simulated "
        "cycles; byte-identical for the same seed)",
    )
    p_sload.add_argument(
        "--tenants", type=int, default=4,
        help="concurrent tenants, each with its own die shard (default 4)",
    )
    p_sload.add_argument(
        "--requests", type=int, default=32,
        help="operations per tenant between hello and bye (default 32)",
    )
    p_sload.add_argument(
        "--rps", type=float, default=500.0,
        help="nominal per-tenant request rate, converted to simulated "
        "inter-arrival cycles (default 500)",
    )
    p_sload.add_argument(
        "--seed", type=int, default=42,
        help="seed every tenant's script derives from (default 42)",
    )
    p_sload.add_argument("--rows", type=int, default=8)
    p_sload.add_argument("--cols", type=int, default=8)
    p_sload.add_argument(
        "--transport", choices=("inproc", "tcp"), default="inproc",
        help="drive the service in-process or over a real localhost TCP "
        "server (identical report either way)",
    )
    p_sload.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the canonical JSON report here instead of stdout",
    )
    p_sload.add_argument(
        "--observe", metavar="DIR", default=None,
        help="record service gauges/series (per-tenant clocks, latency "
        "histogram) and write the observation bundle into DIR",
    )
    p_sload.add_argument(
        "--profile", action="store_true",
        help="time the service's request handling (profile.* stages) "
        "and print a self-profile summary",
    )
    p_sload.add_argument(
        "--quiet", action="store_true",
        help="suppress the reproducibility banner",
    )
    p_sload.add_argument(
        "--slo", metavar="SPEC", default=None,
        help="evaluate SLO objectives from a TOML/JSON spec over the "
        "run's records, embed the report, and exit 1 if any error "
        "budget is exhausted",
    )
    p_sload.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record one causal span tree per request and write a "
        "Chrome trace (virtual-cycle timestamps; byte-identical "
        "across reruns and transports)",
    )
    p_sload.add_argument(
        "--records", metavar="FILE", default=None,
        help="dump the raw completion records (the input 'repro "
        "slo-report' re-evaluates offline)",
    )
    p_sload.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="drive an external, already-running 'repro serve' instead "
        "of an in-process fabric (incompatible with --trace/--observe/"
        "--profile, which record in the serving process)",
    )

    p_slo = sub.add_parser(
        "slo-report",
        help="re-evaluate SLO objectives over a saved service-load "
        "records dump; exits 1 when an error budget is exhausted",
    )
    p_slo.add_argument(
        "spec", metavar="SPEC",
        help="SLO spec file ([[objective]] tables; TOML subset or JSON)",
    )
    p_slo.add_argument(
        "--records", metavar="FILE", required=True,
        help="records document written by service-load --records",
    )
    p_slo.add_argument(
        "--report", metavar="FILE", default=None,
        help="also write the canonical JSON SLO report here",
    )

    args = parser.parse_args(argv)
    error = _output_arg_error(args)
    if error:
        print(f"{args.command}: {error}", file=sys.stderr)
        return 2
    if args.command == "table":
        return _cmd_table(args.number)
    if args.command == "fig3":
        return _cmd_fig3(
            args.n_objects, args.trials, workers=args.workers,
            stats=args.stats, seed=args.seed, trace=args.trace,
            observe=args.observe, quiet=args.quiet, profile=args.profile,
        )
    if args.command == "faults":
        return _cmd_faults(
            args.rates, args.n_objects, args.trials, workers=args.workers,
            stats=args.stats, seed=args.seed, trace=args.trace,
            report_path=args.report, observe=args.observe,
            quiet=args.quiet, csd_rate=args.csd_rate, profile=args.profile,
        )
    if args.command == "trace-report":
        return _cmd_trace_report(args.trace_file)
    if args.command in ("observe-report", "profile"):
        return _cmd_observation_report(
            args.observe_path, profile=args.command == "profile"
        )
    if args.command == "baseline":
        return _cmd_baseline(args)
    if args.command == "chip":
        return _cmd_chip(args.rows, args.cols)
    if args.command == "defrag":
        return _cmd_defrag(
            args.scenario, args.plan, args.mode, args.max_passes,
            report_path=args.report, quiet=args.quiet,
        )
    if args.command == "serve":
        return _cmd_serve(
            args.host, args.port, args.rows, args.cols,
            max_tenants=args.max_tenants, metrics_port=args.metrics_port,
        )
    if args.command == "service-load":
        return _cmd_service_load(
            args.tenants, args.requests, args.rps, seed=args.seed,
            rows=args.rows, cols=args.cols, transport=args.transport,
            report_path=args.report, observe=args.observe,
            profile=args.profile, quiet=args.quiet, slo=args.slo,
            trace=args.trace, records_path=args.records,
            connect=args.connect,
        )
    if args.command == "slo-report":
        return _cmd_slo_report(
            args.spec, args.records, report_path=args.report
        )
    return 2  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
