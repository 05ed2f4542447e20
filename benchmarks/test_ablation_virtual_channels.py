"""Ablation: virtual-channel flow control on the scaling network.

The paper cites Dally's virtual-channel paper [18].  This bench builds
the textbook head-of-line blocking case and measures what VCs buy:

* worm C (long) holds router (0,1)'s SOUTH output;
* worm A wants that same SOUTH output and stalls behind C;
* worm B, arriving behind A on the same physical link, only wants the
  *free* EAST output.

With one VC, B is stuck behind A in the shared input queue while EAST
sits idle (head-of-line blocking).  With two VCs, B travels on its own
virtual channel and streams past.
"""

from repro.analysis.reporting import format_table
from repro.noc.flit import make_packet
from repro.noc.network import RouterNetwork


def _hol_scenario(n_vcs: int):
    """Returns (latency of worm B, makespan)."""
    net = RouterNetwork(2, 4, n_vcs=n_vcs)
    # C: long worm occupying (0,1) -> (1,1) SOUTH
    c = make_packet((0, 1), (1, 1), payloads=list(range(14)), vc=0)
    # A: wants the same SOUTH output; will stall behind C
    a = make_packet((0, 0), (1, 1), payloads=list(range(4)), vc=0)
    # B: wants the free EAST output, arrives behind A
    b = make_packet(
        (0, 0), (0, 3), payloads=list(range(4)), vc=min(1, n_vcs - 1)
    )
    net.inject(c)
    net.inject(a)
    net.inject(b)
    net.run_until_drained()
    b_latency = net.record_for(b.packet_id).latency
    makespan = max(r.delivered_at for r in net.delivered)
    return b_latency, makespan


def test_virtual_channels_break_hol_blocking(benchmark, emit):
    def sweep():
        return {n_vcs: _hol_scenario(n_vcs) for n_vcs in (1, 2)}

    results = benchmark(sweep)
    (b_1vc, makespan_1vc) = results[1]
    (b_2vc, makespan_2vc) = results[2]

    # the victim worm gets out substantially earlier with VCs
    assert b_2vc < b_1vc - 3
    # and overall completion does not regress
    assert makespan_2vc <= makespan_1vc

    rows = [
        (1, b_1vc, makespan_1vc),
        (2, b_2vc, makespan_2vc),
    ]
    report = format_table(
        ["virtual channels", "victim-worm latency", "makespan"],
        rows,
        title="Ablation: VC flow control vs head-of-line blocking "
        "(ref [18]; victim wants a free output behind a stalled worm)",
    )
    emit("ablation_virtual_channels", report)


def test_vcs_do_not_change_uncontended_latency(benchmark):
    """A lone worm is equally fast regardless of VC count."""

    def run():
        out = {}
        for n_vcs in (1, 4):
            net = RouterNetwork(1, 10, n_vcs=n_vcs)
            p = make_packet((0, 0), (0, 9), payloads=list(range(4)))
            net.inject(p)
            net.run_until_drained()
            out[n_vcs] = net.record_for(p.packet_id).latency
        return out

    latencies = benchmark(run)
    assert latencies[1] == latencies[4]


def test_bandwidth_bound_traffic_unaffected(benchmark):
    """When the bottleneck is raw link bandwidth (not blocking), VCs
    neither help nor meaningfully hurt — the flip side of the HoL case."""

    def run(n_vcs):
        net = RouterNetwork(1, 8, n_vcs=n_vcs)
        for i in range(4):
            net.inject(
                make_packet(
                    (0, 0), (0, 7), payloads=list(range(6)), vc=i % n_vcs
                )
            )
        net.run_until_drained()
        return max(r.delivered_at for r in net.delivered)

    spans = benchmark(lambda: {v: run(v) for v in (1, 2)})
    assert abs(spans[1] - spans[2]) <= 4
