"""The one fold-run search and its callers, in lockstep with the walks.

:mod:`repro.topology.folding` answers "where is the earliest, or the
longest, free fold run?" on fold-order bitmasks, and every fold-run
query reads :meth:`STopology.free_mask`.  The walks below are the
object walks those queries replaced, kept here as the oracle: on drawn
grids, ownership, defects, shard scopes and run lengths the allocator
and a slot-less :meth:`ResidentFabric.admit` must answer exactly as they
did.  The bit primitives are checked against a bit-string scan, and a
count guard pins that none of the queries walks
:meth:`STopology.linear_order`.
"""

from typing import Collection, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import ClusterAllocator
from repro.core.defrag import simulate_compaction
from repro.core.vlsi_processor import VLSIProcessor
from repro.errors import AdmissionError, RegionError
from repro.planner.exact import search_exact
from repro.service.fabric import ResidentFabric
from repro.service.server import FabricService
from repro.topology.folding import first_run, longest_run, run_starts
from repro.topology.regions import Region, path_region
from repro.topology.s_topology import STopology

Coord = Tuple[int, int]


# -- the walks the mask replaced ------------------------------------------------


def _eligible(fabric: STopology, coord: Coord, scope) -> bool:
    return (scope is None or coord in scope) and fabric.cluster(coord).is_free


def walk_free_count(fabric: STopology, within=None) -> int:
    return sum(
        1 for coord in fabric.linear_order() if _eligible(fabric, coord, within)
    )


def walk_largest_free_run(fabric: STopology, within=None) -> int:
    best = run = 0
    for coord in fabric.linear_order():
        if _eligible(fabric, coord, within):
            run += 1
            best = max(best, run)
        else:
            run = 0
    return best


def walk_find_serpentine(
    fabric: STopology, n: int, within=None
) -> Optional[Region]:
    run: List[Coord] = []
    for coord in fabric.linear_order():
        if _eligible(fabric, coord, within):
            run.append(coord)
            if len(run) == n:
                return path_region(run)
        else:
            run = []
    return None


def walk_first_unsharded_run(
    order: List[Coord], sharded: Collection[Coord], n: int
) -> Optional[Tuple[Coord, ...]]:
    run: List[Coord] = []
    for coord in order:
        if coord in sharded:
            run = []
            continue
        run.append(coord)
        if len(run) == n:
            return tuple(run)
    return None


# -- the bit primitives ----------------------------------------------------------


def scan_starts(bits: int, n: int) -> List[int]:
    """Every ``i`` with bits ``i .. i + n - 1`` set, by string scan."""
    text = bin(bits)[2:][::-1]  # text[i] is bit i
    return [i for i in range(len(text) - n + 1) if text[i:i + n] == "1" * n]


@given(bits=st.integers(0, 2 ** 80), n=st.integers(1, 82))
@settings(max_examples=300, deadline=None)
def test_bit_primitives_match_a_string_scan(bits, n):
    starts = scan_starts(bits, n)
    assert run_starts(bits, n) == sum(1 << i for i in starts)
    assert first_run(bits, n) == (starts[0] if starts else None)
    assert longest_run(bits) == max(
        (m for m in range(1, 82) if scan_starts(bits, m)), default=0
    )


def test_empty_run_starts_at_zero():
    assert first_run(0, 0) == 0
    assert longest_run(0) == 0


# -- drawn chips -------------------------------------------------------------------


@st.composite
def chips(draw):
    """A 1x1..6x6 die: first-fit serpentine or rectangle creates of 1-5
    clusters, some destroyed, then some free clusters marked defective;
    a shard scope (a subset of the die, or none) and a run length."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    vlsi = VLSIProcessor(rows, cols, with_network=False)
    creates = draw(st.lists(
        st.tuples(
            st.integers(1, 5),
            st.sampled_from(("serpentine", "rectangle")),
            st.booleans(),
        ),
        max_size=10,
    ))
    for i, (size, strategy, destroy) in enumerate(creates):
        try:
            vlsi.create_processor(f"p{i}", size, strategy=strategy)
        except RegionError:
            continue
        if destroy:
            vlsi.destroy_processor(f"p{i}")
    order = vlsi.fabric.linear_order()
    for coord in draw(st.lists(st.sampled_from(order), max_size=6)):
        if vlsi.fabric.cluster(coord).is_free:
            vlsi.fabric.cluster(coord).mark_defective()
    scope = draw(st.one_of(
        st.none(), st.frozensets(st.sampled_from(order), max_size=len(order))
    ))
    n = draw(st.integers(1, rows * cols + 1))
    return vlsi, scope, n


@given(chip=chips())
@settings(max_examples=200, deadline=None)
def test_allocator_matches_the_walks(chip):
    vlsi, scope, n = chip
    fabric = vlsi.fabric
    allocator = ClusterAllocator(fabric)
    for within in (None, scope):
        assert allocator.free_count(within) == walk_free_count(fabric, within)
        assert allocator.largest_free_run(within) == walk_largest_free_run(
            fabric, within
        )
        assert allocator.find_serpentine(n, within) == walk_find_serpentine(
            fabric, n, within
        )


@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    ops=st.lists(
        st.tuples(
            st.sampled_from(("admit", "slot", "evict")),
            st.integers(1, 12),
            st.integers(0, 35),
        ),
        max_size=12,
    ),
)
@settings(max_examples=150, deadline=None)
def test_slotless_admit_matches_the_walk(rows, cols, ops):
    fabric = ResidentFabric(rows, cols, with_network=False)
    order = fabric.vlsi.fabric.linear_order()
    for i, (op, clusters, slot) in enumerate(ops):
        if op == "evict":
            if fabric.tenants:
                names = sorted(fabric.tenants)
                fabric.evict(names[slot % len(names)])
            continue
        name = f"t{i}"
        if op == "slot":
            try:
                fabric.admit(name, clusters, slot=slot)
            except AdmissionError:
                pass
            continue
        sharded = {c for t in fabric.tenants.values() for c in t.shard}
        expected = walk_first_unsharded_run(order, sharded, clusters)
        if expected is None:
            try:
                fabric.admit(name, clusters)
            except AdmissionError:
                continue
            raise AssertionError("admitted with no free run")
        tenant, _ = fabric.admit(name, clusters)
        assert tenant.shard == expected


# -- count guard -------------------------------------------------------------------


def test_fold_run_queries_never_walk_linear_order(monkeypatch):
    vlsi = VLSIProcessor(6, 6, with_network=False)
    for i, size in enumerate((3, 4, 2, 5, 3, 4)):
        vlsi.create_processor(f"p{i}", size)
    for i in (0, 3):
        vlsi.destroy_processor(f"p{i}")
    vlsi.fabric.cluster((5, 5)).mark_defective()
    shard = frozenset(vlsi.fabric.linear_order()[:20])
    resident = ResidentFabric(8, 8, with_network=False)
    service = FabricService(resident)

    calls = []
    linear_order = STopology.linear_order

    def counted(self):
        calls.append(self)
        return linear_order(self)

    monkeypatch.setattr(STopology, "linear_order", counted)
    allocator = vlsi.allocator
    for within in (None, shard):
        allocator.free_count(within)
        allocator.largest_free_run(within)
        allocator.find_serpentine(3, within)
    schedule = simulate_compaction(vlsi)
    search_exact(schedule, seed_cost=10 ** 6)
    resident.admit("a", 8)
    resident.admit("b", 8, slot=40)
    reply = service.handle({
        "op": "hello", "tenant": "c", "seq": 0, "issue_cycle": 0,
        "clusters": 4,
    })
    assert reply["result"]["slot"] == 8
    assert calls == []
