#!/usr/bin/env python3
"""Chip management: allocation strategies, fragmentation, and defrag.

Section 5 contrasts the mesh — where "a host system has to manage the
placement, routing, replacement, and defragmentation" — with the
self-managed VLSI processor.  This example exercises that management
plane: allocation strategy trade-offs, fragmentation under churn, and a
compaction pass that recovers a large contiguous region.

Run:  python examples/chip_management.py
"""

import numpy as np

from repro.core.defrag import Defragmenter
from repro.core.vlsi_processor import VLSIProcessor
from repro.errors import RegionError


def main() -> None:
    # -- allocation strategies ----------------------------------------------
    print("== allocation strategies ==")
    for strategy in ("serpentine", "rectangle"):
        chip = VLSIProcessor(8, 8, with_network=False)
        proc = chip.create_processor("P", n_clusters=8, strategy=strategy)
        span = proc.span()
        print(f"  {strategy:<11} 8 clusters: span {span} hops "
              f"(region {proc.region.path[0]}..{proc.region.path[-1]})")
    print("  (rectangles keep the worst-case chaining distance low;")
    print("   serpentine runs follow the stack fold)")

    # -- churn and fragmentation ---------------------------------------------
    print("\n== churn ==")
    chip = VLSIProcessor(8, 8, with_network=False)
    defrag = Defragmenter(chip)
    rng = np.random.default_rng(7)
    created = 0
    for step in range(120):
        names = list(chip.processors)
        if names and rng.random() < 0.45:
            chip.destroy_processor(names[int(rng.integers(len(names)))])
        else:
            try:
                created += 1
                chip.create_processor(f"p{created}", n_clusters=int(rng.integers(1, 6)))
            except RegionError:
                pass  # no room right now
    print(f"after 120 operations: {len(chip.processors)} processors, "
          f"{chip.free_clusters()} free clusters, "
          f"fragmentation {defrag.fragmentation():.2f}")
    print(chip.render())

    # -- defragmentation ----------------------------------------------------
    print("\n== defragmentation ==")
    want = max(1, chip.free_clusters() - 2)
    try:
        chip.create_processor("BIG", n_clusters=want)
        print(f"a {want}-cluster processor fit without compaction")
        chip.destroy_processor("BIG")
    except RegionError:
        print(f"a {want}-cluster allocation is blocked by fragmentation")
    moves = defrag.compact_until_stable()
    print(f"compaction moved {len(moves)} processors; "
          f"fragmentation now {defrag.fragmentation():.2f}")
    print(chip.render())
    try:
        chip.create_processor("BIG", n_clusters=want)
        print(f"after compaction the {want}-cluster processor fits:")
        print(chip.render())
    except RegionError:
        print("still blocked (active processors pin their clusters)")

    # -- utilisation accounting --------------------------------------------
    print(f"\nutilization: {chip.utilization():.0%} of "
          f"{len(chip.fabric)} clusters")


if __name__ == "__main__":
    main()
