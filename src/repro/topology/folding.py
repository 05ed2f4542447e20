"""Serpentine folding of the linear stack onto the 2-D grid (Figure 4(c)).

The adaptive processor's array is strictly linear (it is a stack), but
silicon is planar: "The linear network is folded into a 2D arrangement".
The fold used by the paper's conceptual layout is the boustrophedon
(serpentine, "S"-shaped) walk: row 0 left-to-right, row 1 right-to-left,
and so on — which is what gives the S-topology its name and guarantees
that *consecutive linear positions are always grid-adjacent*, so a stack
shift never needs a long wire.

A processor is a run of consecutive clusters along this fold (§3.1), so
"where is the earliest, or the longest, free fold run?" is the question
allocation (§3.3), relocation and defragmentation (§5) all ask.  It is
answered here once, on fold-order bitmasks — bit ``i`` is the cluster at
fold position ``i`` (:func:`fold_mask`; :meth:`STopology.free_mask
<repro.topology.s_topology.STopology.free_mask>` builds the free one):
:func:`run_starts`, :func:`first_run` and :func:`longest_run`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "serpentine_fold",
    "serpentine_unfold",
    "serpentine_order",
    "fold_path_is_adjacent",
    "fold_mask",
    "run_starts",
    "first_run",
    "longest_run",
]

Coord = Tuple[int, int]


def serpentine_fold(index: int, cols: int) -> Coord:
    """Map a linear stack index to its ``(row, col)`` grid position.

    Even rows run left→right, odd rows right→left.

    Parameters
    ----------
    index:
        Position in the linear (stack) order, 0 = top of stack.
    cols:
        Width of the grid.
    """
    if cols < 1:
        raise ValueError("grid must have at least one column")
    if index < 0:
        raise ValueError("linear index cannot be negative")
    row, offset = divmod(index, cols)
    col = offset if row % 2 == 0 else cols - 1 - offset
    return (row, col)


def serpentine_unfold(coord: Coord, cols: int) -> int:
    """Inverse of :func:`serpentine_fold`: grid position → linear index."""
    row, col = coord
    if cols < 1:
        raise ValueError("grid must have at least one column")
    if row < 0 or not 0 <= col < cols:
        raise ValueError(f"coordinate {coord} outside a {cols}-wide grid")
    offset = col if row % 2 == 0 else cols - 1 - col
    return row * cols + offset


def serpentine_order(rows: int, cols: int) -> List[Coord]:
    """The full serpentine walk over a ``rows × cols`` grid, in stack order."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    return [serpentine_fold(i, cols) for i in range(rows * cols)]


def fold_path_is_adjacent(path: Sequence[Coord]) -> bool:
    """Check the defining property of a valid fold: every consecutive pair
    of positions is Manhattan-adjacent (distance exactly 1).

    This is the invariant the S-topology needs so that chain switches only
    ever join neighbouring clusters.
    """
    for (r1, c1), (r2, c2) in zip(path, path[1:]):
        if abs(r1 - r2) + abs(c1 - c2) != 1:
            return False
    return True


def fold_mask(fold: Dict[Coord, int], coords: Iterable[Coord]) -> int:
    """The fold-order bitmask of ``coords`` (bit ``fold[coord]`` set)."""
    bits = 0
    for coord in coords:
        bits |= 1 << fold[coord]
    return bits


def run_starts(bits: int, n: int) -> int:
    """The mask of every start of ``n >= 1`` consecutive set bits in
    ``bits``: bit ``i`` is set when bits ``i .. i + n - 1`` all are.

    Once every set bit starts a run of ``span``, ``bits & (bits >> k)``
    (``k <= span``) keeps the starts of runs ``span + k``: doubling
    ``span``, then one last shift, reaches ``n`` in about ``log2(n)``
    shift-ANDs.
    """
    span = 1
    while 2 * span <= n:
        bits &= bits >> span
        span *= 2
    if span < n:
        bits &= bits >> (n - span)
    return bits


def first_run(bits: int, n: int) -> Optional[int]:
    """Lowest start of ``n`` consecutive set bits in ``bits``, or ``None``.

    On the free mask this is the earliest fold run of ``n`` free
    clusters — the run :meth:`ClusterAllocator.find_serpentine
    <repro.core.allocation.ClusterAllocator.find_serpentine>` picks, the
    compaction schedule moves a processor to and the exact search
    branches on.  It is the lowest bit of :func:`run_starts`.  An empty
    run (``n < 1``) starts at 0.
    """
    if n < 1:
        return 0
    starts = run_starts(bits, n)
    if not starts:
        return None
    return (starts & -starts).bit_length() - 1


def longest_run(bits: int) -> int:
    """Length of the longest run of consecutive set bits in ``bits``
    (0 when none is set): the longest free fold run, on the free mask."""
    return max(map(len, bin(bits)[2:].split("0")))
