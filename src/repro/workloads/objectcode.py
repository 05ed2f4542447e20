"""Textual object code (paper section 2.4).

"The dependency distance can be observed by an object code showing the
object IDs."  This module defines that observable form: a tiny
line-oriented assembly for configuration streams and object libraries,
used by the examples and handy for debugging datapaths by hand.

Grammar (one statement per line, ``#`` comments)::

    <id> = const <value>          ; a CONST logical object
    <id> = <op> <src> [<src>...]  ; an operator chained to its sources
    <id> = input                  ; an external input (CONST placeholder)

Example::

    0 = input          # x
    1 = const 2.0      # a
    2 = fmul 1 0       # a*x
    3 = input          # y
    4 = fadd 2 3       # a*x + y
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import StreamFormatError
from repro.ap.objects import Operation
from repro.workloads.dataflow import DataflowGraph

__all__ = ["parse_object_code", "emit_object_code"]

_OP_NAMES: Dict[str, Operation] = {op.value: op for op in Operation}


def parse_object_code(text: str) -> DataflowGraph:
    """Parse object code into a :class:`DataflowGraph`.

    Raises
    ------
    StreamFormatError
        On any malformed line, unknown operation, bad arity (checked at
        lowering), or duplicate ID.
    """
    graph = DataflowGraph()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            lhs, rhs = (part.strip() for part in line.split("=", 1))
        except ValueError:
            raise StreamFormatError(
                f"line {lineno}: expected '<id> = <op> ...', got {raw!r}"
            ) from None
        try:
            node_id = int(lhs)
        except ValueError:
            raise StreamFormatError(
                f"line {lineno}: object ID {lhs!r} is not an integer"
            ) from None
        tokens = rhs.split()
        if not tokens:
            raise StreamFormatError(f"line {lineno}: empty right-hand side")
        mnemonic = tokens[0].lower()
        if mnemonic == "input":
            graph.add(node_id, Operation.CONST, init_data=0.0)
            continue
        if mnemonic == "const":
            if len(tokens) != 2:
                raise StreamFormatError(
                    f"line {lineno}: const takes exactly one value"
                )
            graph.add(node_id, Operation.CONST, init_data=_number(tokens[1], lineno))
            continue
        op = _OP_NAMES.get(mnemonic)
        if op is None:
            raise StreamFormatError(
                f"line {lineno}: unknown operation {mnemonic!r}"
            )
        try:
            sources = tuple(int(t) for t in tokens[1:])
        except ValueError:
            raise StreamFormatError(
                f"line {lineno}: sources must be integer object IDs"
            ) from None
        graph.add(node_id, op, sources=sources)
    return graph


def emit_object_code(graph: DataflowGraph) -> str:
    """Render a graph back to object code (inverse of the parser)."""
    lines: List[str] = []
    for node in graph:
        if node.operation is Operation.CONST:
            if node.init_data in (0, 0.0):
                lines.append(f"{node.node_id} = input")
            else:
                lines.append(f"{node.node_id} = const {node.init_data}")
        else:
            srcs = " ".join(str(s) for s in node.sources)
            lines.append(f"{node.node_id} = {node.operation.value} {srcs}".rstrip())
    return "\n".join(lines)


def _number(token: str, lineno: int) -> float:
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        raise StreamFormatError(
            f"line {lineno}: {token!r} is not a number"
        ) from None
