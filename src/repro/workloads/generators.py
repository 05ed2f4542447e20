"""Workload generators: random DAGs and classic streaming kernels.

The random-DAG generator mirrors the Figure 3 configuration model at the
application level (locality-controlled source selection); the named
kernels are the "streaming application with a large (data) dependency"
class the introduction motivates the VLSI processor with.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.ap.objects import Operation
from repro.workloads.dataflow import DataflowGraph

__all__ = [
    "random_dag",
    "streaming_chain",
    "saxpy_graph",
    "fir_filter_graph",
    "horner_graph",
]

#: Binary operations the random generator draws from.
_BINARY_OPS = (
    Operation.FADD,
    Operation.FSUB,
    Operation.FMUL,
    Operation.MIN,
    Operation.MAX,
)


def random_dag(
    n_nodes: int,
    locality: float = 0.5,
    n_inputs: int = 2,
    seed: Optional[int] = None,
) -> DataflowGraph:
    """A random, always-valid dataflow DAG with controlled locality.

    Node *i*'s sources are drawn from the ``spread`` most recent earlier
    nodes, where ``spread = max(1, round((1-locality) * i))`` — locality 1
    chains neighbours (a deep pipeline), locality 0 reaches anywhere back
    (long dependency distances that stress the stack).

    Parameters
    ----------
    n_nodes:
        Total node count including inputs.
    locality:
        In [0, 1], as in :mod:`repro.csd.locality`.
    n_inputs:
        Leading CONST input nodes.
    """
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    if not 0.0 <= locality <= 1.0:
        raise ValueError("locality must be in [0, 1]")
    if not 1 <= n_inputs < n_nodes:
        raise ValueError("inputs must be in [1, n_nodes)")
    rng = np.random.default_rng(seed)
    graph = DataflowGraph()
    for i in range(n_inputs):
        graph.add(i, Operation.CONST, init_data=float(i + 1))
    for i in range(n_inputs, n_nodes):
        spread = max(1, round((1.0 - locality) * i))
        lo = max(0, i - spread)
        a = int(rng.integers(lo, i))
        b = int(rng.integers(lo, i))
        op = _BINARY_OPS[int(rng.integers(len(_BINARY_OPS)))]
        graph.add(i, op, sources=(a, b))
    return graph


def streaming_chain(depth: int, op: Operation = Operation.FADD) -> DataflowGraph:
    """A straight pipeline: input → op(.., c) → op(.., c) → ...

    The maximally-local datapath: every dependency distance is 1 — the
    shape the S-topology's folded linear array serves without any global
    wiring.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    graph = DataflowGraph()
    graph.add(0, Operation.CONST, init_data=0.0)  # stream input placeholder
    graph.add(1, Operation.CONST, init_data=1.0)  # per-stage coefficient
    prev = 0
    for i in range(2, depth + 2):
        graph.add(i, op, sources=(prev, 1))
        prev = i
    return graph


def saxpy_graph() -> DataflowGraph:
    """``z = a*x + y`` — the canonical streaming kernel."""
    graph = DataflowGraph()
    graph.add(0, Operation.CONST, init_data=2.0)  # a
    graph.add(1, Operation.CONST, init_data=0.0)  # x (stream input)
    graph.add(2, Operation.CONST, init_data=0.0)  # y (stream input)
    graph.add(3, Operation.FMUL, sources=(0, 1))  # a*x
    graph.add(4, Operation.FADD, sources=(3, 2))  # a*x + y
    return graph


def fir_filter_graph(taps: Sequence[float]) -> DataflowGraph:
    """A transposed-form FIR filter over explicit delay-line inputs.

    Inputs are nodes ``0..len(taps)-1`` (the delay line x[n-k]); node IDs
    then alternate multiply and accumulate stages.  Output is the last
    accumulate node.
    """
    if not taps:
        raise ValueError("FIR needs at least one tap")
    graph = DataflowGraph()
    n = len(taps)
    for k in range(n):
        graph.add(k, Operation.CONST, init_data=0.0)  # x[n-k]
    coeff_base = n
    for k, c in enumerate(taps):
        graph.add(coeff_base + k, Operation.CONST, init_data=float(c))
    mul_base = 2 * n
    for k in range(n):
        graph.add(mul_base + k, Operation.FMUL, sources=(k, coeff_base + k))
    acc = mul_base  # first product
    acc_base = 3 * n
    for k in range(1, n):
        graph.add(acc_base + k - 1, Operation.FADD, sources=(acc, mul_base + k))
        acc = acc_base + k - 1
    return graph


def horner_graph(coefficients: Sequence[float]) -> DataflowGraph:
    """Polynomial evaluation by Horner's rule: deep, serial dependency.

    ``p(x) = (((c_n x + c_{n-1}) x + ...) x + c_0)`` — the worst case for
    ILP, the best case for a chained linear datapath.
    """
    if len(coefficients) < 2:
        raise ValueError("need at least two coefficients")
    graph = DataflowGraph()
    graph.add(0, Operation.CONST, init_data=0.0)  # x (stream input)
    coeffs = list(coefficients)
    base = 1
    for i, c in enumerate(coeffs):
        graph.add(base + i, Operation.CONST, init_data=float(c))
    acc = base  # c_n
    nid = base + len(coeffs)
    for i in range(1, len(coeffs)):
        graph.add(nid, Operation.FMUL, sources=(acc, 0))
        graph.add(nid + 1, Operation.FADD, sources=(nid, base + i))
        acc = nid + 1
        nid += 2
    return graph
