"""Property-based roundtrips across workload representations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.generators import random_dag
from repro.workloads.objectcode import emit_object_code, parse_object_code


class TestObjectCodeRoundtrip:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(3, 40),
        loc=st.floats(0.0, 1.0),
        seed=st.integers(0, 500),
    )
    def test_emit_parse_preserves_structure(self, n, loc, seed):
        graph = random_dag(n, locality=loc, seed=seed)
        again = parse_object_code(emit_object_code(graph))
        assert [(x.node_id, x.operation, x.sources) for x in graph] == [
            (x.node_id, x.operation, x.sources) for x in again
        ]

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(3, 25), seed=st.integers(0, 200))
    def test_roundtrip_preserves_semantics(self, n, seed):
        graph = random_dag(n, locality=0.5, seed=seed)
        again = parse_object_code(emit_object_code(graph))
        inputs = {i: float(i + 1) for i in graph.input_ids()}
        assert graph.execute(inputs=inputs) == again.execute(inputs=inputs)


class TestStreamRoundtrip:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(3, 30), seed=st.integers(0, 200))
    def test_stream_reflects_graph_edges(self, n, seed):
        graph = random_dag(n, locality=0.3, seed=seed)
        stream = graph.to_config_stream()
        assert len(stream) == len(graph)
        for node, element in zip(graph, stream):
            assert element.sink == node.node_id
            assert element.sources == node.sources

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(3, 30), seed=st.integers(0, 200))
    def test_datapath_and_graph_agree(self, n, seed):
        graph = random_dag(n, locality=0.5, seed=seed)
        dp = graph.to_datapath()
        inputs = {i: 2.0 for i in graph.input_ids()}
        assert dp.execute(inputs=inputs) == graph.execute(inputs=inputs)
