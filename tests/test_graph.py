import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csfm.errors import ValidationError
from csfm.graph import (
    EpipolarGraph,
    connected_components,
    degree_histogram,
    induced_subgraph,
    load_graph,
)

from helpers import clique_edges, make_graph, random_connected_graph


def graph_bytes(nodes, edges):
    return io.BytesIO(json.dumps({"nodes": nodes, "edges": edges}).encode())


class TestLoadGraph:
    def test_basic(self):
        g = load_graph(graph_bytes(["a", "b", "c"], [{"i": 0, "j": 1}, {"i": 1, "j": 2, "w": 7}]))
        assert g.node_count == 3
        assert g.edge_count == 2
        assert g.node_labels == ("a", "b", "c")
        assert list(g.weights) == [1, 7]

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self-loop"):
            load_graph(graph_bytes(["a", "b", "c"], [{"i": 2, "j": 2}]))

    def test_duplicate_unordered_pair_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            load_graph(graph_bytes(["a", "b"], [{"i": 0, "j": 1}, {"i": 1, "j": 0}]))

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            load_graph(graph_bytes(["a", "b"], [{"i": 0, "j": 5}]))

    def test_bad_weight(self):
        with pytest.raises(ValidationError):
            load_graph(graph_bytes(["a", "b"], [{"i": 0, "j": 1, "w": 0}]))
        with pytest.raises(ValidationError):
            load_graph(graph_bytes(["a", "b"], [{"i": 0, "j": 1, "w": 1.5}]))

    def test_not_json(self):
        with pytest.raises(ValidationError, match="JSON"):
            load_graph(io.BytesIO(b"not json"))

    def test_missing_keys(self):
        with pytest.raises(ValidationError):
            load_graph(io.BytesIO(b"{}"))

    def test_edges_not_a_list(self):
        with pytest.raises(ValidationError, match="edges"):
            load_graph(io.BytesIO(b'{"nodes": ["a", "b"], "edges": 5}'))

    @pytest.mark.parametrize("edge", [{"i": 0, "j": 1, "w": True}, {"i": True, "j": 1}])
    def test_bool_is_not_an_integer(self, edge):
        with pytest.raises(ValidationError, match="integers"):
            load_graph(graph_bytes(["a", "b"], [edge]))

    @pytest.mark.parametrize("edge", [{"i": 0, "j": 1.7}, {"i": "0", "j": 1}])
    def test_non_integer_index_rejected(self, edge):
        with pytest.raises(ValidationError, match="integers"):
            load_graph(graph_bytes(["a", "b", "c"], [edge]))

    def test_edge_record_not_an_object(self):
        with pytest.raises(ValidationError, match="edge record"):
            load_graph(graph_bytes(["a", "b"], [[0, 1]]))

    @pytest.mark.parametrize("edge", [{"i": 0, "j": 2**70}, {"i": 0, "j": 1, "w": 2**63}])
    def test_integer_beyond_int64_rejected(self, edge):
        with pytest.raises(ValidationError, match="out of range"):
            load_graph(graph_bytes(["a", "b"], [edge]))

    def test_nan_weight_rejected(self):
        with pytest.raises(ValidationError, match="JSON"):
            load_graph(io.BytesIO(b'{"nodes": ["a", "b"], "edges": [{"i": 0, "j": 1, "w": NaN}]}'))


class TestDegree:
    def test_path_center(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert g.degree(1) == 2
        assert g.degree(0) == 1

    def test_isolated(self):
        g = make_graph(3, [(0, 1)])
        assert g.degree(2) == 0

    def test_complete_graph(self):
        g = make_graph(5, clique_edges(range(5)))
        assert all(g.degree(i) == 4 for i in range(5))

    def test_out_of_range(self):
        g = make_graph(2, [(0, 1)])
        with pytest.raises(ValidationError):
            g.degree(2)

    def test_histogram(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert degree_histogram(g) == {1: 2, 2: 1}


class TestInducedSubgraph:
    def test_k4_to_k3(self):
        g = make_graph(4, clique_edges(range(4)))
        sub, idx = induced_subgraph(g, {0, 1, 2})
        assert sub.node_count == 3
        assert sub.edge_count == 3
        assert idx == {0: 0, 1: 1, 2: 2}

    def test_path_ends_only(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        sub, idx = induced_subgraph(g, {0, 2})
        assert sub.node_count == 2
        assert sub.edge_count == 0
        assert idx == {0: 0, 2: 1}

    def test_identity(self):
        g = make_graph(5, [(0, 1), (1, 2), (3, 4)])
        sub, _ = induced_subgraph(g, range(5))
        assert sub.edge_count == g.edge_count
        assert np.array_equal(sub.edges, g.edges)

    def test_empty_set_rejected(self):
        g = make_graph(2, [(0, 1)])
        with pytest.raises(ValidationError):
            induced_subgraph(g, set())


class TestConnectedComponents:
    def test_two_triangles(self):
        g = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert connected_components(g) == [[0, 1, 2], [3, 4, 5]]

    def test_connected(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert connected_components(g) == [[0, 1, 2, 3]]

    def test_isolated_nodes(self):
        g = EpipolarGraph(node_count=5, edges=np.zeros((0, 2), dtype=np.int64), weights=np.zeros(0, dtype=np.int64))
        assert connected_components(g) == [[0], [1], [2], [3], [4]]


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10), st.integers(0, 2**31 - 1))
def test_degree_sum_is_twice_edge_count(n, extra, seed):
    g = random_connected_graph(np.random.default_rng(seed), n, extra)
    assert int(g.degrees().sum()) == 2 * g.edge_count


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2**31 - 1))
def test_components_partition_nodes(n, seed):
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2]
    g = make_graph(n, pairs)
    comps = connected_components(g)
    flat = sorted(v for comp in comps for v in comp)
    assert flat == list(range(n))
