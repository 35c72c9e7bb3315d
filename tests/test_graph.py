import io
import json

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csfm.errors import ValidationError
from csfm.graph import (
    EpipolarGraph,
    component_labels,
    connected_components,
    degree_histogram,
    induced_subgraph,
    load_graph,
    save_graph,
)

from helpers import (
    clique_edges,
    csgraph_component_labels,
    make_graph,
    random_connected_graph,
    unique_sort_edges,
)


def graph_bytes(nodes, edges):
    return io.BytesIO(json.dumps({"nodes": nodes, "edges": edges}).encode())


class TestLoadGraph:
    def test_basic(self):
        g = load_graph(graph_bytes(["a", "b", "c"], [{"i": 0, "j": 1}, {"i": 1, "j": 2, "w": 7}]))
        assert g.node_count == 3
        assert g.edge_count == 2
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert list(g.weights) == [1, 7]

    @pytest.mark.parametrize("nodes", ["abc", ["a", 1], None])
    def test_nodes_must_be_a_list_of_strings(self, nodes):
        with pytest.raises(ValidationError, match="list of strings"):
            load_graph(graph_bytes(nodes, []))

    def test_node_names_are_counted_not_kept(self, tmp_path):
        g = load_graph(graph_bytes(["a", "b", "c"], [{"i": 0, "j": 2}]))
        save_graph(g, tmp_path / "g.json")
        assert json.loads((tmp_path / "g.json").read_text())["nodes"] == ["node_0", "node_1", "node_2"]

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

    @pytest.mark.parametrize("edges", [{}, "", {"i": 0, "j": 1}, "ij"])
    def test_empty_or_iterable_edges_that_are_not_a_list_rejected(self, edges):
        with pytest.raises(ValidationError, match='"edges" must be a list of edge records'):
            load_graph(graph_bytes(["a", "b"], edges))

    @pytest.mark.parametrize("first", [{"j": 1}, {"i": True, "j": 1}, {"i": 0}, {"i": 0, "j": 1, "w": 0.5}])
    @pytest.mark.parametrize("bad", [[0, 1], "e", 3, None])
    def test_a_record_that_is_not_an_object_is_named_before_a_bad_field(self, first, bad):
        with pytest.raises(ValidationError, match="edge record"):
            load_graph(graph_bytes(["a", "b"], [first, bad]))

    def test_the_first_bad_column_is_named(self):
        # column i is read and checked whole before column j is read
        with pytest.raises(ValidationError, match="edge i must be"):
            load_graph(graph_bytes(["a", "b"], [{"i": True, "j": 1}, {"i": 0}]))
        with pytest.raises(ValidationError, match="missing key 'j'"):
            load_graph(graph_bytes(["a", "b"], [{"i": 0, "j": True}, {"i": 0}]))
        with pytest.raises(ValidationError, match="edge w must be"):
            load_graph(graph_bytes(["a", "b"], [{"i": 0, "j": 1, "w": 1.5}, {"i": 0, "j": 1}]))

    def test_a_missing_weight_counts_as_one(self):
        g = load_graph(graph_bytes(["a", "b", "c"], [{"i": 0, "j": 1}, {"i": 1, "j": 2, "w": 4}]))
        assert g.weights.tolist() == [1, 4]

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
        assert g.degrees().tolist() == [1, 2, 1]

    def test_isolated(self):
        g = make_graph(3, [(0, 1)])
        assert g.degrees()[2] == 0

    def test_complete_graph(self):
        g = make_graph(5, clique_edges(range(5)))
        assert g.degrees().tolist() == [4] * 5

    def test_histogram(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert degree_histogram(g) == {1: 2, 2: 1}


class TestInducedSubgraph:
    def test_k4_to_k3(self):
        g = make_graph(4, clique_edges(range(4)))
        sub = induced_subgraph(g, {0, 1, 2})
        assert sub.node_count == 3
        assert sub.edge_count == 3
        assert sub.edges.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_path_ends_only(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        sub = induced_subgraph(g, {0, 2})
        assert sub.node_count == 2
        assert sub.edge_count == 0
        assert sub.edges.shape == (0, 2)

    def test_identity(self):
        g = make_graph(5, [(0, 1), (1, 2), (3, 4)])
        sub = induced_subgraph(g, range(5))
        assert sub.edge_count == g.edge_count
        assert np.array_equal(sub.edges, g.edges)

    def test_empty_set_rejected(self):
        g = make_graph(2, [(0, 1)])
        with pytest.raises(ValidationError):
            induced_subgraph(g, set())

    def test_out_of_range_rejected(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        for nodes in ([0, 3], [-1, 1]):
            with pytest.raises(ValidationError, match="out of range"):
                induced_subgraph(g, nodes)

    def test_edgeless_graph(self):
        sub = induced_subgraph(make_graph(3, []), [2, 0])
        assert sub.node_count == 2
        assert sub.edges.shape == (0, 2)


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

    @pytest.mark.parametrize("seed", range(120))
    def test_matches_networkx(self, seed):
        # sparse random graphs on shuffled labels: many components, isolated
        # nodes, and components whose smallest member is not their first edge's
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        p = float(rng.uniform(0.0, 3.0 / n))
        perm = rng.permutation(n)
        pairs = [
            (int(perm[i]), int(perm[j]))
            for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]
        g = make_graph(n, pairs)
        oracle = nx.Graph()
        oracle.add_nodes_from(range(n))
        oracle.add_edges_from(pairs)
        expected = sorted(sorted(c) for c in nx.connected_components(oracle))
        assert connected_components(g) == expected


def _same_partition(labels, oracle):
    # one label per oracle label and back: the two partitions are equal
    pairs = np.unique(np.column_stack([labels, oracle]), axis=0)
    return pairs.shape[0] == np.unique(labels).size == np.unique(oracle).size


def _component_label_cases():
    rng = np.random.default_rng(31)
    yield "empty", 1, np.zeros((0, 2), np.int64)
    yield "isolated", 7, np.zeros((0, 2), np.int64)
    for n in (2, 9, 200, 1001):
        perm = rng.permutation(n)  # relabelled, so no order of the nodes helps
        path = np.column_stack([perm[:-1], perm[1:]])
        yield f"path-{n}", n, path
        yield f"reversed-path-{n}", n, np.column_stack([np.arange(n - 1, 0, -1), np.arange(n - 2, -1, -1)])
        if n > 2:
            yield f"ring-{n}", n, np.vstack([path, [[perm[-1], perm[0]]]])
    yield "rings-and-isolated", 60, np.array(
        [(i, (i + 1) % 20) for i in range(20)] + [(20 + i, 20 + (i + 1) % 25) for i in range(25)])
    for k in range(40):
        n = int(rng.integers(1, 300))
        m = int(rng.integers(0, 2 * n))
        edges = rng.integers(0, n, size=(m, 2))
        yield f"random-{k}", n, edges[edges[:, 0] != edges[:, 1]]


@pytest.mark.parametrize("name, n, edges", list(_component_label_cases()),
                         ids=[case[0] for case in _component_label_cases()])
def test_component_labels_match_csgraph(name, n, edges):
    labels = component_labels(n, edges)
    assert labels.shape == (n,)
    assert _same_partition(labels, csgraph_component_labels(n, edges))
    # numbered 0..K-1 in order of each component's smallest node
    first = np.unique(labels, return_index=True)[1]
    assert np.array_equal(labels[np.sort(first)], np.arange(first.size))


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


@pytest.mark.parametrize(
    "layout", ["sorted", "shuffled", "sorted-duplicate", "sorted-reversed", "shuffled-reversed-duplicate"]
)
@pytest.mark.parametrize("seed", range(25))
def test_edge_validation_matches_unique_then_sort(layout, seed):
    # sorted input skips the sort; anything else is sorted once and checked
    # for neighbouring duplicates; both must agree with np.unique + argsort,
    # in the edges, the weights and the first error raised
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
    edges = pairs[np.sort(rng.choice(len(pairs), size=int(rng.integers(1, len(pairs) + 1)), replace=False))]
    weights = rng.integers(1, 9, size=len(edges))
    if layout.startswith("shuffled"):
        order = rng.permutation(len(edges))
        edges, weights = edges[order], weights[order]
    if layout.endswith("duplicate"):
        dup = int(rng.integers(len(edges)))
        at = int(rng.integers(len(edges) + 1)) if layout.startswith("shuffled") else dup
        edges = np.insert(edges, at, edges[dup], axis=0)
        weights = np.insert(weights, at, weights[dup])
    if "reversed" in layout:
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip][:, ::-1]
    if seed % 5 == 4:  # a bad weight too: the duplicate still wins
        weights[int(rng.integers(len(weights)))] = 0
    expected = unique_sort_edges(n, edges, weights)
    if isinstance(expected, str):
        with pytest.raises(ValidationError) as err:
            EpipolarGraph(node_count=n, edges=edges, weights=weights)
        assert str(err.value) == expected
    else:
        g = EpipolarGraph(node_count=n, edges=edges, weights=weights)
        for got, want in zip((g.edges, g.weights), expected):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
