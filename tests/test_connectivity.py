"""Differential tests of the connectivity checks and of the averaging
spanning tree against networkx."""
import networkx as nx
import numpy as np
import pytest

from csfm.averaging import spanning_tree_edges
from csfm.community import greedy_merge_trace
from csfm.errors import DisconnectedGraphError, ValidationError

from helpers import make_graph, measurement_graph, random_connected_graph


def random_split_graph(rng, components, isolated):
    """Edges of a graph with ``components`` random connected parts of 2-6
    nodes each plus ``isolated`` edgeless nodes, under a random node order.

    Returns ``(node_count, edges)`` with ``edges`` a list of ``(i, j)``, i < j.
    """
    sizes = [int(rng.integers(2, 7)) for _ in range(components)]
    n = sum(sizes) + isolated
    label = rng.permutation(n)
    edges, start = [], 0
    for size in sizes:
        part = random_connected_graph(rng, size, int(rng.integers(0, size)))
        for a, b in part.edges.tolist():
            i, j = int(label[start + a]), int(label[start + b])
            edges.append((min(i, j), max(i, j)))
        start += size
    return n, edges


def split_graph(seed):
    """A random graph with 1-3 connected parts and 0-2 isolated nodes; half
    of the graphs have a single part and no isolated node."""
    rng = np.random.default_rng(seed)
    if seed % 2:
        return random_split_graph(rng, 1, 0)
    return random_split_graph(rng, int(rng.integers(1, 4)), int(rng.integers(0, 3)))


@pytest.mark.parametrize("seed", range(120))
def test_connectivity_checks_agree_with_networkx(seed):
    n, edges = split_graph(seed)
    reference = nx.Graph()
    reference.add_nodes_from(range(n))
    reference.add_edges_from(edges)
    connected = nx.is_connected(reference)
    assert measurement_graph(n, edges).is_connected() == connected
    if connected:
        assert len(greedy_merge_trace(make_graph(n, edges)).merges) == n - 1
    else:
        with pytest.raises(DisconnectedGraphError):
            greedy_merge_trace(make_graph(n, edges))


def test_connectivity_of_edgeless_graphs():
    assert measurement_graph(1, []).is_connected()
    assert not measurement_graph(3, []).is_connected()
    with pytest.raises(ValidationError, match="no edges"):
        greedy_merge_trace(make_graph(3, []))


@pytest.mark.parametrize("seed", range(60))
def test_spanning_tree_is_a_bfs_tree_of_first_measurements(seed):
    n, edges = split_graph(seed)
    rng = np.random.default_rng([seed, 1])
    # shuffled, so the tree cannot follow the listing order
    pairs = [edges[k] for k in rng.permutation(len(edges))]
    reference = nx.Graph(edges)
    reference.add_nodes_from(range(n))
    depth = nx.single_source_shortest_path_length(reference, 0)
    reached = [0]
    for idx in spanning_tree_edges(measurement_graph(n, pairs)):
        i, j = pairs[idx]
        assert (i in reached) != (j in reached)
        reached.append(j if i in reached else i)
    # every community of the gauge's component, nearest first
    assert sorted(reached) == sorted(depth)
    assert [depth[v] for v in reached] == sorted(depth[v] for v in reached)
