"""Image-match graph: vertices are images, edges link matched pairs.

Adjacency is binary for all community math; stored edge weights (inlier
match counts) are kept for diagnostics only.  Graphs are immutable after
construction.

A graph file is ``{"nodes": [...], "edges": [{"i", "j", "w"}, ...]}``.
``"nodes"`` is a list of strings that is counted, not kept: its length is
the node count, and a saved graph names its nodes ``node_<i>``.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import ValidationError
from .jsonio import column, int_records, parsing, records, write_json


@dataclass(frozen=True)
class EpipolarGraph:
    node_count: int
    edges: np.ndarray  # (m, 2) int, each row an unordered pair i < j
    weights: np.ndarray  # (m,) positive int match counts, 1 when unknown

    def __post_init__(self):
        n = int(self.node_count)
        if n <= 0:
            raise ValidationError("graph needs at least one node")
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        weights = np.asarray(self.weights, dtype=np.int64).reshape(-1)
        if weights.shape[0] != edges.shape[0]:
            raise ValidationError("edge and weight counts differ")
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise ValidationError("edge endpoint out of range")
            if np.any(edges[:, 0] == edges[:, 1]):
                bad = edges[edges[:, 0] == edges[:, 1]][0]
                raise ValidationError(f"self-loop at node {bad[0]}")
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            keys = lo * n + hi
            # strictly increasing keys (every induced subgraph's) are sorted
            # and free of duplicates already
            if not np.all(keys[1:] > keys[:-1]):
                order = np.argsort(keys, kind="stable")
                if np.any(keys[order[1:]] == keys[order[:-1]]):
                    raise ValidationError("duplicate edge (same unordered pair listed twice)")
                lo, hi, weights = lo[order], hi[order], weights[order]
            edges = np.column_stack([lo, hi])
            if np.any(weights <= 0):
                raise ValidationError("edge weights must be strictly positive")
        object.__setattr__(self, "node_count", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "weights", weights)

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])

    def degrees(self) -> np.ndarray:
        """Distinct-neighbor count per node (binary adjacency)."""
        d = np.zeros(self.node_count, dtype=np.int64)
        if self.edges.size:
            np.add.at(d, self.edges[:, 0], 1)
            np.add.at(d, self.edges[:, 1], 1)
        return d


def induced_subgraph(g: EpipolarGraph, nodes) -> EpipolarGraph:
    """Subgraph on ``nodes``, renumbered in ascending order of the old index."""
    nodes = np.unique(np.fromiter(nodes, dtype=np.int64))
    if not nodes.size:
        raise ValidationError("cannot induce a subgraph on an empty node set")
    if nodes[0] < 0 or nodes[-1] >= g.node_count:
        raise ValidationError("subgraph node index out of range")
    mask = np.zeros(g.node_count, dtype=bool)
    mask[nodes] = True
    keep = mask[g.edges[:, 0]] & mask[g.edges[:, 1]]
    remap = np.full(g.node_count, -1, dtype=np.int64)
    remap[nodes] = np.arange(nodes.size)
    return EpipolarGraph(
        node_count=nodes.size,
        edges=remap[g.edges[keep]],
        weights=g.weights[keep],
    )


def component_labels(node_count: int, edges: np.ndarray) -> np.ndarray:
    """Connected-component label per node of an undirected ``(m, 2)`` edge
    list, numbered ``0..K-1`` in order of each component's smallest node.

    Min-label hooking with pointer jumping: every node points at a node of
    its own component with an index no larger than its own.  Each round
    hooks the root of every edge's two ends to the smaller of the two roots,
    then jumps pointers until every node points at a root; once no edge
    joins two roots, each root is its component's smallest node.
    """
    parent = np.arange(node_count)
    u, v = edges[:, 0], edges[:, 1]
    while True:
        pu, pv = parent[u], parent[v]
        if np.array_equal(pu, pv):
            break
        low = np.minimum(pu, pv)
        np.minimum.at(parent, pu, low)
        np.minimum.at(parent, pv, low)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    return np.unique(parent, return_inverse=True)[1]


def connected_components(g: EpipolarGraph) -> list:
    """Node-index lists of the connected components, ordered by smallest
    member, each sorted."""
    labels = component_labels(g.node_count, g.edges)
    # a stable sort keeps each component's nodes ascending
    nodes = np.argsort(labels, kind="stable")
    return [comp.tolist() for comp in np.split(nodes, np.cumsum(np.bincount(labels))[:-1])]


def load_graph(source) -> EpipolarGraph:
    """Parse and validate a graph file (the module docstring gives the schema).

    ``source`` is a file-like object or a path.  All structural violations
    (self-loop, duplicate unordered pair, endpoint out of range, bad weight)
    raise :class:`ValidationError` rather than being silently repaired.
    """
    with parsing(source, "graph file") as obj:
        nodes = obj["nodes"]
        if not isinstance(nodes, list) or not all(isinstance(s, str) for s in nodes):
            raise ValidationError('"nodes" must be a list of strings')
        edges = obj["edges"]
        try:
            # each record is checked as its keys are read, in one pass per column
            if not isinstance(edges, list):
                raise TypeError
            ends = [column(list(map(itemgetter(e), edges)), f"edge {e}", np.int64) for e in "ij"]
            weights = column([r.get("w", 1) for r in edges], "edge w", np.int64)
        except (KeyError, TypeError, AttributeError):
            records(edges, '"edges"', "edge")  # a record that is not an object is named first
            raise
    return EpipolarGraph(
        node_count=len(nodes),
        edges=np.column_stack(ends),
        weights=weights,
    )


def graph_to_json(g: EpipolarGraph) -> dict:
    return {
        "nodes": [f"node_{i}" for i in range(g.node_count)],
        "edges": int_records(i=g.edges[:, 0], j=g.edges[:, 1], w=g.weights),
    }


def save_graph(g: EpipolarGraph, path) -> None:
    write_json(path, graph_to_json(g))


def degree_histogram(g: EpipolarGraph) -> dict:
    d = g.degrees()
    vals, counts = np.unique(d, return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, counts)}
