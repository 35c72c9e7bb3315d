"""Image-match graph: vertices are images, edges link matched pairs.

Adjacency is binary for all community math; stored edge weights (inlier
match counts) are kept for diagnostics only.  Graphs are immutable after
construction and safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .jsonio import read_json, write_json


@dataclass(frozen=True)
class EpipolarGraph:
    node_count: int
    edges: np.ndarray  # (m, 2) int, each row an unordered pair i < j
    weights: np.ndarray  # (m,) positive int match counts, 1 when unknown
    node_labels: tuple = ()

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
            edges = np.column_stack([lo, hi])
            keys = lo * n + hi
            if np.unique(keys).size != keys.size:
                raise ValidationError("duplicate edge (same unordered pair listed twice)")
            order = np.argsort(keys, kind="stable")
            edges = edges[order]
            weights = weights[order]
            if np.any(weights <= 0):
                raise ValidationError("edge weights must be strictly positive")
        labels = tuple(self.node_labels) if self.node_labels else tuple(f"node_{i}" for i in range(n))
        if len(labels) != n:
            raise ValidationError("node label count differs from node count")
        object.__setattr__(self, "node_count", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "node_labels", labels)

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

    def degree(self, i: int) -> int:
        if not 0 <= i < self.node_count:
            raise ValidationError(f"node index {i} out of range [0, {self.node_count})")
        if not self.edges.size:
            return 0
        return int(np.sum(self.edges[:, 0] == i) + np.sum(self.edges[:, 1] == i))

    def adjacency_lists(self) -> list:
        adj = [[] for _ in range(self.node_count)]
        for i, j in self.edges:
            adj[int(i)].append(int(j))
            adj[int(j)].append(int(i))
        return [sorted(a) for a in adj]


def induced_subgraph(g: EpipolarGraph, nodes) -> tuple[EpipolarGraph, dict]:
    """Subgraph on ``nodes`` plus the old-index -> new-index map."""
    nodes = sorted(set(int(v) for v in nodes))
    if not nodes:
        raise ValidationError("cannot induce a subgraph on an empty node set")
    if nodes[0] < 0 or nodes[-1] >= g.node_count:
        raise ValidationError("subgraph node index out of range")
    index_map = {old: new for new, old in enumerate(nodes)}
    mask = np.zeros(g.node_count, dtype=bool)
    mask[nodes] = True
    keep = mask[g.edges[:, 0]] & mask[g.edges[:, 1]] if g.edges.size else np.zeros(0, dtype=bool)
    remap = np.full(g.node_count, -1, dtype=np.int64)
    remap[nodes] = np.arange(len(nodes))
    sub_edges = remap[g.edges[keep]] if g.edges.size else np.zeros((0, 2), dtype=np.int64)
    sub = EpipolarGraph(
        node_count=len(nodes),
        edges=sub_edges,
        weights=g.weights[keep] if g.edges.size else np.zeros(0, dtype=np.int64),
        node_labels=tuple(g.node_labels[v] for v in nodes),
    )
    return sub, index_map


def connected_components(g: EpipolarGraph) -> list:
    """Node-index sets of the connected components, ordered by smallest member."""
    adj = g.adjacency_lists()
    seen = np.zeros(g.node_count, dtype=bool)
    comps = []
    for start in range(g.node_count):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def load_graph(source) -> EpipolarGraph:
    """Parse and validate a graph file (see :func:`save_graph` for the schema).

    ``source`` is a file-like object or a path.  All structural violations
    (self-loop, duplicate unordered pair, endpoint out of range, bad weight)
    raise :class:`ValidationError` rather than being silently repaired.
    """
    obj = read_json(source)
    if not isinstance(obj, dict) or "nodes" not in obj or "edges" not in obj:
        raise ValidationError('graph file must be an object with "nodes" and "edges"')
    nodes = obj["nodes"]
    if not isinstance(nodes, list) or not all(isinstance(s, str) for s in nodes):
        raise ValidationError('"nodes" must be a list of strings')
    if not isinstance(obj["edges"], list):
        raise ValidationError('"edges" must be a list of edge records')
    edges, weights = [], []
    for rec in obj["edges"]:
        if not isinstance(rec, dict) or "i" not in rec or "j" not in rec:
            raise ValidationError(f'edge record needs "i" and "j", got {rec!r}')
        i, j, w = rec["i"], rec["j"], rec.get("w", 1)
        # bool is an int subclass; a JSON true is not an index or a count
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (i, j, w)):
            raise ValidationError(f"edge indices and weight must be integers, got {rec!r}")
        edges.append((i, j))
        weights.append(w)
    try:
        return EpipolarGraph(
            node_count=len(nodes),
            edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
            weights=np.asarray(weights, dtype=np.int64),
            node_labels=tuple(nodes),
        )
    except OverflowError as exc:
        raise ValidationError(f"edge index or weight out of range: {exc}") from exc


def graph_to_json(g: EpipolarGraph) -> dict:
    return {
        "nodes": list(g.node_labels),
        "edges": [
            {"i": int(i), "j": int(j), "w": int(w)}
            for (i, j), w in zip(g.edges, g.weights)
        ],
    }


def save_graph(g: EpipolarGraph, path) -> None:
    write_json(path, graph_to_json(g))


def degree_histogram(g: EpipolarGraph) -> dict:
    d = g.degrees()
    vals, counts = np.unique(d, return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, counts)}
