"""Community detection by greedy modularity maximization.

Starts from singletons, repeatedly merges the edge-connected community pair
with the largest modularity gain, cuts the dendrogram at its modularity peak,
and recursively re-partitions every significant community.  Small communities
are afterwards absorbed into their most strongly connected neighbor so every
group keeps enough images for a stable reconstruction.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraphError, ValidationError
from .graph import EpipolarGraph, connected_components, induced_subgraph
from .jsonio import read_json, write_json

DEFAULT_Q_THRESHOLD = 0.3
DEFAULT_MIN_COMMUNITY_SIZE = 20


@dataclass(frozen=True)
class Partition:
    """Assignment of every node to exactly one community, ids contiguous."""

    assignment: np.ndarray
    community_count: int

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        k = int(self.community_count)
        if a.ndim != 1 or a.size == 0:
            raise ValidationError("assignment must be a non-empty vector")
        present = np.unique(a)
        if present[0] != 0 or present[-1] != k - 1 or present.size != k:
            raise ValidationError("community ids must be contiguous in [0, K) with no empty community")
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "community_count", k)

    @classmethod
    def from_communities(cls, groups, node_count=None) -> "Partition":
        n = node_count if node_count is not None else sum(len(g) for g in groups)
        a = np.full(n, -1, dtype=np.int64)
        for cid, group in enumerate(groups):
            for v in group:
                if a[v] != -1:
                    raise ValidationError(f"node {v} assigned to two communities")
                a[v] = cid
        if np.any(a < 0):
            raise ValidationError("partition does not cover every node")
        return cls(assignment=a, community_count=len(groups))

    def communities(self) -> list:
        groups = [[] for _ in range(self.community_count)]
        for v, c in enumerate(self.assignment):
            groups[int(c)].append(v)
        return groups

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.community_count)


@dataclass(frozen=True)
class DendrogramTrace:
    """Merge history of the agglomeration: (kept id, retired id, Q after)."""

    merges: tuple
    q_peak: float
    peak_index: int

    def __post_init__(self):
        for _, _, qv in self.merges:
            if not np.isfinite(qv) or not -1.0 <= qv <= 1.0:
                raise ValidationError(f"modularity value {qv} outside [-1, 1]")


@dataclass(frozen=True)
class CommunityGraph:
    """Meta-graph over communities; edges weighted by cross-edge counts."""

    community_count: int
    cross_edges: dict  # (p, q) with p < q -> count >= 1
    sizes: np.ndarray


def modularity(g: EpipolarGraph, p: Partition) -> float:
    """Modularity of a partition: intra-edge fraction minus its random-graph
    expectation under the degree-preserving null model.

    Computed as ``sum_c (E_c / m - (D_c / 2m)^2)`` over communities, where
    ``E_c`` counts intra-community edges and ``D_c`` sums member degrees; this
    equals the ordered-pair double sum over ``(A_ij - d_i d_j / 2m)`` within
    communities, divided by ``2m``.
    """
    if p.assignment.shape[0] != g.node_count:
        raise ValidationError("partition does not cover the graph")
    m = g.edge_count
    if m == 0:
        raise ValidationError("modularity is undefined for a graph with no edges")
    labels = p.assignment
    intra = np.zeros(p.community_count, dtype=np.int64)
    ci = labels[g.edges[:, 0]]
    cj = labels[g.edges[:, 1]]
    same = ci == cj
    np.add.at(intra, ci[same], 1)
    dsum = np.zeros(p.community_count, dtype=np.int64)
    np.add.at(dsum, labels, g.degrees())
    q = intra / m - (dsum / (2.0 * m)) ** 2
    return float(q.sum())


def _require_connected(g: EpipolarGraph):
    if g.edge_count == 0:
        raise ValidationError("graph has no edges")
    if len(connected_components(g)) != 1:
        raise DisconnectedGraphError("graph is disconnected; split by components first")


def greedy_merge_trace(g: EpipolarGraph) -> DendrogramTrace:
    """Agglomerate singletons to one community, recording Q after each merge.

    Candidates are edge-connected community pairs only.  A merge of ``(p, q)``
    with ``p < q`` keeps id ``p`` and retires ``q``.  Gains are compared by
    their exact integer numerator, so the largest gain wins and ties resolve
    to the lexicographically smallest pair of current ids.  For graphs below
    about 707k edges, where gains that differ at all differ by more than
    1e-12, this is the same choice as comparing float gains within 1e-12.
    """
    _require_connected(g)
    a, b, q = _merge_trace(g.node_count, g.edges)
    if not q:
        raise DisconnectedGraphError("agglomeration stalled; graph is disconnected")
    peak = int(np.argmax(q))
    return DendrogramTrace(
        merges=tuple(zip(a, b, q)), q_peak=float(q[peak]), peak_index=peak
    )


def _merge_trace(n, edges):
    """CNM agglomeration (Clauset, Newman, Moore 2004) on a lazy max-heap.

    Merging communities ``p`` and ``r`` changes modularity by ``N / (2 m^2)``
    with the integer ``N = 2m e_pr - d_p d_r`` (``e_pr`` edges between them,
    ``d`` summed degrees).  The heap orders pairs by ``(-N, p, r)``, packed
    into one int ``-N n^2 + p n + r`` to keep entries small.  A popped entry
    is stale, and dropped, unless ``p`` and ``r`` are still adjacent and
    ``N`` still matches.  Each merge pushes a fresh entry for every
    neighbour of the kept community, the only pairs whose ``N`` changed.

    Returns ``(kept, retired, q_after)`` lists, one entry per merge.
    """
    two_m = 2 * len(edges)
    inv2m = 1.0 / two_m
    deg = [0] * n
    nbr = [{} for _ in range(n)]
    for u, v in map(np.ndarray.tolist, edges):  # row by row: no m-long lists
        deg[u] += 1
        deg[v] += 1
        nbr[u][v] = nbr[u].get(v, 0) + 1
        nbr[v][u] = nbr[v].get(u, 0) + 1
    nn = n * n
    heap = [
        (deg[p] * deg[r] - two_m * cnt) * nn + p * n + r
        for p in range(n)
        for r, cnt in nbr[p].items()
        if p < r
    ]
    heapq.heapify(heap)

    q = 0.0
    for d in deg:
        a = d * inv2m
        q -= a * a

    kept, retired, q_after = [], [], []
    while heap:
        neg_n, pr = divmod(heapq.heappop(heap), nn)
        p, r = divmod(pr, n)
        cnt = nbr[p].get(r)
        if cnt is None or neg_n != deg[p] * deg[r] - two_m * cnt:
            continue
        # Q accumulates this float form of the gain, merge by merge, exactly as
        # the rescanning reference in the tests does, so Q matches it bit for bit
        dq = 2.0 * (cnt * inv2m - (deg[p] * inv2m) * (deg[r] * inv2m))
        for s, c in nbr[r].items():
            if s != p:
                nbr[p][s] = nbr[s][p] = nbr[p].get(s, 0) + c
                del nbr[s][r]
        del nbr[p][r]
        nbr[r] = {}
        deg[p] += deg[r]
        for s, c in nbr[p].items():
            pair = p * n + s if p < s else s * n + p
            heapq.heappush(heap, (deg[p] * deg[s] - two_m * c) * nn + pair)
        q = q + dq
        kept.append(p)
        retired.append(r)
        q_after.append(q)
    return kept, retired, q_after


def _cut_trace(n: int, trace: DendrogramTrace, upto: int) -> Partition:
    """Partition after replaying merges[0..upto] (union-find replay)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, _ in trace.merges[: upto + 1]:
        parent[find(b)] = find(a)
    roots = [find(v) for v in range(n)]
    relabel = {}
    labels = np.empty(n, dtype=np.int64)
    for v, r in enumerate(roots):
        if r not in relabel:
            relabel[r] = len(relabel)
        labels[v] = relabel[r]
    return Partition(assignment=labels, community_count=len(relabel))


def best_partition(g: EpipolarGraph, q_threshold: float = DEFAULT_Q_THRESHOLD):
    """Cut the dendrogram at its modularity peak.

    Returns ``(partition, q_max, significant)``.  When the peak does not
    clear the threshold the graph has no convincing community structure and
    the all-in-one partition is returned instead.
    """
    trace = greedy_merge_trace(g)
    q_max = trace.q_peak
    significant = q_max > q_threshold
    if not significant:
        part = Partition(assignment=np.zeros(g.node_count, dtype=np.int64), community_count=1)
    else:
        part = _cut_trace(g.node_count, trace, trace.peak_index)
    return part, q_max, significant


def recursive_partition(g: EpipolarGraph, q_threshold: float = DEFAULT_Q_THRESHOLD) -> Partition:
    """Split the graph until no community has significant sub-structure.

    Disconnected inputs are first split into connected components; each leaf
    of the recursion is a community, renumbered contiguously in order of its
    smallest node index.
    """
    leaves = []

    def split(nodes):
        if len(nodes) < 2:
            leaves.append(nodes)
            return
        sub, _ = induced_subgraph(g, nodes)
        if sub.edge_count == 0:
            # only possible for a single node; components are internally connected
            leaves.append(nodes)
            return
        part, _, significant = best_partition(sub, q_threshold)
        if not significant or part.community_count == 1:
            leaves.append(nodes)
            return
        for group in part.communities():
            split([nodes[v] for v in group])

    for comp in connected_components(g):
        split(comp)

    order = np.full(g.node_count, -1, dtype=np.int64)
    labels = np.empty(g.node_count, dtype=np.int64)
    for leaf_id, leaf in enumerate(leaves):
        for v in leaf:
            order[v] = leaf_id
    relabel = {}
    for v in range(g.node_count):
        lid = int(order[v])
        if lid not in relabel:
            relabel[lid] = len(relabel)
        labels[v] = relabel[lid]
    return Partition(assignment=labels, community_count=len(relabel))


def build_community_graph(g: EpipolarGraph, p: Partition) -> CommunityGraph:
    """Count cross edges between every linked community pair."""
    if p.assignment.shape[0] != g.node_count:
        raise ValidationError("partition does not cover the graph")
    cross = {}
    ci = p.assignment[g.edges[:, 0]]
    cj = p.assignment[g.edges[:, 1]]
    for a, b in zip(ci, cj):
        if a == b:
            continue
        key = (int(min(a, b)), int(max(a, b)))
        cross[key] = cross.get(key, 0) + 1
    return CommunityGraph(
        community_count=p.community_count,
        cross_edges=cross,
        sizes=p.sizes(),
    )


def absorb_small(
    g: EpipolarGraph, p: Partition, min_size: int = DEFAULT_MIN_COMMUNITY_SIZE
):
    """Merge undersized communities into their most connected neighbor.

    Processes the smallest qualifying community first (ties: lowest id) and
    recomputes sizes and cross-edge counts after every merge, since each merge
    changes which neighbor is closest.  Undersized communities with no cross
    edges cannot be absorbed; they are left alone and reported.

    Returns ``(partition, flagged)`` where ``flagged`` lists the (renumbered)
    ids of isolated undersized communities.
    """
    if p.assignment.shape[0] != g.node_count:
        raise ValidationError("partition does not cover the graph")
    cg = build_community_graph(g, p)
    sizes = {c: int(s) for c, s in enumerate(cg.sizes)}
    nbr = {c: {} for c in sizes}
    for (a, b), cnt in cg.cross_edges.items():
        nbr[a][b] = cnt
        nbr[b][a] = cnt

    merged_into = {}  # retired id -> surviving id

    while True:
        candidates = [
            c for c, s in sizes.items() if s < min_size and nbr[c]
        ]
        if not candidates:
            break
        c = min(candidates, key=lambda cc: (sizes[cc], cc))
        best_cnt = max(nbr[c].values())
        target = min(w for w, cnt in nbr[c].items() if cnt == best_cnt)
        # fold c into target
        for w, cnt in sorted(nbr[c].items()):
            if w == target:
                continue
            nbr[target][w] = nbr[target].get(w, 0) + cnt
            nbr[w][target] = nbr[target][w]
            del nbr[w][c]
        nbr[target].pop(c, None)
        sizes[target] += sizes[c]
        del sizes[c]
        del nbr[c]
        merged_into[c] = target

    def resolve(c):
        while c in merged_into:
            c = merged_into[c]
        return c

    survivors = sorted(sizes)
    labels = np.empty(g.node_count, dtype=np.int64)
    relabel = {}
    for v in range(g.node_count):
        root = resolve(int(p.assignment[v]))
        if root not in relabel:
            relabel[root] = len(relabel)
        labels[v] = relabel[root]
    out = Partition(assignment=labels, community_count=len(relabel))
    flagged = sorted(
        relabel[c] for c in survivors if sizes[c] < min_size
    )
    return out, flagged


def detect_communities(
    g: EpipolarGraph,
    q_threshold: float = DEFAULT_Q_THRESHOLD,
    min_size: int = DEFAULT_MIN_COMMUNITY_SIZE,
):
    """The detect stage: recursive split, then small-community absorption.

    Returns ``(partition, q_max, flagged)``; ``q_max`` is the final
    partition's modularity, 0 for a single community or an edgeless graph.
    """
    part = recursive_partition(g, q_threshold)
    part, flagged = absorb_small(g, part, min_size)
    q_max = modularity(g, part) if g.edge_count and part.community_count > 1 else 0.0
    return part, q_max, flagged


def partition_to_json(p: Partition, q_max: float, flagged) -> dict:
    return {
        "q_max": float(q_max),
        "communities": [list(map(int, grp)) for grp in p.communities()],
        "flagged_isolated": [int(c) for c in flagged],
    }


def save_partition(path, p: Partition, q_max: float, flagged) -> None:
    write_json(path, partition_to_json(p, q_max, flagged))


def load_partition(path, node_count=None):
    """Returns ``(partition, q_max, flagged)`` from a partition file."""
    obj = read_json(path)
    try:
        groups = obj["communities"]
        q_max = float(obj["q_max"])
        flagged = [int(c) for c in obj.get("flagged_isolated", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed partition file: {exc}") from exc
    n = node_count if node_count is not None else sum(len(grp) for grp in groups)
    return Partition.from_communities(groups, node_count=n), q_max, flagged
