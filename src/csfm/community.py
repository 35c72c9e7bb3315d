"""Community detection by greedy modularity maximization.

Starts from singletons, repeatedly merges the edge-connected community pair
with the largest modularity gain, cuts the dendrogram at its modularity peak,
and recursively re-partitions every significant community.  Small communities
are afterwards absorbed into their most strongly connected neighbor so every
group keeps enough images for a stable reconstruction.

The agglomeration is CNM (Clauset, Newman & Moore 2004).  Nearly every merge
grows the community made by the merge before it (Wakita & Tsurumi 2007
describe the same lopsided pattern), so that "hot" community keeps its pair
counts in one numpy row and finds its best pair with one vectorised gain over
its neighbours.  Every other pair waits in a lazy heap, or, while both of its
ends are untouched singletons, in the sorted array of starting pairs.

Before the agglomeration runs on a subgraph, the recursion tries to certify
that it has no significant structure (Newman, PNAS 2006): with the modularity
matrix ``B = A - d d^T / 2m``, every partition of ``n`` nodes has
``Q <= n lambda_max(B) / 2m``.  The certified bound is
``n (lambda + delta) / 2m + eps_q``, where ``lambda`` is the computed top
eigenvalue, ``delta`` covers the eigensolver's backward error and the rounding
of ``B`` itself, and ``eps_q`` covers the rounding in the agglomeration's own
float accumulation of ``Q``.  When it is at most ``q_threshold`` the
agglomeration's peak could not clear the threshold either, so the subgraph is
a leaf exactly as if the agglomeration had run.  The dense eigensolve is paid
only where it can pay off: subgraphs above ``_BOUND_MAX_NODES`` nodes skip
the certificate, and a Rayleigh-Ritz value on four Krylov vectors, a lower
bound on ``lambda_max`` at a fraction of the eigensolve's cost, skips the
eigensolve when it already puts the bound above the threshold.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraphError, ValidationError
from .graph import EpipolarGraph, component_labels, connected_components, induced_subgraph
from .jsonio import column, parsing, scalar, write_json

DEFAULT_Q_THRESHOLD = 0.3
DEFAULT_MIN_COMMUNITY_SIZE = 20

_EPS = np.finfo(float).eps
# Above this many nodes the leaf certificate is not tried.  With one BLAS
# thread, np.linalg.eigvalsh on the dense n x n matrix takes 0.08 s at 1,000
# nodes and 0.81 s at 2,000 (on leading subgraphs of the 2,000-camera match
# graph), while CNM takes 0.01 s on a 505-node, 33,000-edge subgraph and
# 0.05 s on the whole 2,000-node, 133,000-edge graph.
_BOUND_MAX_NODES = 1000


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
        if a.min() != 0 or a.max() != k - 1 or not np.all(np.bincount(a)):
            raise ValidationError("community ids must be contiguous in [0, K) with no empty community")
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "community_count", k)

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        """Renumber arbitrary per-node labels to ``0..K-1`` in order of each
        label's first appearance."""
        _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
        rank = np.empty(first.size, dtype=np.int64)
        rank[np.argsort(first)] = np.arange(first.size)
        return cls(assignment=rank[inverse], community_count=first.size)

    @classmethod
    def from_communities(cls, groups, node_count=None) -> "Partition":
        n = node_count if node_count is not None else sum(len(g) for g in groups)
        members = [np.asarray(g, dtype=np.int64).reshape(-1) for g in groups]
        nodes = np.concatenate(members) if members else np.zeros(0, dtype=np.int64)
        # report the first offending entry in group order, as a scan would
        out_of_range = (nodes < 0) | (nodes >= n)
        repeated = np.ones(nodes.size, dtype=bool)
        repeated[np.unique(nodes, return_index=True)[1]] = False
        bad = np.flatnonzero(out_of_range | repeated)
        if bad.size:
            v = nodes[bad[0]]
            if out_of_range[bad[0]]:
                raise ValidationError(f"node {v} out of range [0, {n})")
            raise ValidationError(f"node {v} assigned to two communities")
        if nodes.size < n:
            raise ValidationError("partition does not cover every node")
        a = np.empty(n, dtype=np.int64)
        a[nodes] = np.repeat(np.arange(len(members)), [m.size for m in members])
        return cls(assignment=a, community_count=len(groups))

    def communities(self) -> list:
        # a stable sort keeps each community's nodes ascending
        order = np.argsort(self.assignment, kind="stable")
        return [grp.tolist() for grp in np.split(order, np.cumsum(self.sizes())[:-1])]

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.community_count)


@dataclass(frozen=True)
class DendrogramTrace:
    """Merge history of the agglomeration: (kept id, retired id, Q after).

    ``heap_pops`` counts the entries the kernel took off its heap plus the
    starting pairs its cursor skipped (see :func:`_merge_trace`)."""

    merges: tuple
    q_peak: float
    peak_index: int
    heap_pops: int = 0

    def __post_init__(self):
        q = np.array(self.merges, dtype=float).reshape(-1, 3)[:, 2]
        bad = np.flatnonzero(~((q >= -1.0) & (q <= 1.0)))  # NaN fails both
        if bad.size:
            qv = self.merges[bad[0]][2]
            raise ValidationError(f"modularity value {qv} outside [-1, 1]")


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


def greedy_merge_trace(g: EpipolarGraph) -> DendrogramTrace:
    """Agglomerate singletons to one community, recording Q after each merge.

    Candidates are edge-connected community pairs only.  A merge of ``(p, q)``
    with ``p < q`` keeps id ``p`` and retires ``q``.  Gains are compared by
    their exact integer numerator, so the largest gain wins and ties resolve
    to the lexicographically smallest pair of current ids.  For graphs below
    about 707k edges, where gains that differ at all differ by more than
    1e-12, this is the same choice as comparing float gains within 1e-12.
    """
    if g.edge_count == 0:
        raise ValidationError("graph has no edges")
    a, b, q, pops = _merge_trace(g.node_count, g.edges)
    # each merge joins two linked communities, so only a connected graph
    # reaches a single community, after n - 1 merges
    if len(q) != g.node_count - 1:
        raise DisconnectedGraphError("graph is disconnected; split by components first")
    peak = int(np.argmax(q))
    return DendrogramTrace(
        merges=tuple(zip(a, b, q)), q_peak=float(q[peak]), peak_index=peak, heap_pops=pops
    )


def _starting_pairs(edges, degrees):
    """Every edge as a starting pair ``(lo, hi)`` with its ``-N``, sorted by
    ``(-N, lo, hi)``: the order of the packed keys, with no key packed."""
    lo, hi = edges[:, 0], edges[:, 1]
    neg = degrees[lo] * degrees[hi] - 2 * len(edges)
    order = np.lexsort((hi, lo, neg))
    return neg[order], lo[order], hi[order]


def _merge_trace(n, edges):
    """CNM agglomeration (Clauset, Newman, Moore 2004) with the growing
    community's pairs in one numpy row.

    Merging communities ``p`` and ``r`` changes modularity by ``N / (2 m^2)``
    with the integer ``N = 2m e_pr - d_p d_r`` (``e_pr`` edges between them,
    ``d`` summed degrees).  Each merge takes the pair with the smallest key
    ``(-N, p, r)``, packed as the Python int ``-N n^2 + p n + r``.

    The community made by the last merge is hot: its counts to every other
    community sit in the length-``n`` row ``row``, nonzero on the ascending
    support ``sup``, so its best pair is one vectorised ``N`` over ``sup``,
    the first index among ties being the smallest pair.  When it absorbs a
    neighbour, that neighbour's counts are added into the row.  The other
    pairs are cold.  Those of two untouched singletons are the starting
    pairs, read in key order by a cursor that skips, in vector chunks, every
    pair with a touched end.  The rest sit in a lazy heap of packed keys: an
    entry is stale, and dropped, unless both ends are free (alive and not
    hot) and ``N`` still matches the counts in ``nbr``.  When a cold pair
    wins, the hot row goes back into ``nbr`` and onto the heap, and the new
    community becomes hot.  Most merges grow the hot community, so the heap
    stays small, and most absorbed neighbours are singletons whose counts
    are read straight from the edge list.

    Returns ``(kept, retired, q_after, pops)``: one list entry per merge, and
    the heap entries popped plus the starting pairs the cursor skipped.
    """
    m = len(edges)
    two_m = 2 * m
    inv2m = 1.0 / two_m
    nn = n * n
    degrees = np.bincount(edges.ravel(), minlength=n)
    # edges are unique i < j rows (EpipolarGraph), so every starting count
    # is 1; targets[starts[v] : starts[v + 1]] are node v's neighbours
    ends = np.concatenate([edges[:, 1], edges[:, 0]])
    targets = np.concatenate([edges[:, 0], edges[:, 1]])[np.argsort(ends, kind="stable")]
    starts = np.concatenate([[0], np.cumsum(degrees)]).tolist()
    # each cold community's counts as a dict, or None for a singleton whose
    # counts are still its edges
    nbr = [None] * n
    start_neg, start_lo, start_hi = _starting_pairs(edges, degrees)

    # Q starts at -sum (d / 2m)^2, accumulated node by node in order
    a = degrees * inv2m
    q = float(np.cumsum(-(a * a))[-1])
    dl = degrees.tolist()  # community degrees, for scalar reads
    deg = degrees.copy()
    free = np.ones(n, dtype=bool)  # alive and not hot
    touched = np.zeros(n, dtype=bool)  # merged at least once
    row = np.zeros(n, dtype=np.int64)
    sup = row[:0]
    hot = -1
    heap = []
    cursor = pops = 0

    def start_key(c):
        return int(start_neg[c]) * nn + int(start_lo[c]) * n + int(start_hi[c])

    def live_start(c):
        """The first starting pair from ``c`` on with both ends untouched."""
        if c < m and (touched[start_lo[c]] or touched[start_hi[c]]):
            step = 64
            while c < m:
                dead = touched[start_lo[c : c + step]] | touched[start_hi[c : c + step]]
                k = int(dead.argmin())
                if not dead[k]:
                    return c + k
                c += dead.size
                step *= 2
        return c

    def counts_of(v):
        """Community ``v``'s counts as a dict, made from its edges if need be."""
        if nbr[v] is None:
            nbr[v] = dict.fromkeys(targets[starts[v] : starts[v + 1]].tolist(), 1)
        return nbr[v]

    def add_to_row(v):
        """Add community ``v``'s counts to free communities into ``row``;
        returns the communities new to its support."""
        counts = nbr[v]
        if counts is None:
            ks = targets[starts[v] : starts[v + 1]]
            ks = ks[free[ks]]
            old = row[ks]
            row[ks] = old + 1
        else:
            ks = np.fromiter(counts, np.int64, len(counts))
            keep = free[ks]
            ks = ks[keep]
            old = row[ks]
            row[ks] = old + np.fromiter(counts.values(), np.int64, len(counts))[keep]
        return ks[old == 0]

    kept, retired, q_after = [], [], []
    while True:
        hot_key = cold_key = None
        if sup.size:
            neg = dl[hot] * deg[sup] - two_m * row[sup]
            i = neg.argmin()
            s = int(sup[i])
            hot_key = int(neg[i]) * nn + (s * n + hot if s < hot else hot * n + s)
        # the cursor's pair and the heap's top, live or not, bound every cold
        # key from below, so the cold side is cleaned only when it may win
        if hot_key is None or (cursor < m and hot_key > start_key(cursor)) or (heap and hot_key > heap[0]):
            c = live_start(cursor)
            pops += c - cursor
            cursor = c
            if cursor < m:
                cold_key = start_key(cursor)
            while heap:
                neg_n, pr = divmod(heap[0], nn)
                p, r = divmod(pr, n)
                if free[p] and free[r] and neg_n == dl[p] * dl[r] - two_m * nbr[p][r]:
                    if cold_key is None or heap[0] < cold_key:
                        cold_key = heap[0]
                    break
                heapq.heappop(heap)
                pops += 1
        if hot_key is not None and (cold_key is None or hot_key < cold_key):
            # the hot community absorbs s; the smaller id is kept
            p, r = (s, hot) if s < hot else (hot, s)
            cnt = int(row[s])
            free[s] = False
            touched[s] = True
            row[s] = 0
            new = add_to_row(s)
            sup = sup[sup != s]
            if new.size:
                sup = np.sort(np.concatenate((sup, new)))
        elif cold_key is not None:
            p, r = divmod(cold_key % nn, n)
            if heap and heap[0] == cold_key:
                heapq.heappop(heap)
                pops += 1
            cnt = 1 if nbr[p] is None else nbr[p][r]
            if hot >= 0:  # hand the hot row back
                counts = row[sup]
                sl, cl = sup.tolist(), counts.tolist()
                nbr[hot] = dict(zip(sl, cl))
                for v, c in zip(sl, cl):
                    counts_of(v)[hot] = c
                for v, k in zip(sl, (dl[hot] * deg[sup] - two_m * counts).tolist()):
                    heapq.heappush(heap, k * nn + (v * n + hot if v < hot else hot * n + v))
                row[sup] = 0
                free[hot] = True
            free[p] = free[r] = False
            touched[p] = touched[r] = True
            sup = np.sort(np.concatenate((add_to_row(p), add_to_row(r))))
        else:
            break
        # Q accumulates this float form of the gain, merge by merge, exactly as
        # the rescanning reference in the tests does, so Q matches it bit for bit
        dq = 2.0 * (cnt * inv2m - (dl[p] * inv2m) * (dl[r] * inv2m))
        nbr[r] = {}
        dl[p] += dl[r]
        deg[p] = dl[p]
        hot = p
        q = q + dq
        kept.append(p)
        retired.append(r)
        q_after.append(q)
    return kept, retired, q_after, pops


def _cut_trace(n: int, trace: DendrogramTrace, upto: int) -> Partition:
    """Partition after merges[0..upto]: the components those merges link."""
    merged = np.array([(a, b) for a, b, _ in trace.merges[: upto + 1]], dtype=np.int64)
    return Partition.from_labels(component_labels(n, merged.reshape(-1, 2)))


def best_partition(
    g: EpipolarGraph, q_threshold: float = DEFAULT_Q_THRESHOLD, counts: dict | None = None
):
    """Cut the dendrogram at its modularity peak.

    Returns ``(partition, q_max, significant)``.  When the peak does not
    clear the threshold the graph has no convincing community structure and
    the all-in-one partition is returned instead.  When ``counts`` is a dict,
    the trace's merges and heap pops are added to its ``cnm_merges`` and
    ``heap_pops``.
    """
    trace = greedy_merge_trace(g)
    if counts is not None:
        counts["cnm_merges"] = counts.get("cnm_merges", 0) + len(trace.merges)
        counts["heap_pops"] = counts.get("heap_pops", 0) + trace.heap_pops
    q_max = trace.q_peak
    significant = q_max > q_threshold
    if not significant:
        part = Partition(assignment=np.zeros(g.node_count, dtype=np.int64), community_count=1)
    else:
        part = _cut_trace(g.node_count, trace, trace.peak_index)
    return part, q_max, significant


def _modularity_matrix(edges: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """Dense ``B = A - d d^T / 2m`` of a simple graph's edges and degrees."""
    b = np.multiply.outer(deg, deg, dtype=float)  # exact: degree products stay below 2**53
    b /= -(2.0 * len(edges))  # in place: one n x n array at a time
    b[edges[:, 0], edges[:, 1]] += 1.0
    b[edges[:, 1], edges[:, 0]] += 1.0
    return b


def _ritz_value(b: np.ndarray) -> float:
    """Largest Rayleigh-Ritz value of ``b`` on four Krylov vectors from a
    fixed start.  Any Ritz value is at most ``lambda_max``, up to rounding."""
    n = b.shape[0]
    basis = np.empty((n, 4))
    v = np.cos(np.arange(n, dtype=float))
    for k in range(4):
        v = v / np.linalg.norm(v)
        basis[:, k] = v
        v = b @ v
    q = np.linalg.qr(basis)[0]
    return float(np.linalg.eigvalsh(q.T @ b @ q)[-1])


def _top_eigenvalue_bound(b: np.ndarray, d_max: int) -> float:
    """``lambda + delta``: at least ``lambda_max`` of the exact modularity
    matrix of which ``b`` is the rounded copy.

    ``lambda`` is the top eigenvalue of ``b`` from ``np.linalg.eigvalsh``
    (LAPACK's symmetric eigensolver).  Its error is at most
    ``p(n) eps ||B||_2`` for a modestly growing ``p`` (LAPACK Users' Guide,
    section 4.7), and rounding ``d_i d_j / 2m`` and the subtraction moves
    ``B`` by at most ``3 eps d_max`` in norm.  With ``||B||_2 <= ||A||_2 +
    ||d||^2 / 2m <= 2 d_max``, ``delta = 2 n^2 eps d_max`` covers both for
    any ``p(n) <= n^2 - 2``; it moves the certificate by about ``2 n^2 eps``,
    under 1e-9 at 1,000 nodes.
    """
    n = b.shape[0]
    return float(np.linalg.eigvalsh(b)[-1]) + 2.0 * n * n * _EPS * d_max


def _certified_modularity(lam_bound: float, n: int, m: int) -> float:
    """``n lam_bound / 2m + eps_q``: at least the agglomeration's float ``Q``
    of any partition of ``n`` nodes and ``m`` edges whose modularity matrix
    has ``lambda_max <= lam_bound``.

    ``eps_q = 16 n eps`` covers the float accumulation of ``Q`` in
    :func:`_merge_trace` (at most about ``(n + 6) eps``: ``n`` starting terms
    and ``n - 1`` gains, whose magnitudes sum to at most 3) and the rounding
    of this sum and of its comparison with the threshold.
    """
    return n * lam_bound / (2.0 * m) + 16.0 * n * _EPS


def _certified_leaf(g: EpipolarGraph, q_threshold: float) -> bool:
    """Whether the modularity bound ``n (lambda + delta) / 2m + eps_q`` rules
    out a significant split of ``g``, so that :func:`best_partition` would
    return it whole."""
    n, m = g.node_count, g.edge_count
    if n > _BOUND_MAX_NODES:
        return False
    deg = np.bincount(g.edges.ravel(), minlength=n)
    b = _modularity_matrix(g.edges, deg)
    if n * _ritz_value(b) / (2.0 * m) > q_threshold:
        return False  # lambda_max is at least the Ritz value: no certificate
    lam = _top_eigenvalue_bound(b, int(deg.max()))
    return _certified_modularity(lam, n, m) <= q_threshold


def recursive_partition(
    g: EpipolarGraph, q_threshold: float = DEFAULT_Q_THRESHOLD, counts: dict | None = None
) -> Partition:
    """Split the graph until no community has significant sub-structure.

    Disconnected inputs are first split into connected components; each leaf
    of the recursion is a community, renumbered contiguously in order of its
    smallest node index.  A subgraph whose modularity bound is at most
    ``q_threshold`` is a leaf without running the agglomeration (see the
    module docstring); the result is the same either way.  When ``counts``
    is a dict it receives ``cnm_runs``, the agglomerations run,
    ``certified_leaves``, the subgraphs the bound settled, and the
    agglomerations' summed ``cnm_merges`` and ``heap_pops``.
    """
    leaves = []
    tally = {"cnm_runs": 0, "certified_leaves": 0, "cnm_merges": 0, "heap_pops": 0}

    def split(nodes, parent, local):
        """Split ``nodes`` of ``g``, which are the nodes ``local`` of the
        subgraph ``parent``; each subgraph is cut from its parent's edges."""
        if len(nodes) < 2:
            leaves.append(nodes)
            return
        sub = induced_subgraph(parent, local)
        if sub.edge_count == 0:
            # only possible for a single node; components are internally connected
            leaves.append(nodes)
            return
        if _certified_leaf(sub, q_threshold):
            tally["certified_leaves"] += 1
            leaves.append(nodes)
            return
        tally["cnm_runs"] += 1
        part, _, significant = best_partition(sub, q_threshold, tally)
        if not significant or part.community_count == 1:
            leaves.append(nodes)
            return
        for group in part.communities():
            split([nodes[v] for v in group], sub, group)

    for comp in connected_components(g):
        split(comp, g, comp)
    if counts is not None:
        counts.update(tally)

    labels = np.empty(g.node_count, dtype=np.int64)
    for leaf_id, leaf in enumerate(leaves):
        labels[leaf] = leaf_id
    return Partition.from_labels(labels)


def build_community_graph(g: EpipolarGraph, p: Partition) -> dict:
    """Cross-edge count of every linked community pair, as ``{(a, b): count}``
    with ``a < b``, in ascending order of ``(a, b)``."""
    if p.assignment.shape[0] != g.node_count:
        raise ValidationError("partition does not cover the graph")
    ends = p.assignment[g.edges]
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    cross = lo != hi
    k = p.community_count
    keys, counts = np.unique(lo[cross] * k + hi[cross], return_counts=True)
    a, b = np.divmod(keys, k)
    return {(i, j): c for i, j, c in zip(a.tolist(), b.tolist(), counts.tolist())}


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
    sizes = {c: int(s) for c, s in enumerate(p.sizes())}
    nbr = {c: {} for c in sizes}
    for (a, b), cnt in build_community_graph(g, p).items():
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

    roots = np.array([resolve(c) for c in range(p.community_count)], dtype=np.int64)
    out = Partition.from_labels(roots[p.assignment])
    # every survivor still under min_size is isolated, or the loop would have folded it
    flagged = np.flatnonzero(out.sizes() < min_size).tolist()
    return out, flagged


def detect_communities(
    g: EpipolarGraph,
    q_threshold: float = DEFAULT_Q_THRESHOLD,
    min_size: int = DEFAULT_MIN_COMMUNITY_SIZE,
    counts: dict | None = None,
):
    """The detect stage: recursive split, then small-community absorption.

    Returns ``(partition, q_max, flagged)``; ``q_max`` is the final
    partition's modularity, 0 for a single community or an edgeless graph.
    ``counts`` is passed to :func:`recursive_partition`.
    """
    part = recursive_partition(g, q_threshold, counts)
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
    with parsing(path, "partition file") as obj:
        groups = [column(g, "partition community", np.int64) for g in obj["communities"]]
        q_max = scalar(obj["q_max"], "partition q_max")
        flagged = column(obj["flagged_isolated"], "partition flagged_isolated", np.int64)
    n = node_count if node_count is not None else sum(len(grp) for grp in groups)
    return Partition.from_communities(groups, node_count=n), q_max, flagged.tolist()
