"""Shared test fixtures: graph builders and independent oracles.

The oracles here deliberately take the dumbest correct route (dense double
sums, exhaustive enumeration) so they share no code path with the library.
"""
from __future__ import annotations

import heapq

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import sgemm, ssyrk
from scipy.sparse import csgraph
from scipy.spatial import cKDTree

from csfm.alignment import (
    DEFAULT_CONFIDENCE,
    MIN_SAMPLE,
    default_inlier_threshold,
    horn_similarity,
)
from csfm.community import Partition, best_partition
from csfm.errors import DegenerateGeometryError, NumericError, RansacFailureError, ValidationError
from csfm.graph import EpipolarGraph, connected_components, induced_subgraph
from csfm.measurements import MeasurementGraph
from csfm.merging import (
    REFINE_MAX_ITERATIONS,
    REFINE_REL_TOL,
    MergedModel,
    _require_transforms,
    merge_reconstructions,
)
from csfm.reconstruction import Reconstruction, covisible_pairs
from csfm.rotations import (
    IDENTITY_QUAT,
    exp_rotation,
    geodesic_angle,
    matrix_to_quat,
    quat_canonical,
    quat_conjugate,
    quat_multiply,
    quat_to_matrix,
    random_quat,
)
from csfm.sim3 import Sim3


# the worlds of the perfbench workloads (perfbench/run.py)
BENCH_WORLDS = {
    "large-graph": dict(camera_count=450, point_count=6000, cluster_count=6,
                        noise_sigma=1e-3, outlier_fraction=0.0),
    "dense-points": dict(camera_count=180, point_count=27000, cluster_count=4,
                         cluster_spread=1.5, noise_sigma=1e-3, outlier_fraction=0.0),
    "staged-cli": dict(camera_count=400, point_count=10000, cluster_count=16,
                       noise_sigma=1e-3, outlier_fraction=0.2),
}


def make_graph(n, edges):
    edges = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    return EpipolarGraph(
        node_count=n, edges=edges, weights=np.ones(edges.shape[0], dtype=np.int64)
    )


def clique_edges(nodes):
    nodes = list(nodes)
    return [(nodes[i], nodes[j]) for i in range(len(nodes)) for j in range(i + 1, len(nodes))]


def unique_sort_edges(n, edges, weights):
    """Edge validation as ``np.unique`` on all keys, then a stable argsort:
    reference for the sort-once check in ``EpipolarGraph``.  Returns the
    sorted ``(edges, weights)``, or the ``ValidationError`` message."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.int64).reshape(-1)
    if edges.min() < 0 or edges.max() >= n:
        return "edge endpoint out of range"
    if np.any(edges[:, 0] == edges[:, 1]):
        return f"self-loop at node {edges[edges[:, 0] == edges[:, 1]][0][0]}"
    lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
    keys = lo * n + hi
    if np.unique(keys).size != keys.size:
        return "duplicate edge (same unordered pair listed twice)"
    order = np.argsort(keys, kind="stable")
    if np.any(weights[order] <= 0):
        return "edge weights must be strictly positive"
    return np.column_stack([lo, hi])[order], weights[order]


def unique_sort_ids(camera_ids, track_ids):
    """Reconstruction id validation as ``np.unique`` on each id column, then
    a stable argsort of each: reference for the sort-once check in
    ``Reconstruction``.  Returns the camera and track sorting orders, or the
    ``ValidationError`` message."""
    for ids, what in ((camera_ids, "camera"), (track_ids, "track")):
        if np.unique(ids).size != ids.size:
            return f"duplicate {what} id in reconstruction"
    return np.argsort(camera_ids, kind="stable"), np.argsort(track_ids, kind="stable")


def measurement_graph(k, rows):
    """A ``MeasurementGraph`` of ``k`` communities from ``(i, j[, s[, r[,
    t]]])`` rows; ``s`` defaults to 1, ``r`` to the identity rotation and
    ``t`` to unset (a graph's translations are all set or all unset)."""
    rows = [tuple(row) + (1.0, IDENTITY_QUAT, None)[len(row) - 2 :] for row in rows]
    i, j, s, r, t = zip(*rows) if rows else ((), (), (), np.zeros((0, 4)), ())
    has_t = any(v is not None for v in t)
    return MeasurementGraph(
        k, i, j, s, np.array(r, dtype=float), np.zeros(len(rows), dtype=np.int64),
        np.array(t) if has_t else None,
    )


def record_checks(k, i, j, s, q, t=None):
    """Measurement validation one record at a time: each record's own checks
    (ends, scale, rotation, translation) in row order, then the community
    count, then the graph's (endpoint range, duplicate pair) in row order.

    Reference for the vectorised checks in ``MeasurementGraph``.  Returns the
    first ``ValidationError`` message, or ``None`` for a valid table.
    """
    try:
        for r in range(len(i)):
            if i[r] == j[r]:
                raise ValidationError("measurement endpoints must differ")
            if i[r] > j[r]:
                raise ValidationError("measurements are canonicalized to i < j")
            if not (np.isfinite(s[r]) and s[r] > 0):
                raise ValidationError(f"measured scale must be positive, got {s[r]}")
            r_ij = quat_canonical(q[r])
            if r_ij.shape != (4,):
                raise ValidationError(f"measured rotation must be one quaternion, not {r_ij.shape}")
            if t is not None and not np.all(np.isfinite(t[r])):
                raise ValidationError("measured translation must be finite")
        if k <= 0:
            raise ValidationError("community count must be positive")
        seen = set()
        for a, b in zip(i.tolist(), j.tolist()):
            if not 0 <= a < k or not 0 <= b < k:
                raise ValidationError(f"measurement endpoint out of range: ({a}, {b})")
            if (a, b) in seen:
                raise ValidationError(f"duplicate measurement for pair {(a, b)}")
            seen.add((a, b))
    except ValidationError as exc:
        return str(exc)
    return None


def sparse_weighted_ls(A, rhs, weights) -> np.ndarray:
    """``argmin sum_k w_k (A x - b)_k^2`` for a 1-D right-hand side, through
    the scipy.sparse normal equations and a sparse LU factorisation.

    Reference for the dense Cholesky solve of ``csfm.l1.solve_weighted_ls``.
    """
    A = sp.csr_matrix(A)
    w = np.asarray(weights, dtype=float)
    N = (A.T @ A.multiply(w[:, None]).tocsr()).tocsc()
    return spla.splu(N).solve(A.T @ (w * rhs))


def loop_averaging_residuals(mg, mg_t, transforms: dict) -> dict:
    """The ``average`` stage's report statistics, one measurement at a time.

    Reference for ``csfm.averaging.averaging_residuals``: L1 residuals of the
    scale and rotation problems over ``mg`` and of the translation problem
    over ``mg_t`` (the recomputed translations) at the averaged transforms.
    """
    log_s = np.log([tr.s for tr in transforms.values()])
    scale = [
        abs(np.log(s) - (log_s[i] - log_s[j]))
        for i, j, s in zip(mg.i.tolist(), mg.j.tolist(), mg.s.tolist())
    ]
    rotation = [
        geodesic_angle(quat_multiply(quat_conjugate(transforms[i].q), transforms[j].q), r)
        for i, j, r in zip(mg.i.tolist(), mg.j.tolist(), mg.q)
    ]
    translation = [
        float(np.abs(t - (transforms[j].t - transforms[i].t)).sum())
        for i, j, t in zip(mg_t.i.tolist(), mg_t.j.tolist(), mg_t.t)
    ]
    return {
        "scale_l1_residual": float(np.sum(scale)),
        "rotation_l1_residual_rad": float(np.sum(rotation)),
        "kept_pairs": len(translation),
        "translation_l1_residual": float(np.sum(translation)),
    }


def brute_modularity(g: EpipolarGraph, labels) -> float:
    """Literal ordered-pair double sum: (1/2m) sum_ij (A_ij - d_i d_j / 2m) delta."""
    n = g.node_count
    A = np.zeros((n, n))
    for i, j in g.edges:
        A[i, j] = 1.0
        A[j, i] = 1.0
    d = A.sum(axis=1)
    m = g.edges.shape[0]
    q = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                q += A[i, j] - d[i] * d[j] / (2.0 * m)
    return q / (2.0 * m)


def set_partitions(items):
    """All set partitions of ``items`` (Bell-number many)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1 :]
        yield [[first]] + part


def exhaustive_max_modularity(g: EpipolarGraph) -> float:
    best = -np.inf
    labels = np.empty(g.node_count, dtype=np.int64)
    for part in set_partitions(range(g.node_count)):
        for cid, group in enumerate(part):
            for v in group:
                labels[v] = cid
        best = max(best, brute_modularity(g, labels))
    return best


def random_connected_graph(rng, n, extra_edges=0):
    """Random spanning tree plus ``extra_edges`` distinct chords."""
    edges = set()
    order = rng.permutation(n)
    for k in range(1, n):
        a = int(order[k])
        b = int(order[rng.integers(0, k)])
        edges.add((min(a, b), max(a, b)))
    attempts = 0
    while len(edges) < n - 1 + extra_edges and attempts < 50 * (extra_edges + 1):
        attempts += 1
        a, b = rng.integers(0, n, size=2)
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    return make_graph(n, sorted(edges))


def planted_graph(rng, sizes, p_in, p_out):
    """Blocks of the given sizes, each pair inside a block linked with
    probability ``p_in`` and across blocks with ``p_out``, plus the path
    ``0-1-...-(n-1)`` so the graph is connected."""
    labels = np.repeat(np.arange(len(sizes)), sizes)
    n = labels.size
    i, j = np.triu_indices(n, 1)
    p = np.where(labels[i] == labels[j], p_in, p_out)
    keep = (rng.random(i.size) < p) | (j == i + 1)
    return make_graph(n, np.column_stack([i[keep], j[keep]]))


def split_recursively(g: EpipolarGraph, q_threshold):
    """Recursive greedy-modularity split that runs the agglomeration on every
    subgraph, as ``recursive_partition`` did before its leaf certificate.

    Reference for ``csfm.community.recursive_partition``.  Returns the
    partition and the ``q_max`` of every agglomeration run, in run order.
    """
    leaves, peaks = [], []

    def split(nodes):
        if len(nodes) < 2:
            leaves.append(nodes)
            return
        sub = induced_subgraph(g, nodes)
        if sub.edge_count == 0:
            leaves.append(nodes)
            return
        part, q_max, significant = best_partition(sub, q_threshold)
        peaks.append(q_max)
        if not significant or part.community_count == 1:
            leaves.append(nodes)
            return
        groups = [[] for _ in range(part.community_count)]
        for v, c in enumerate(part.assignment.tolist()):
            groups[c].append(v)
        for group in groups:
            split([nodes[v] for v in group])

    for comp in connected_components(g):
        split(comp)
    labels = np.empty(g.node_count, dtype=np.int64)
    for leaf_id, leaf in enumerate(leaves):
        labels[leaf] = leaf_id
    return Partition.from_labels(labels), peaks


def union_find_cut(n, trace, upto):
    """Partition after replaying ``trace.merges[0..upto]`` into a union-find:
    reference for ``csfm.community._cut_trace``."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, _ in trace.merges[: upto + 1]:
        parent[find(b)] = find(a)
    return Partition.from_labels([find(v) for v in range(n)])


def scan_merge_trace(g: EpipolarGraph):
    """Greedy agglomeration by rescanning every linked pair on each merge.

    O(n m) reference for the agglomeration kernel: scans pairs in ascending ``(p, q)``
    order and replaces the incumbent only for a float gain larger by more
    than 1e-12, so ties go to the smallest pair; ``(p, q)`` keeps ``p``.
    Returns ``((kept, retired, q_after), ...)`` like ``DendrogramTrace.merges``.
    """
    n = g.node_count
    inv2m = 1.0 / (2.0 * g.edge_count)
    dsum = [0] * n
    nbr = [dict() for _ in range(n)]
    for u, v in g.edges.tolist():
        dsum[u] += 1
        dsum[v] += 1
        nbr[u][v] = nbr[u].get(v, 0) + 1
        nbr[v][u] = nbr[v].get(u, 0) + 1
    q = 0.0
    for i in range(n):
        a = dsum[i] * inv2m
        q -= a * a
    merges = []
    for _ in range(n - 1):
        best = None
        for p in range(n):
            for r in sorted(nbr[p]):
                if r <= p:
                    continue
                dq = 2.0 * (nbr[p][r] * inv2m - (dsum[p] * inv2m) * (dsum[r] * inv2m))
                if best is None or dq > best[2] + 1e-12:
                    best = (p, r, dq)
        if best is None:
            break
        p, r, dq = best
        for s in sorted(nbr[r]):
            if s != p:
                nbr[p][s] = nbr[p].get(s, 0) + nbr[r][s]
                nbr[s][p] = nbr[p][s]
                del nbr[s][r]
        del nbr[p][r]
        nbr[r] = {}
        dsum[p] += dsum[r]
        q = q + dq
        merges.append((p, r, q))
    return tuple(merges)


def heap_merge_trace(g: EpipolarGraph):
    """Greedy agglomeration on one lazy max-heap of every pair.

    Reference for ``csfm.community._merge_trace``, fast enough for graphs
    the O(n m) ``scan_merge_trace`` cannot take.  It is the kernel csfm ran
    before the hot row: the heap orders pairs by ``(-N, p, r)`` with the
    integer ``N = 2m e_pr - d_p d_r``, packed into the Python int
    ``-N n^2 + p n + r``; a popped entry is stale unless the pair is still
    linked with the same ``N``, and each merge pushes a fresh entry for
    every neighbour of the kept community.  Disconnected graphs stop when
    the heap runs dry.  Returns ``(merges, pops)``, ``merges`` as in
    ``DendrogramTrace.merges`` and ``pops`` the entries popped.
    """
    n, edges = g.node_count, g.edges
    two_m = 2 * len(edges)
    inv2m = 1.0 / two_m
    nn = n * n
    degrees = np.bincount(edges.ravel(), minlength=n)
    nbr = [dict() for _ in range(n)]
    for u, v in edges.tolist():
        nbr[u][v] = nbr[v][u] = 1
    deg = degrees.tolist()
    heap = sorted((deg[u] * deg[v] - two_m) * nn + u * n + v for u, v in edges.tolist())
    a = degrees * inv2m
    q = float(np.cumsum(-(a * a))[-1])
    merges, pops = [], 0
    while heap:
        neg_n, pr = divmod(heapq.heappop(heap), nn)
        pops += 1
        p, r = divmod(pr, n)
        cnt = nbr[p].get(r)
        if cnt is None or neg_n != deg[p] * deg[r] - two_m * cnt:
            continue
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
        merges.append((p, r, q))
    return tuple(merges), pops


def loop_ransac(a, b, inlier_threshold=None, max_iterations=1024, seed=0):
    """RANSAC fitting and scoring one hypothesis at a time with
    ``horn_similarity`` and ``Sim3.apply``.

    Reference for the batched scoring in ``csfm.alignment.ransac_similarity``:
    the same samples, stopping rule and refit, so it returns the same
    ``(sim3, inliers)`` or raises the same error.  Both run the one
    closed-form fit, so this checks batching and scan order; the fit's own
    bits are pinned in ``test_alignment.GOLDEN``.
    """
    n = len(a)
    threshold = inlier_threshold if inlier_threshold is not None else default_inlier_threshold(a)
    rng = np.random.default_rng(seed)
    best_mask = None
    best_count = 0
    needed = max_iterations
    it = 0
    while it < needed:
        it += 1
        sample = rng.choice(n, size=MIN_SAMPLE, replace=False)
        try:
            model = horn_similarity(a[sample], b[sample])
        except DegenerateGeometryError:
            continue
        mask = np.linalg.norm(b - model.apply(a), axis=1) < threshold
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            ratio = count / n
            if ratio >= 1.0:
                break
            denom = np.log1p(-(ratio**MIN_SAMPLE))
            if denom < 0:
                needed = min(
                    max_iterations, int(np.ceil(np.log1p(-DEFAULT_CONFIDENCE) / denom))
                )
    if best_mask is None or best_count < MIN_SAMPLE:
        raise RansacFailureError(
            f"no hypothesis reached {MIN_SAMPLE} inliers in {it} iterations"
        )
    return horn_similarity(a[best_mask], b[best_mask]), np.flatnonzero(best_mask)


def dense_visibility(centers, points, radius):
    """Dense ``(n_cam, n_pts)`` bool: camera sees point within ``radius``.

    The distance rule as a full camera-by-point array; reference for the
    incidence that ``csfm.synth.visibility`` builds chunk by chunk.
    """
    d2 = np.sum((centers[:, None, :] - points[None, :, :]) ** 2, axis=2)
    return d2 <= radius**2


def incidence_array(visible, n_pts):
    """A ``csfm.synth.Incidence`` as a dense ``(n_cam, n_pts)`` bool array,
    after checking that each row's column indices strictly increase."""
    rows = np.repeat(np.arange(visible.indptr.size - 1), np.diff(visible.indptr))
    step = np.diff(visible.indices.astype(np.int64))
    assert np.all((step > 0) | (rows[1:] != rows[:-1]))
    dense = np.zeros((visible.indptr.size - 1, n_pts), dtype=bool)
    dense[rows, visible.indices] = True
    return dense


def kdtree_visibility(centers, points, radius, chunk=16):
    """The incidence of ``csfm.synth.visibility`` as a ``scipy.sparse``
    ``csr_array``, from one k-d tree ball query per chunk of cameras.

    Each chunk takes every point within ``radius`` plus the chunk's reach
    (the largest camera distance from the chunk's bounding-box midpoint),
    widened by a relative 1e-9, and decides the candidates by the exact
    rule.  Reference for the x-sorted slab search of the library.
    """
    tree = cKDTree(points)
    n_cam, n_pts = centers.shape[0], points.shape[0]
    chunks, counts = [], np.zeros(n_cam, dtype=np.int64)
    for start in range(0, n_cam, chunk):
        block = centers[start : start + chunk]
        mid = 0.5 * (block.min(axis=0) + block.max(axis=0))
        reach = math.sqrt(np.max(np.sum((block - mid) ** 2, axis=1)))
        near = tree.query_ball_point(mid, (radius + reach) * (1.0 + 1e-9), return_sorted=True)
        near = np.asarray(near, dtype=np.int32)
        seen = dense_visibility(block, points[near], radius)
        chunks.append(np.broadcast_to(near, seen.shape)[seen])
        counts[start : start + block.shape[0]] = np.count_nonzero(seen, axis=1)
    indices = np.concatenate(chunks).astype(np.int32) if chunks else np.zeros(0, np.int32)
    indptr = np.zeros(n_cam + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return sp.csr_array((np.ones(indices.size, dtype=bool), indices, indptr), shape=(n_cam, n_pts))


def kdtree_match_graph(spec, centers, visible, camera_block=512, point_block=2048):
    """``(edges, weights)`` of ``csfm.synth._match_graph`` from a
    ``scipy.sparse`` incidence, by float32 BLAS ``syrk``/``gemm`` on the
    camera-block pairs that a k-d tree over the centers links within
    ``2 * radius``.  Reference for the library's numpy products."""
    n_cam = visible.shape[0]
    block_of = np.arange(n_cam) // camera_block
    n_blocks = int(block_of[-1]) + 1
    near = block_of[cKDTree(centers).query_pairs(
        2.0 * spec.visibility_radius * (1.0 + 1e-9), output_type="ndarray"
    )]
    kept = np.unique(near[:, 0] * n_blocks + near[:, 1])
    blocks = [visible[s : s + camera_block].tocsc() for s in range(0, n_cam, camera_block)]
    seen = [np.diff(block.indptr) for block in blocks]
    edges, weights = [np.zeros((0, 2), np.int64)], [np.zeros(0, np.int64)]
    for a in range(n_blocks):
        partners = (kept[kept // n_blocks == a] % n_blocks).tolist()
        counts = []
        for b in partners:
            shared = np.flatnonzero(seen[a] >= 2) if a == b else np.flatnonzero((seen[a] > 0) & (seen[b] > 0))
            co = np.zeros((blocks[a].shape[0], blocks[b].shape[0]), dtype=np.float32, order="F")
            for start in range(0, shared.size, point_block):
                columns = shared[start : start + point_block]
                left = blocks[a][:, columns].astype(np.float32).toarray(order="F")
                if a == b:
                    co = ssyrk(1.0, left, beta=1.0, c=co, lower=0, overwrite_c=1)
                else:
                    right = blocks[b][:, columns].astype(np.float32).toarray(order="F")
                    co = sgemm(1.0, left, right, beta=1.0, c=co, trans_b=1, overwrite_c=1)
            if a == b:
                co = np.triu(co, 1)
            counts.append(co)
        if counts:
            co = np.hstack(counts)
            cams = np.flatnonzero(np.isin(block_of, partners))
            i, j = np.nonzero(co >= spec.min_shared_tracks)
            edges.append(np.column_stack([i + a * camera_block, cams[j]]))
            weights.append(co[i, j].astype(np.int64))
    return np.concatenate(edges), np.concatenate(weights)


def csgraph_component_labels(node_count, edges):
    """Connected-component label per node from ``scipy.sparse.csgraph``.

    Reference for ``csfm.graph.component_labels``; csgraph does not
    document the order of its labels, so compare partitions, not labels."""
    adjacency = sp.coo_array(
        (np.ones(edges.shape[0]), (edges[:, 0], edges[:, 1])), shape=(node_count, node_count)
    ).tocsr()
    return csgraph.connected_components(adjacency, directed=False)[1]


def loop_export_ply(model, path, color_by_community=False):
    """``csfm.merging.export_ply`` one f-string per vertex.

    Reference for the library's single ``%``-format over all vertices."""
    from csfm.merging import _PALETTE

    lines = ["ply", "format ascii 1.0", f"element vertex {model.track_ids.size}"]
    lines += ["property float x", "property float y", "property float z"]
    if color_by_community:
        lines += ["property uchar red", "property uchar green", "property uchar blue"]
    lines.append("end_header")
    rows = [f"{x:.8g} {y:.8g} {z:.8g}" for x, y, z in model.points.tolist()]
    if color_by_community:
        suffix = [f" {r} {g} {b}" for r, g, b in _PALETTE]
        lowest = np.minimum.reduceat(model.communities, model.community_bounds[:-1])
        rows = [row + suffix[c] for row, c in zip(rows, (lowest % len(suffix)).tolist())]
    with open(path, "w") as fh:
        fh.write("\n".join(lines + rows) + "\n")


def loop_merge(recs, transforms):
    """Per-track fusion of duplicate tracks with one ``np.median`` call each.

    Reference for the segmented fusion in ``csfm.merging.merge_reconstructions``.
    Returns ``(track_ids, points, provenance, fusion_spread)``.
    """
    track_positions = {}
    for rec in sorted(recs, key=lambda r: r.community_id):
        tr = transforms[rec.community_id]
        pts_global = tr.s * (rec.points @ quat_to_matrix(tr.q).T) + tr.t
        for t, p in zip(rec.track_ids, pts_global):
            track_positions.setdefault(int(t), []).append((rec.community_id, p))
    tracks = np.array(sorted(track_positions), dtype=np.int64)
    fused = np.empty((tracks.size, 3))
    provenance = {}
    fusion_spread = {}
    for row, t in enumerate(tracks):
        entries = track_positions[int(t)]
        provenance[int(t)] = tuple(c for c, _ in entries)
        if len(entries) == 1:
            fused[row] = entries[0][1]
        else:
            stack = np.stack([p for _, p in entries])
            fused[row] = np.median(stack, axis=0)
            fusion_spread[int(t)] = float(
                np.max(np.linalg.norm(stack - fused[row], axis=1))
            )
    return tracks, fused, provenance, fusion_spread


def per_record_form(obj):
    """The value of the artifact that ``obj`` (a graph, world, reconstruction
    or merged model) is saved as, built with ``.tolist()`` alone: a dict per
    camera and per edge and a list per merged track.  orjson writes it with
    the artifact's bytes."""
    if isinstance(obj, EpipolarGraph):
        return {
            "nodes": [f"node_{i}" for i in range(obj.node_count)],
            "edges": [{"i": i, "j": j, "w": w}
                      for (i, j), w in zip(obj.edges.tolist(), obj.weights.tolist())],
        }
    ids = obj.camera_ids if hasattr(obj, "camera_ids") else np.arange(len(obj.camera_centers))
    value = {
        "cameras": [{"id": i, "q": q, "c": c} for i, q, c in zip(
            ids.tolist(), obj.camera_rotations.tolist(), obj.camera_centers.tolist())],
        "tracks": obj.track_ids.tolist(),
        "points": obj.points.tolist(),
    }
    if isinstance(obj, Reconstruction):
        value["community"] = obj.community_id
    elif isinstance(obj, MergedModel):
        bounds = obj.community_bounds.tolist()
        value["communities"] = [obj.communities[a:b].tolist() for a, b in zip(bounds, bounds[1:])]
        value["fusion"] = {"tracks": obj.fusion_tracks.tolist(), "spread": obj.fusion_spread.tolist()}
    else:  # a ground-truth world
        value["spec"] = obj.spec.to_json()
        value["labels"] = obj.labels.tolist()
        value["planted"] = [tr.to_json() for tr in obj.planted_transforms]
    return value


PROVENANCE_FIELDS = ("communities", "community_bounds", "fusion_tracks", "fusion_spread")


def provenance_arrays(track_ids, provenance, fusion_spread):
    """The ``provenance`` and ``fusion_spread`` maps of :func:`loop_merge` as
    the :class:`csfm.merging.MergedModel` arrays named in ``PROVENANCE_FIELDS``."""
    copies = [provenance[t] for t in track_ids.tolist()]
    fused = sorted(fusion_spread)
    return (
        np.array([c for cs in copies for c in cs], dtype=np.int64),
        np.cumsum([0] + [len(cs) for cs in copies], dtype=np.int64),
        np.array(fused, dtype=np.int64),
        np.array([fusion_spread[t] for t in fused], dtype=float),
    )


def loop_cameras(recs, transforms):
    """The merged cameras mapped one at a time, as ``(ids, rotations,
    centers)`` sorted by id.

    Reference for the stacked camera mapping in
    ``csfm.merging.merge_reconstructions``.
    """
    cams = []
    for rec in recs:
        tr = transforms[rec.community_id]
        r_conj = quat_conjugate(tr.q)
        for cid, q, c in zip(rec.camera_ids, rec.camera_rotations, tr.apply(rec.camera_centers)):
            cams.append((int(cid), quat_canonical(quat_multiply(q, r_conj)), c))
    cams.sort(key=lambda cam: cam[0])
    return (np.array([cid for cid, _, _ in cams], dtype=np.int64),
            np.array([q for _, q, _ in cams]).reshape(-1, 4),
            np.array([c for _, _, c in cams]).reshape(-1, 3))


def loop_random_quats(rng, count):
    """``count`` rotations drawn one at a time, redrawing a Gaussian 4-vector
    whose norm is at most 1e-6.  Reference for ``csfm.rotations.random_quats``.
    """
    out = []
    for _ in range(count):
        while True:
            q = rng.normal(size=4)
            n = np.linalg.norm(q)
            if n > 1e-6:
                out.append(quat_canonical(q / n))
                break
    return np.array(out).reshape(-1, 4)


def loop_joint_refine(recs, transforms: dict):
    """Joint refinement that assembles its normal equations one community
    pair at a time.

    Reference for the stacked solve in ``csfm.merging.joint_refine``: the
    same gating, Huber loss, Jacobians and damping schedule, with a block of
    Python per pair in every iteration.  Returns ``(refined transforms,
    merged model, info)``; ``info`` has no ``log_scale_change``.
    """
    recs = sorted(recs, key=lambda r: r.community_id)
    _require_transforms(recs, transforms)
    transforms = {r.community_id: transforms[r.community_id] for r in recs}

    # Huber scale per pair, same rule as the consensus threshold: 1% of that
    # pair's co-visible cloud extent in the merged frame.  Tracks far outside
    # the pair's own residual distribution are consensus outliers; keeping
    # them would bias the quadratic steps through the loss's linear tail, so
    # they are gated out against a median-based scale that tracks the actual
    # residual level (a coherently perturbed start keeps all its rows).
    pairs = []
    deltas = []
    for rec_a, rec_b, ia, ib in covisible_pairs(recs):
        cloud = transforms[rec_a.community_id].apply(rec_a.points[ia])
        delta = max(0.01 * float(np.median(np.ptp(cloud, axis=0))), 1e-12)
        r0 = np.linalg.norm(cloud - transforms[rec_b.community_id].apply(rec_b.points[ib]), axis=1)
        gate = max(10.0 * float(np.median(r0)), delta)
        keep = r0 <= gate
        if np.any(keep):
            pairs.append((rec_a, rec_b, ia[keep], ib[keep]))
            deltas.append(delta)
    if not pairs:
        return transforms, merge_reconstructions(recs, transforms), {
            "skipped": True, "iterations": 0, "initial_cost": 0.0, "final_cost": 0.0,
        }

    ids = list(transforms)
    col = {cid: k for k, cid in enumerate(ids)}
    free = {cid: k - 1 for k, cid in enumerate(ids) if k > 0}  # gauge = first id
    n_var = 7 * len(free)

    s = np.array([t.s for t in transforms.values()])
    R = [quat_to_matrix(t.q) for t in transforms.values()]
    T = np.stack([t.t for t in transforms.values()])

    def mapped(k, x):
        return s[k] * (x @ R[k].T) + T[k]

    def residuals():
        blocks = []
        for (rec_a, rec_b, ia, ib), delta in zip(pairs, deltas):
            ka, kb = col[rec_a.community_id], col[rec_b.community_id]
            pa = mapped(ka, rec_a.points[ia])
            pb = mapped(kb, rec_b.points[ib])
            blocks.append((ka, kb, rec_a.points[ia], rec_b.points[ib], pa - pb, delta))
        return blocks

    def cost_of(blocks):
        total = 0.0
        for _, _, _, _, r, delta in blocks:
            nrm = np.linalg.norm(r, axis=1)
            quad = nrm <= delta
            total += float(np.sum(0.5 * nrm[quad] ** 2))
            total += float(np.sum(delta * (nrm[~quad] - 0.5 * delta)))
        return total

    def stacked_jacobian(k, x, sign):
        """(n, 3, 7) residual Jacobians wrt (log s, rotation update, T)."""
        rx = s[k] * (x @ R[k].T)
        n = rx.shape[0]
        J = np.zeros((n, 3, 7))
        J[:, :, 0] = sign * rx
        # -sign * skew(rx) row blocks
        J[:, 0, 2] = sign * rx[:, 2]
        J[:, 0, 3] = -sign * rx[:, 1]
        J[:, 1, 1] = -sign * rx[:, 2]
        J[:, 1, 3] = sign * rx[:, 0]
        J[:, 2, 1] = sign * rx[:, 1]
        J[:, 2, 2] = -sign * rx[:, 0]
        J[:, 0, 4] = sign
        J[:, 1, 5] = sign
        J[:, 2, 6] = sign
        return J

    blocks = residuals()
    cost = cost_of(blocks)
    initial_cost = cost
    lam = 1e-8
    iterations = 0
    for _ in range(REFINE_MAX_ITERATIONS):
        H = np.zeros((n_var, n_var))
        g = np.zeros(n_var)
        for ka, kb, xa, xb, r, delta in blocks:
            nrm = np.maximum(np.linalg.norm(r, axis=1), 1e-300)
            w = np.where(nrm <= delta, 1.0, delta / nrm)
            Ja = stacked_jacobian(ka, xa, 1.0) if ids[ka] in free else None
            Jb = stacked_jacobian(kb, xb, -1.0) if ids[kb] in free else None
            if Ja is not None:
                base = 7 * free[ids[ka]]
                H[base : base + 7, base : base + 7] += np.einsum("n,nij,nik->jk", w, Ja, Ja)
                g[base : base + 7] += np.einsum("n,nij,ni->j", w, Ja, r)
            if Jb is not None:
                base = 7 * free[ids[kb]]
                H[base : base + 7, base : base + 7] += np.einsum("n,nij,nik->jk", w, Jb, Jb)
                g[base : base + 7] += np.einsum("n,nij,ni->j", w, Jb, r)
            if Ja is not None and Jb is not None:
                ba, bb = 7 * free[ids[ka]], 7 * free[ids[kb]]
                Hab = np.einsum("n,nij,nik->jk", w, Ja, Jb)
                H[ba : ba + 7, bb : bb + 7] += Hab
                H[bb : bb + 7, ba : ba + 7] += Hab.T
        try:
            step = np.linalg.solve(H + lam * np.eye(n_var), -g)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"refinement normal equations singular: {exc}") from exc

        s_try, R_try, T_try = s.copy(), list(R), T.copy()
        for cid, fidx in free.items():
            k = col[cid]
            d = step[7 * fidx : 7 * fidx + 7]
            s_try[k] = s[k] * np.exp(d[0])
            R_try[k] = quat_to_matrix(exp_rotation(d[1:4])) @ R[k]
            T_try[k] = T[k] + d[4:7]
        s_old, R_old, T_old = s, R, T
        s, R, T = s_try, R_try, T_try
        new_blocks = residuals()
        new_cost = cost_of(new_blocks)
        if abs(new_cost - cost) < REFINE_REL_TOL * max(cost, 1e-300):
            s, R, T = s_old, R_old, T_old
            break
        if new_cost > cost:
            s, R, T = s_old, R_old, T_old
            lam *= 10.0
            if lam > 1e6:
                break
            continue
        lam = max(lam * 0.3, 1e-12)
        iterations += 1
        blocks = new_blocks
        cost = new_cost

    refined = {c: Sim3(s=s[k], q=matrix_to_quat(R[k]), t=T[k]) for c, k in col.items()}
    model = merge_reconstructions(recs, refined)
    return refined, model, {
        "skipped": False,
        "iterations": iterations,
        "initial_cost": initial_cost,
        "final_cost": cost,
    }


def random_sim3(rng, scale_range=(0.5, 2.0), translation=5.0) -> Sim3:
    return Sim3(
        s=float(np.exp(rng.uniform(np.log(scale_range[0]), np.log(scale_range[1])))),
        q=random_quat(rng),
        t=rng.uniform(-translation, translation, size=3),
    )
