"""Shared test fixtures: graph builders and independent oracles.

The oracles here deliberately take the dumbest correct route (dense double
sums, exhaustive enumeration) so they share no code path with the library.
"""
from __future__ import annotations

import numpy as np

from csfm.alignment import (
    DEFAULT_CONFIDENCE,
    MIN_SAMPLE,
    CorrespondenceSet,
    default_inlier_threshold,
    horn_similarity,
)
from csfm.errors import DegenerateGeometryError, RansacFailureError
from csfm.graph import EpipolarGraph
from csfm.rotations import (
    quat_canonical,
    quat_conjugate,
    quat_multiply,
    quat_to_matrix,
    random_quat,
)
from csfm.sim3 import Sim3


def make_graph(n, edges):
    edges = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    return EpipolarGraph(
        node_count=n, edges=edges, weights=np.ones(edges.shape[0], dtype=np.int64)
    )


def clique_edges(nodes):
    nodes = list(nodes)
    return [(nodes[i], nodes[j]) for i in range(len(nodes)) for j in range(i + 1, len(nodes))]


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


def scan_merge_trace(g: EpipolarGraph):
    """Greedy agglomeration by rescanning every linked pair on each merge.

    O(n m) reference for the heap kernel: scans pairs in ascending ``(p, q)``
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


def loop_ransac(corr: CorrespondenceSet, inlier_threshold=None, max_iterations=1024, seed=0):
    """RANSAC fitting and scoring one hypothesis at a time with
    ``horn_similarity`` and ``Sim3.apply``.

    Reference for the batched scoring in ``csfm.alignment.ransac_similarity``:
    the same samples, stopping rule and refit, so it returns the same
    ``(sim3, inlier_track_ids)`` or raises the same error.  Both run the one
    closed-form fit, so this checks batching and scan order; the fit's own
    bits are pinned in ``test_alignment.GOLDEN``.
    """
    n = len(corr)
    threshold = inlier_threshold if inlier_threshold is not None else default_inlier_threshold(corr)
    rng = np.random.default_rng(seed)
    a = corr.points_a
    b = corr.points_b
    best_mask = None
    best_count = 0
    needed = max_iterations
    it = 0
    while it < needed:
        it += 1
        sample = rng.choice(n, size=MIN_SAMPLE, replace=False)
        try:
            model = horn_similarity(
                CorrespondenceSet(corr.track_ids[sample], a[sample], b[sample])
            )
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
    inlier_ids = corr.track_ids[best_mask]
    return horn_similarity(CorrespondenceSet(inlier_ids, a[best_mask], b[best_mask])), inlier_ids


def dense_visibility(centers, points, radius):
    """Dense ``(n_cam, n_pts)`` bool: camera sees point within ``radius``.

    The distance rule as a full camera-by-point array; reference for the
    sparse incidence that ``csfm.synth.visibility`` builds with a k-d tree.
    """
    d2 = np.sum((centers[:, None, :] - points[None, :, :]) ** 2, axis=2)
    return d2 <= radius**2


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


def random_sim3(rng, scale_range=(0.5, 2.0), translation=5.0) -> Sim3:
    return Sim3(
        s=float(np.exp(rng.uniform(np.log(scale_range[0]), np.log(scale_range[1])))),
        q=random_quat(rng),
        t=rng.uniform(-translation, translation, size=3),
    )
