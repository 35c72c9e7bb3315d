"""Acceptance suite: every release gate in one module.

Each test prints a `[acceptance] <name>: PASS (<elapsed>)` line and enforces
its wall-clock budget, so `pytest -s tests/test_acceptance.py` doubles as a
release report.
"""
import time

import numpy as np
import pytest

from csfm.averaging import (
    average_rotations,
    average_scales,
    average_translations,
    spanning_tree_edges,
)
from csfm.community import Partition, best_partition, greedy_merge_trace, modularity
from csfm.pipeline import PipelineConfig, run_pipeline
from csfm.rotations import geodesic_angle, quat_conjugate, quat_multiply, random_quat
from csfm.synth import WorldSpec, generate_world

from helpers import (
    brute_modularity,
    clique_edges,
    exhaustive_max_modularity,
    make_graph,
    measurement_graph,
    random_connected_graph,
    random_sim3,
)


class budget:
    """Context manager printing the acceptance verdict and timing."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.name}: {verdict} ({elapsed:.2f} s / budget {self.seconds} s)")
        if exc_type is None and elapsed >= self.seconds:
            raise AssertionError(
                f"{self.name} exceeded its runtime budget: {elapsed:.2f} s >= {self.seconds} s"
            )
        return False


def test_modularity_oracle_equivalence():
    with budget("modularity-oracle-equivalence", 10):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(3, 9))  # within the <= 10 node bound
            g = random_connected_graph(rng, n, int(rng.integers(0, n)))
            # library value vs literal double-sum oracle, on random partitions
            for _ in range(3):
                labels = rng.integers(0, max(2, n // 2), size=n)
                _, labels = np.unique(labels, return_inverse=True)
                p = Partition(labels, int(labels.max()) + 1)
                assert modularity(g, p) == pytest.approx(
                    brute_modularity(g, labels), abs=1e-12
                )
            # greedy peak can never beat the exhaustive best partition
            trace = greedy_merge_trace(g)
            assert trace.q_peak <= exhaustive_max_modularity(g) + 1e-12


def test_planted_community_recovery():
    with budget("planted-community-recovery", 1):
        g = make_graph(
            16, clique_edges(range(8)) + clique_edges(range(8, 16)) + [(7, 8)]
        )
        part, q_max, significant = best_partition(g, 0.3)
        assert significant and q_max > 0.3
        assert part.communities() == [list(range(8)), list(range(8, 16))]

        triangles = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        p = Partition.from_communities([[0, 1, 2], [3, 4, 5]])
        assert modularity(triangles, p) == pytest.approx(0.5, abs=1e-12)


def _random_connected_pairs(rng, k, extra):
    edges = set()
    order = rng.permutation(k)
    for n in range(1, k):
        a, b = int(order[n]), int(order[rng.integers(0, n)])
        edges.add((min(a, b), max(a, b)))
    while len(edges) < min(k - 1 + extra, k * (k - 1) // 2):
        a, b = rng.integers(0, k, size=2)
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    return sorted(edges)


def _consistent_measurements(planted, edges, t=True):
    """Exact ``(i, j, s_ij, r_ij, t_ij)`` rows from planted transforms."""
    out = []
    for i, j in edges:
        ti, tj = planted[i], planted[j]
        out.append(
            (i, j, ti.s / tj.s, quat_multiply(quat_conjugate(ti.q), tj.q), (tj.t - ti.t) if t else None)
        )
    return out


def test_averaging_exactness():
    with budget("averaging-exactness", 30):
        rng = np.random.default_rng(7)
        for _ in range(100):
            k = int(rng.integers(4, 11))
            planted = [random_sim3(rng) for _ in range(k)]
            edges = _random_connected_pairs(rng, k, int(rng.integers(0, 5)))
            mg = measurement_graph(k, _consistent_measurements(planted, edges))
            scales = average_scales(mg)
            rotations = average_rotations(mg)
            translations = average_translations(mg)
            g = planted[0]
            for c in range(k):
                assert scales[c] == pytest.approx(planted[c].s / g.s, rel=1e-8)
                expected_q = quat_multiply(quat_conjugate(g.q), planted[c].q)
                assert geodesic_angle(rotations[c], expected_q) < 1e-8
                assert np.allclose(translations[c], planted[c].t - g.t, atol=1e-8)


# 30% corruption sets for the degree-6 circulant below, found by local
# search so that every graph cut crosses strictly more clean than corrupted
# measurements; without that margin the L1 optimum is a flat set and no
# estimator could single out the clean solution (the test re-verifies it)
CORRUPT_SCALE_EDGES = {
    (0, 8), (0, 9), (1, 2), (2, 3), (3, 4), (5, 6), (5, 7), (6, 7), (8, 9),
}
CORRUPT_TRANS_EDGES = {
    (0, 3), (0, 8), (1, 4), (2, 9), (3, 5), (4, 6), (5, 7), (6, 8), (7, 9),
}


def test_l1_robustness_to_gross_outliers():
    with budget("l1-outlier-robustness", 30):
        rng = np.random.default_rng(13)
        k = 10
        # circulant graph: i linked to i+1, i+2, i+3 (mod k); degree 6
        edges = sorted(
            {(min(i, (i + d) % k), max(i, (i + d) % k)) for i in range(k) for d in (1, 2, 3)}
        )
        planted = [random_sim3(rng) for _ in range(k)]
        base = _consistent_measurements(planted, edges)
        m = len(base)
        assert int(0.3 * m) == len(CORRUPT_SCALE_EDGES) == len(CORRUPT_TRANS_EDGES)

        def strict_majority_everywhere(bad):
            for mask in range(1, 2**k - 1):
                clean = corr = 0
                for idx, (i, j) in enumerate(edges):
                    if (mask >> i & 1) != (mask >> j & 1):
                        if idx in bad:
                            corr += 1
                        else:
                            clean += 1
                if clean <= corr:
                    return False
            return True

        bad_scale = {edges.index(e) for e in CORRUPT_SCALE_EDGES}
        bad_trans = {edges.index(e) for e in CORRUPT_TRANS_EDGES}
        assert strict_majority_everywhere(bad_scale)
        assert strict_majority_everywhere(bad_trans)

        # one corrupted rotation per independent cycle, realized as chords of
        # the averaging spanning tree, pairwise vertex-disjoint
        mg_probe = measurement_graph(k, base)
        tree = set(spanning_tree_edges(mg_probe))
        bad_rot = []
        used = set()
        for idx in range(m):
            if idx in tree:
                continue
            mi, mj = base[idx][:2]
            if mi in used or mj in used:
                continue
            bad_rot.append(idx)
            used.update((mi, mj))
            if len(bad_rot) == 3:
                break

        corrupted = []
        for idx, (i, j, s_ij, r_ij, t_ij) in enumerate(base):
            s = s_ij * (float(rng.uniform(20.0, 80.0)) if idx in bad_scale else 1.0)
            r = random_quat(rng) if idx in bad_rot else r_ij
            t = t_ij + (rng.uniform(40.0, 90.0, size=3) * rng.choice([-1.0, 1.0], size=3)
                        if idx in bad_trans else 0.0)
            corrupted.append((i, j, s, r, t))
        mg = measurement_graph(k, corrupted)

        scales = average_scales(mg)
        rotations = average_rotations(mg)
        translations = average_translations(mg)
        g = planted[0]
        for c in range(k):
            assert abs(scales[c] - planted[c].s / g.s) / (planted[c].s / g.s) < 1e-6
            expected_q = quat_multiply(quat_conjugate(g.q), planted[c].q)
            assert geodesic_angle(rotations[c], expected_q) < 1e-6
            assert np.allclose(translations[c], planted[c].t - g.t, atol=1e-6)


def test_end_to_end_synthetic_pipeline(tmp_path):
    with budget("end-to-end-synthetic-pipeline", 60):
        spec = WorldSpec(
            camera_count=200,
            point_count=5000,
            cluster_count=4,
            noise_sigma=1e-3,
            outlier_fraction=0.2,
            seed=11,
        )
        world = generate_world(spec)
        res = run_pipeline(
            PipelineConfig(out_dir=str(tmp_path / "run"), seed=11, world=world)
        )
        merged = res.evaluation["merged"]
        refined = res.evaluation["refined"]
        assert merged["median_center_error"] < 5e-3
        assert refined["median_center_error"] <= merged["median_center_error"]


def test_determinism_byte_identical_artifacts(tmp_path):
    with budget("determinism-byte-identical", 60):
        spec = WorldSpec(
            camera_count=120,
            point_count=3000,
            cluster_count=3,
            noise_sigma=1e-3,
            outlier_fraction=0.2,
            seed=5,
        )
        outs = []
        for run in ("a", "b"):
            world = generate_world(spec)
            run_pipeline(
                PipelineConfig(out_dir=str(tmp_path / run), seed=5, world=world)
            )
            outs.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted((tmp_path / run).iterdir())
                    if p.name != "report.json"  # wall-clock times differ
                }
            )
        assert outs[0].keys() == outs[1].keys()
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], f"{name} differs between runs"
