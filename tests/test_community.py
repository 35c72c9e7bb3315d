import re
from fractions import Fraction

import numpy as np
import pytest

import csfm.community as community
from csfm.community import (
    DendrogramTrace,
    Partition,
    _certified_modularity,
    _cut_trace,
    _modularity_matrix,
    _top_eigenvalue_bound,
    absorb_small,
    best_partition,
    build_community_graph,
    detect_communities,
    greedy_merge_trace,
    modularity,
    recursive_partition,
)
from csfm.errors import DisconnectedGraphError, ValidationError
from csfm.synth import WorldSpec, generate_world

from helpers import (
    BENCH_WORLDS,
    brute_modularity,
    clique_edges,
    exhaustive_max_modularity,
    heap_merge_trace,
    make_graph,
    planted_graph,
    random_connected_graph,
    scan_merge_trace,
    split_recursively,
    union_find_cut,
)

TWO_TRIANGLES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]


def two_cliques_with_bridge(k):
    edges = clique_edges(range(k)) + clique_edges(range(k, 2 * k)) + [(k - 1, k)]
    return make_graph(2 * k, edges)


class TestPartitionFromLabels:
    def test_renumbered_in_order_of_first_appearance(self):
        p = Partition.from_labels([7, 3, 7, -2, 3, 9])
        assert p.assignment.tolist() == [0, 1, 0, 2, 1, 3]
        assert p.assignment.dtype == np.int64
        assert p.community_count == 4

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_a_first_appearance_loop(self, seed):
        labels = np.random.default_rng(seed).integers(-50, 50, size=200)
        relabel = {}
        expected = [relabel.setdefault(int(v), len(relabel)) for v in labels]
        p = Partition.from_labels(labels)
        assert p.assignment.tolist() == expected
        assert p.community_count == len(relabel)

    def test_empty_labels_rejected(self):
        with pytest.raises(ValidationError):
            Partition.from_labels(np.empty(0, dtype=np.int64))


def loop_communities(p):
    groups = [[] for _ in range(p.community_count)]
    for v, c in enumerate(p.assignment):
        groups[int(c)].append(v)
    return groups


def loop_from_communities(groups, n):
    """The node-by-node scan: returns the assignment or the error message."""
    a = np.full(n, -1, dtype=np.int64)
    for cid, group in enumerate(groups):
        for v in group:
            if not 0 <= v < n:
                return f"node {v} out of range [0, {n})"
            if a[v] != -1:
                return f"node {v} assigned to two communities"
            a[v] = cid
    if np.any(a < 0):
        return "partition does not cover every node"
    return a


class TestPartitionCommunities:
    @pytest.mark.parametrize("seed", range(5))
    def test_communities_match_a_node_loop(self, seed):
        labels = np.random.default_rng(seed).integers(0, 7, size=300)
        p = Partition.from_labels(labels)
        assert p.communities() == loop_communities(p)
        assert all(type(v) is int for grp in p.communities() for v in grp)

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip(self, seed):
        p = Partition.from_labels(np.random.default_rng(seed).integers(0, 9, size=200))
        for groups in (p.communities(), [np.array(grp) for grp in p.communities()]):
            q = Partition.from_communities(groups)
            assert np.array_equal(q.assignment, p.assignment)
            assert q.community_count == p.community_count

    @pytest.mark.parametrize(
        "groups, n",
        [
            ([[0, 1], [2, 7]], 4),  # out of range
            ([[0, -1], [2, 3]], 4),  # negative
            ([[0, 1], [1, 2]], 3),  # repeated across groups
            ([[0, 0, 1]], 2),  # repeated within a group
            ([[0, 2], [2, 9]], 3),  # repeat comes first in group order
            ([[9, 1], [1, 0]], 3),  # out of range comes first
            ([[5, 5], [0]], 3),  # out of range and repeated: range is reported
            ([[0], [1]], 3),  # not covering
        ],
    )
    def test_from_communities_reports_what_a_scan_reports(self, groups, n):
        expected = loop_from_communities(groups, n)
        with pytest.raises(ValidationError, match="^" + re.escape(expected) + "$"):
            Partition.from_communities(groups, node_count=n)

    def test_from_communities_random_errors_match_the_scan(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            nodes = rng.integers(-2, n + 2, size=int(rng.integers(0, n + 3))).tolist()
            cuts = sorted(rng.integers(0, len(nodes) + 1, size=2).tolist())
            groups = [nodes[: cuts[0]], nodes[cuts[0] : cuts[1]], nodes[cuts[1] :]]
            expected = loop_from_communities(groups, n)
            if isinstance(expected, str):
                with pytest.raises(ValidationError) as info:
                    Partition.from_communities(groups, node_count=n)
                assert str(info.value) == expected
            elif any(len(grp) == 0 for grp in groups):
                with pytest.raises(ValidationError, match="contiguous"):
                    Partition.from_communities(groups, node_count=n)
            else:
                assert np.array_equal(Partition.from_communities(groups, n).assignment, expected)


class TestDendrogramTrace:
    def test_first_bad_value_is_reported(self):
        merges = ((0, 1, 0.1), (0, 2, 1.5), (0, 3, float("nan")))
        with pytest.raises(ValidationError, match=r"^modularity value 1.5 outside \[-1, 1\]$"):
            DendrogramTrace(merges=merges, q_peak=0.1, peak_index=0)
        merges = ((0, 1, 0.1), (0, 2, float("nan")), (0, 3, -2.0))
        with pytest.raises(ValidationError, match=r"^modularity value nan outside"):
            DendrogramTrace(merges=merges, q_peak=0.1, peak_index=0)

    def test_bounds_are_inclusive(self):
        DendrogramTrace(merges=((0, 1, -1.0), (0, 2, 1.0)), q_peak=1.0, peak_index=1)
        DendrogramTrace(merges=(), q_peak=0.0, peak_index=0)


class TestModularity:
    def test_all_in_one_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 12)), int(rng.integers(0, 8)))
            p = Partition(np.zeros(g.node_count, dtype=np.int64), 1)
            assert abs(modularity(g, p)) < 1e-12

    def test_two_disjoint_triangles(self):
        # hand evaluation: per triangle sum(A) = 6, sum(d_i d_j / 2m) = 36/12
        g = make_graph(6, TWO_TRIANGLES)
        p = Partition.from_communities([[0, 1, 2], [3, 4, 5]])
        assert modularity(g, p) == pytest.approx(0.5, abs=1e-12)

    def test_single_edge_singletons(self):
        # only the i = j terms survive: -(d_i / 2m)^2 each
        g = make_graph(2, [(0, 1)])
        p = Partition.from_communities([[0], [1]])
        assert modularity(g, p) == pytest.approx(-0.5, abs=1e-12)

    def test_matches_brute_force_on_random_partitions(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(3, 10)), int(rng.integers(0, 6)))
            labels = rng.integers(0, 3, size=g.node_count)
            _, labels = np.unique(labels, return_inverse=True)
            p = Partition(labels, int(labels.max()) + 1)
            assert modularity(g, p) == pytest.approx(brute_modularity(g, labels), abs=1e-12)

    def test_no_edges_is_an_error(self):
        g = make_graph(3, [])
        with pytest.raises(ValidationError):
            modularity(g, Partition(np.zeros(3, dtype=np.int64), 1))


class TestGreedyMergeTrace:
    def test_single_edge(self):
        trace = greedy_merge_trace(make_graph(2, [(0, 1)]))
        assert len(trace.merges) == 1
        assert trace.merges[0][2] == pytest.approx(0.0, abs=1e-15)
        assert trace.q_peak == pytest.approx(0.0, abs=1e-15)

    def test_trace_length_is_n_minus_1(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(2, 15)), int(rng.integers(0, 10)))
            assert len(greedy_merge_trace(g).merges) == g.node_count - 1

    def test_two_k5_peak_is_two_clique_state(self):
        g = two_cliques_with_bridge(5)
        trace = greedy_merge_trace(g)
        # oracle: exhaustively re-evaluate Q at every state along the merge
        # sequence with the brute evaluator; the peak must be the 2-community
        # state and its Q must match the recorded one
        parent = list(range(10))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        best_q, best_labels = -np.inf, None
        for a, b, q_rec in trace.merges:
            parent[find(b)] = find(a)
            labels = np.array([find(v) for v in range(10)])
            _, labels = np.unique(labels, return_inverse=True)
            q_brute = brute_modularity(g, labels)
            assert q_rec == pytest.approx(q_brute, abs=1e-12)
            if q_brute > best_q:
                best_q, best_labels = q_brute, labels
        assert trace.q_peak == pytest.approx(best_q, abs=1e-12)
        assert len(set(best_labels)) == 2
        assert len({best_labels[v] for v in range(5)}) == 1
        assert len({best_labels[v] for v in range(5, 10)}) == 1

    def test_triangle_peak_nonpositive(self):
        # oracle: brute force over all partitions of 3 nodes; no split of a
        # triangle beats the all-in-one Q = 0
        g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        trace = greedy_merge_trace(g)
        assert len(trace.merges) == 2
        assert trace.q_peak <= exhaustive_max_modularity(g) + 1e-12
        assert trace.q_peak <= 1e-12

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            greedy_merge_trace(make_graph(4, [(0, 1), (2, 3)]))


class TestBestPartition:
    def test_two_k5_with_bridge(self):
        part, q_max, significant = best_partition(two_cliques_with_bridge(5), 0.3)
        assert significant
        assert part.community_count == 2
        assert part.communities() == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
        # q_max agrees with modularity() on the returned partition
        assert q_max == pytest.approx(modularity(two_cliques_with_bridge(5), part), abs=1e-12)

    def test_complete_graph_not_significant(self):
        g = make_graph(6, clique_edges(range(6)))
        part, q_max, significant = best_partition(g, 0.3)
        assert not significant
        assert part.community_count == 1
        # oracle: no partition of a clique has Q > 0
        assert exhaustive_max_modularity(g) <= 1e-12

    def test_greedy_peak_bounded_by_exhaustive_max(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(3, 8)), int(rng.integers(0, 5)))
            _, q_max, _ = best_partition(g)
            assert q_max <= exhaustive_max_modularity(g) + 1e-12

    def test_peak_value_matches_returned_partition(self):
        # whenever the cut is returned, its independently recomputed
        # modularity must equal the recorded peak
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(40):
            g = random_connected_graph(rng, int(rng.integers(4, 16)), int(rng.integers(0, 8)))
            part, q_max, significant = best_partition(g, q_threshold=-1.0)
            if significant:
                assert modularity(g, part) == pytest.approx(q_max, abs=1e-12)
                checked += 1
        assert checked > 10


class TestRecursivePartition:
    def test_complete_graph_single_community(self):
        p = recursive_partition(make_graph(6, clique_edges(range(6))))
        assert p.community_count == 1

    def test_four_cliques_two_level(self):
        # oracle: planted labels; recursion must reach the four K8 leaves
        blocks = [list(range(8 * c, 8 * c + 8)) for c in range(4)]
        edges = sum((clique_edges(b) for b in blocks), [])
        edges += [(7, 8), (23, 24), (15, 16)]  # A-B, C-D, then one joining the halves
        p = recursive_partition(make_graph(32, edges))
        assert p.community_count == 4
        assert p.communities() == blocks

    def test_disjoint_cliques_split_by_component(self):
        edges = clique_edges(range(8)) + clique_edges(range(8, 16))
        p = recursive_partition(make_graph(16, edges))
        assert p.community_count == 2
        assert p.communities() == [list(range(8)), list(range(8, 16))]

    def test_determinism(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(rng, 30, 40)
        p1 = recursive_partition(g)
        p2 = recursive_partition(g)
        assert np.array_equal(p1.assignment, p2.assignment)


class TestAbsorbSmall:
    def test_single_neighbor(self):
        # communities sized 25 and 3 with cross edges: fold into one
        edges = clique_edges(range(25)) + clique_edges(range(25, 28))
        edges += [(0, 25), (1, 26), (2, 27), (3, 25)]
        g = make_graph(28, edges)
        p = Partition.from_communities([list(range(25)), [25, 26, 27]])
        out, flagged = absorb_small(g, p, min_size=20)
        assert out.community_count == 1
        assert flagged == []

    def test_closest_neighbor_wins(self):
        # small community has 7 edges to block A, 2 to block B
        a = list(range(25))
        b = list(range(25, 50))
        small = [50, 51, 52, 53, 54]
        edges = clique_edges(a) + clique_edges(b) + clique_edges(small)
        edges += [(i, 50 + i % 5) for i in range(7)]
        edges += [(25, 53), (26, 54)]
        edges += [(0, 25)]  # keep A and B linked
        g = make_graph(55, edges)
        p = Partition.from_communities([a, b, small])
        out, flagged = absorb_small(g, p, min_size=20)
        assert out.community_count == 2
        assert flagged == []
        # the small block joined A (community of node 0)
        assert out.assignment[50] == out.assignment[0]

    def test_isolated_small_community_flagged(self):
        edges = clique_edges(range(25)) + [(25, 26)]
        g = make_graph(27, edges)
        p = Partition.from_communities([list(range(25)), [25, 26]])
        out, flagged = absorb_small(g, p, min_size=20)
        assert out.community_count == 2
        assert flagged == [1]

    def test_cascading_merges_reach_threshold(self):
        # two undersized communities: the smaller folds into the larger,
        # and the union clears the size floor so absorption stops
        a = list(range(12))
        b = list(range(12, 22))
        edges = clique_edges(a) + clique_edges(b) + [(0, 12), (1, 13)]
        g = make_graph(22, edges)
        p = Partition.from_communities([a, b])
        out, flagged = absorb_small(g, p, min_size=20)
        assert out.community_count == 1
        assert flagged == []

    def test_still_small_after_merge_is_reconsidered(self):
        # 3 + 4 merge to 7, still undersized, so the union then joins the
        # big block it is connected to
        big = list(range(25))
        s1 = [25, 26, 27]
        s2 = [28, 29, 30, 31]
        edges = clique_edges(big) + clique_edges(s1) + clique_edges(s2)
        edges += [(25, 28), (26, 29)]  # s1-s2: 2 cross edges
        edges += [(27, 0)]  # s1-big: 1 cross edge
        g = make_graph(32, edges)
        p = Partition.from_communities([big, s1, s2])
        out, flagged = absorb_small(g, p, min_size=20)
        assert out.community_count == 1
        assert flagged == []

    def test_idempotent_once_all_large(self):
        rng = np.random.default_rng(5)
        g = random_connected_graph(rng, 60, 80)
        p = recursive_partition(g)
        p1, f1 = absorb_small(g, p, min_size=10)
        p2, f2 = absorb_small(g, p1, min_size=10)
        if all(s >= 10 for s in p1.sizes()):
            assert np.array_equal(p1.assignment, p2.assignment)
            assert f1 == f2


class TestCommunityGraph:
    def test_single_community_no_cross(self):
        g = make_graph(4, clique_edges(range(4)))
        p = Partition(np.zeros(4, dtype=np.int64), 1)
        assert build_community_graph(g, p) == {}
        assert list(p.sizes()) == [4]

    def test_two_triangles_one_bridge(self):
        g = make_graph(6, TWO_TRIANGLES + [(2, 3)])
        cross = build_community_graph(g, Partition.from_communities([[0, 1, 2], [3, 4, 5]]))
        assert cross == {(0, 1): 1}

    @pytest.mark.parametrize("seed", range(5))
    def test_counts_match_an_edge_loop(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 60, 200)
        p = Partition.from_labels(rng.integers(0, 6, size=60))
        expected = {}
        for a, b in p.assignment[g.edges].tolist():
            if a != b:
                key = (min(a, b), max(a, b))
                expected[key] = expected.get(key, 0) + 1
        cross = build_community_graph(g, p)
        assert cross == expected
        assert list(cross) == sorted(expected)
        assert all(type(x) is int for key, c in cross.items() for x in (*key, c))

    def test_planted_three_block_counts(self):
        # oracle: the generator's own inter-block edge lists
        rng = np.random.default_rng(6)
        blocks = [list(range(6)), list(range(6, 12)), list(range(12, 18))]
        edges = sum((clique_edges(b) for b in blocks), [])
        planted = {(0, 1): 3, (0, 2): 1, (1, 2): 5}
        for (p, q), cnt in planted.items():
            for _ in range(cnt):
                while True:
                    e = (int(rng.choice(blocks[p])), int(rng.choice(blocks[q])))
                    if e not in edges:
                        edges.append(e)
                        break
        g = make_graph(18, edges)
        assert build_community_graph(g, Partition.from_communities(blocks)) == planted


class TestHeapKernelAgainstScan:
    """The kernel must reproduce the full-rescan oracle exactly: same merge
    pairs and bit-identical Q after every merge."""

    def test_random_connected_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            g = random_connected_graph(rng, int(rng.integers(2, 40)), int(rng.integers(0, 80)))
            assert greedy_merge_trace(g).merges == scan_merge_trace(g)

    @pytest.mark.parametrize("n", range(3, 40))
    def test_all_ties_rings_and_cliques(self, n):
        # every initial gain ties, so each choice rests on the tie rule
        ring = make_graph(n, [(i, (i + 1) % n) for i in range(n)])
        clique = make_graph(n, clique_edges(range(n)))
        for g in (ring, clique):
            assert greedy_merge_trace(g).merges == scan_merge_trace(g)

    def test_starting_order_matches_python_int_keys(self):
        # graphs of more than 55,000 nodes, where the packed starting keys
        # -N n^2 + p n + r overflow int64; CNM does not run on them
        n = 56_000
        rng = np.random.default_rng(9)
        sparse = np.unique(np.sort(rng.integers(0, n, size=(60_000, 2)), axis=1), axis=0)
        sparse = sparse[sparse[:, 0] != sparse[:, 1]]
        # two hubs linked to every node: d_0 d_1 n^2 is about 1e19
        hubs = [(0, v) for v in range(1, n)] + [(1, v) for v in range(2, n)]
        for edges in (sparse, hubs):
            g = make_graph(n, edges)
            degrees = np.bincount(g.edges.ravel(), minlength=n)
            deg, two_m = degrees.tolist(), 2 * g.edge_count
            keys = [(deg[u] * deg[v] - two_m) * n * n + u * n + v for u, v in g.edges.tolist()]
            neg, lo, hi = community._starting_pairs(g.edges, degrees)
            got = [int(a) * n * n + int(u) * n + int(v) for a, u, v in zip(neg, lo, hi)]
            assert got == sorted(keys)
        assert max(keys) >= 2**63  # the hub pair's key is out of int64 range


def kernel_merges(g):
    """``greedy_merge_trace(g).merges`` without its connectivity check."""
    kept, retired, q_after, _ = community._merge_trace(g.node_count, g.edges)
    return tuple(zip(kept, retired, q_after))


def ring_graph(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a, b, interleave):
    """``K_{a,b}``; with ``interleave`` the two sides alternate in id order."""
    ids = np.argsort(np.arange(a + b) % 2, kind="stable") if interleave else np.arange(a + b)
    return make_graph(a + b, [(ids[i], ids[a + j]) for i in range(a) for j in range(b)])


class TestKernelAgainstTheHeapOracle:
    """The hot-row kernel against the single-heap kernel it replaced, on the
    graph shapes each of its paths depends on: merges and Q bit for bit."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("name", sorted(BENCH_WORLDS))
    def test_benchmark_match_graphs_and_every_cnm_subgraph(self, monkeypatch, name, seed):
        graphs = []
        trace = community.greedy_merge_trace
        monkeypatch.setattr(community, "greedy_merge_trace", lambda g: graphs.append(g) or trace(g))
        world = generate_world(WorldSpec(**BENCH_WORLDS[name], seed=seed))
        detect_communities(world.graph)
        assert graphs[0].edge_count == world.graph.edge_count  # the whole match graph first
        for g in graphs:
            assert trace(g).merges == heap_merge_trace(g)[0]

    def test_the_2000_camera_graph(self):
        spec = WorldSpec(camera_count=2000, point_count=40000, cluster_count=16,
                         noise_sigma=1e-3, outlier_fraction=0.2, seed=11)
        g = generate_world(spec).graph
        assert g.edge_count > 100_000
        assert greedy_merge_trace(g).merges == heap_merge_trace(g)[0]

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 16, 17, 64, 101, 500, 2001])
    def test_rings_and_paths(self, n):
        # after the first merge a cold pair wins nearly every merge, so the
        # hot row changes hands each time
        for g in (ring_graph(n), make_graph(n, [(i, i + 1) for i in range(n - 1)])):
            assert greedy_merge_trace(g).merges == heap_merge_trace(g)[0]

    @pytest.mark.parametrize("a", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("b", [1, 2, 4, 7, 12])
    def test_complete_bipartite_graphs(self, a, b):
        # every starting gain ties, and later hot and cold gains tie too
        for interleave in (False, True):
            g = complete_bipartite(a, b, interleave)
            assert greedy_merge_trace(g).merges == heap_merge_trace(g)[0]

    @pytest.mark.parametrize("n", [5, 8, 13, 20, 31, 48, 97])
    def test_circulant_graphs(self, n):
        # vertex-transitive: every gain ties at the start, and the graphs
        # with gcd(n, offsets) > 1 fall apart into equal components
        for offsets in ((1, 2), (1, 3), (2, 4), (2, 6), (1, n // 2), (1, 4, 6)):
            g = make_graph(n, {tuple(sorted((i, (i + o) % n))) for i in range(n) for o in offsets})
            assert kernel_merges(g) == heap_merge_trace(g)[0]

    def test_graphs_of_three_or_more_components(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            parts = [random_connected_graph(rng, int(s), int(rng.integers(0, 2 * s)))
                     for s in rng.integers(2, 12, size=int(rng.integers(3, 6)))]
            offsets = np.cumsum([0] + [p.node_count for p in parts])
            relabel = rng.permutation(offsets[-1])
            g = make_graph(offsets[-1], relabel[np.concatenate([p.edges + o for p, o in zip(parts, offsets)])])
            merges = heap_merge_trace(g)[0]
            assert len(merges) == g.node_count - len(parts)
            assert kernel_merges(g) == merges
            with pytest.raises(DisconnectedGraphError):
                greedy_merge_trace(g)

    @pytest.mark.parametrize("leaves", [1, 2, 5, 63, 64, 65, 300])
    def test_heap_pops_count_the_skipped_starting_pairs(self, leaves):
        # a star: the centre and leaf 1 merge first, which leaves every
        # starting pair with a touched end, and the hot centre takes the rest
        # with nothing on the heap
        g = make_graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])
        assert greedy_merge_trace(g).heap_pops == leaves


def acceptance_oracle_graphs():
    """The small graphs ``test_modularity_oracle_equivalence`` enumerates."""
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        yield random_connected_graph(rng, n, int(rng.integers(0, n)))
        for _ in range(3):
            rng.integers(0, max(2, n // 2), size=n)


def random_planted_graphs(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(1, 5))
        sizes = rng.integers(4, 25, size=k)
        yield planted_graph(rng, sizes, rng.uniform(0.6, 1.0), rng.uniform(0.0, 0.08))


def modularity_bound(g):
    """The certified bound ``n (lambda + delta) / 2m + eps_q`` of ``g``."""
    deg = g.degrees()
    lam = _top_eigenvalue_bound(_modularity_matrix(g.edges, deg), int(deg.max()))
    return _certified_modularity(lam, g.node_count, g.edge_count)


def exact_modularity(g, labels):
    m = g.edge_count
    intra = np.bincount(labels[g.edges[:, 0]][labels[g.edges[:, 0]] == labels[g.edges[:, 1]]],
                        minlength=labels.max() + 1)
    dsum = np.bincount(labels, weights=g.degrees(), minlength=labels.max() + 1)
    return sum(Fraction(int(e), m) - Fraction(int(d), 2 * m) ** 2 for e, d in zip(intra, dsum))


class TestLeafCertificate:
    """The bound ``n (lambda + delta) / 2m + eps_q`` that lets
    ``recursive_partition`` skip the agglomeration on a leaf."""

    def test_bound_covers_the_exhaustive_maximum(self):
        for g in acceptance_oracle_graphs():
            assert modularity_bound(g) >= exhaustive_max_modularity(g)

    def test_bound_covers_the_agglomeration_peak(self):
        for g in random_planted_graphs(60, 21):
            assert modularity_bound(g) >= greedy_merge_trace(g).q_peak

    def test_eigenvalue_margin_covers_the_eigensolver(self):
        # the modularity matrix of K_n is J/n - I: lambda_max is exactly 0, yet
        # np.linalg.eigvalsh reports a negative top eigenvalue for many n
        # (35 of K_2..K_79 with OpenBLAS, the worst 0.4% of delta below 0)
        undershoots = 0
        for n in range(2, 80):
            g = make_graph(n, clique_edges(range(n)))
            b = _modularity_matrix(g.edges, g.degrees())
            top = np.linalg.eigvalsh(b)[-1]
            undershoots += top < 0.0
            assert _top_eigenvalue_bound(b, n - 1) == top + 2.0 * n * n * np.finfo(float).eps * (n - 1)
            assert _top_eigenvalue_bound(b, n - 1) >= 0.0
        assert undershoots > 0
        # the hypercube Q_d is d-regular with top modularity eigenvalue d - 2
        for d in range(2, 9):
            n = 2**d
            g = make_graph(n, [(i, i ^ (1 << k)) for i in range(n) for k in range(d) if i < i ^ (1 << k)])
            b = _modularity_matrix(g.edges, g.degrees())
            assert _top_eigenvalue_bound(b, d) >= d - 2

    def test_rounding_margin_covers_the_float_accumulation_of_q(self):
        # with the exact lambda_max of a clique (0), only eps_q stands between
        # the bound and a float peak that rounding pushed above 0
        overshoots = 0
        for n in range(2, 80):
            m = n * (n - 1) // 2
            q_peak = greedy_merge_trace(make_graph(n, clique_edges(range(n)))).q_peak
            overshoots += q_peak > 0.0
            assert _certified_modularity(0.0, n, m) >= q_peak
        assert overshoots > 0
        # eps_q against the exact modularity of the partition at the peak
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(3, 50))
            g = random_connected_graph(rng, n, int(rng.integers(0, 3 * n)))
            trace = greedy_merge_trace(g)
            cut = _cut_trace(n, trace, trace.peak_index)
            error = Fraction(trace.q_peak) - exact_modularity(g, cut.assignment)
            assert error <= Fraction(_certified_modularity(0.0, n, g.edge_count))

    def test_recursion_matches_the_uncertified_split(self):
        certified = runs = 0
        for g in random_planted_graphs(30, 23):
            _, peaks = split_recursively(g, 0.3)
            # the default threshold, and thresholds within 0.02 of each peak
            thresholds = {0.3} | {q + dq for q in peaks for dq in (-0.019, -1e-9, 0.0, 1e-9, 0.019)}
            for t in sorted(thresholds):
                expected, _ = split_recursively(g, t)
                counts = {}
                got = recursive_partition(g, t, counts)
                assert np.array_equal(got.assignment, expected.assignment), t
                certified += counts["certified_leaves"]
                runs += counts["cnm_runs"]
        assert certified > 100 and runs > 100

    def test_counts(self, monkeypatch):
        # three 8-cliques in a path: the whole graph splits, each clique is certified
        blocks = [range(8 * c, 8 * c + 8) for c in range(3)]
        g = make_graph(24, sum((clique_edges(b) for b in blocks), []) + [(7, 8), (15, 16)])
        whole, clique = greedy_merge_trace(g), greedy_merge_trace(make_graph(8, clique_edges(range(8))))
        counts = {}
        assert recursive_partition(g, 0.3, counts).community_count == 3
        assert counts == {"cnm_runs": 1, "certified_leaves": 3, "cnm_merges": 23,
                          "heap_pops": whole.heap_pops}
        # subgraphs above the size cap run the agglomeration
        monkeypatch.setattr(community, "_BOUND_MAX_NODES", 7)
        assert recursive_partition(g, 0.3, counts).community_count == 3
        assert counts == {"cnm_runs": 4, "certified_leaves": 0, "cnm_merges": 23 + 3 * 7,
                          "heap_pops": whole.heap_pops + 3 * clique.heap_pops}

    def test_detect_runs_on_the_large_graph_workload(self):
        # CNM runs per detect are pinned; change them only with a recorded reason.
        # Before the leaf certificate this world took 9 runs, 6 of them leaves.
        spec = WorldSpec(camera_count=450, point_count=6000, cluster_count=6,
                         noise_sigma=1e-3, outlier_fraction=0.0, seed=15)
        counts = {}
        part, _, _ = detect_communities(generate_world(spec).graph, counts=counts)
        assert (counts["cnm_runs"], counts["certified_leaves"]) == (3, 6)
        assert part.community_count == 6


def random_trace(rng, n):
    """Merges of randomly chosen live groups, kept id first: some run to a
    single group, others stop early as on a disconnected graph."""
    live = list(range(n))
    merges = []
    for _ in range(int(rng.integers(0, n))):
        a, b = rng.choice(live, size=2, replace=False).tolist()
        live.remove(b)
        merges.append((a, b, 0.0))
    return DendrogramTrace(merges=tuple(merges), q_peak=0.0, peak_index=0)


@pytest.mark.parametrize("seed", range(40))
def test_cut_trace_matches_the_union_find_replay(seed):
    rng = np.random.default_rng([seed, 41])
    n = int(rng.integers(2, 40))
    if seed % 2:
        trace = greedy_merge_trace(random_connected_graph(rng, n, int(rng.integers(0, 3 * n))))
    else:
        trace = random_trace(rng, n)
    for upto in range(-1, len(trace.merges)):
        got, expected = _cut_trace(n, trace, upto), union_find_cut(n, trace, upto)
        assert got.community_count == expected.community_count
        assert np.array_equal(got.assignment, expected.assignment)
