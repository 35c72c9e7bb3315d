import numpy as np
import pytest

from csfm.community import (
    Partition,
    absorb_small,
    best_partition,
    build_community_graph,
    greedy_merge_trace,
    modularity,
    recursive_partition,
)
from csfm.errors import DisconnectedGraphError, ValidationError

from helpers import (
    brute_modularity,
    clique_edges,
    exhaustive_max_modularity,
    make_graph,
    random_connected_graph,
    scan_merge_trace,
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
    """The heap kernel must reproduce the full-rescan oracle exactly: same
    merge pairs and bit-identical Q after every merge."""

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
