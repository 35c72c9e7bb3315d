"""Benchmark the greedy agglomeration kernel through ``greedy_merge_trace``.

Builds planted-partition graphs of growing size and prints the best of
``--repeats`` timings for each.  Usage:

    python benchmarks/bench_agglomeration.py            # quick sizes
    python benchmarks/bench_agglomeration.py --large     # adds two large cases

``--large`` adds a 3000-node planted graph and the match graph of a
2000-camera / 40,000-point / 16-cluster synthetic world.
"""
import argparse
import time

import numpy as np

from csfm.community import greedy_merge_trace
from csfm.graph import EpipolarGraph
from csfm.synth import WorldSpec, generate_world


def planted_graph(rng, n, cluster_size=40, p_in=0.3, bridges=2):
    """Random clustered graph: dense blocks plus sparse inter-block edges."""
    edges = set()
    k = max(n // cluster_size, 1)
    bounds = np.linspace(0, n, k + 1).astype(int)
    for c in range(k):
        lo, hi = bounds[c], bounds[c + 1]
        for i in range(lo, hi):
            for j in range(i + 1, hi):
                if rng.random() < p_in:
                    edges.add((i, j))
    for c in range(k):  # ring of bridges keeps it connected
        lo_a, hi_a = bounds[c], bounds[c + 1]
        lo_b, hi_b = bounds[(c + 1) % k], bounds[(c + 1) % k + 1]
        for _ in range(bridges):
            a = int(rng.integers(lo_a, hi_a))
            b = int(rng.integers(lo_b, hi_b))
            if a != b:
                edges.add((min(a, b), max(a, b)))
    # attach any isolated node to its neighbor so the graph is connected
    degree = np.zeros(n, dtype=int)
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    for v in np.flatnonzero(degree == 0):
        w = (v + 1) % n
        edges.add((min(v, w), max(v, w)))
    arr = np.array(sorted(edges), dtype=np.int64)
    return EpipolarGraph(node_count=n, edges=arr, weights=np.ones(arr.shape[0], dtype=np.int64))


def best_time(g, repeats):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        greedy_merge_trace(g)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument(
        "--large", action="store_true", help="include a 3000-node case and a 2000-camera world"
    )
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    sizes = [200, 400, 800, 1600]
    if args.large:
        sizes.append(3000)

    rng = np.random.default_rng(0)
    header = f"{'nodes':>7} {'edges':>8} {'time':>10}"
    print(header)
    print("-" * len(header))
    for n in sizes:
        g = planted_graph(rng, n)
        print(f"{n:>7} {g.edge_count:>8} {best_time(g, args.repeats):>9.3f}s")
    if args.large:
        t0 = time.perf_counter()
        world = generate_world(
            WorldSpec(camera_count=2000, point_count=40000, cluster_count=16, seed=11)
        )
        made = time.perf_counter() - t0
        g = world.graph
        print(
            f"{g.node_count:>7} {g.edge_count:>8} {best_time(g, args.repeats):>9.3f}s"
            f"  synth world, generated in {made:.2f}s"
        )


if __name__ == "__main__":
    main()
