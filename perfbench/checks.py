"""Output checks computed apart from csfm.

Nothing here imports csfm: the similarity fit is the benchmark's own
Umeyama/Horn closed form, modularity is recomputed with networkx, and the
artifact files are parsed with a JSON reader that refuses non-finite numbers.
"""
from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

EXCLUDED = frozenset({"report.json"})  # report.json records wall-clock times
ACCURACY_REL_TOL = 1e-3  # of the ground-truth camera extent
MODULARITY_TOL = 1e-9


class CheckError(Exception):
    pass


def _reject(token):
    raise CheckError(f"non-finite number {token}")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise CheckError(f"non-finite number {text}")
    return value


def strict_load(path):
    """Parse a JSON file, refusing ``NaN``, ``Infinity`` and overflowing floats."""
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read(), parse_constant=_reject, parse_float=_finite_float)
    except (CheckError, ValueError) as exc:
        raise CheckError(f"{Path(path).name}: {exc}") from exc


def artifact_files(directory) -> list:
    return sorted(
        p for p in Path(directory).iterdir() if p.is_file() and p.name not in EXCLUDED
    )


def digest(directory) -> dict:
    """sha256 of every deterministic artifact in a directory, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in artifact_files(directory)}


def artifact_bytes(directory) -> int:
    return sum(p.stat().st_size for p in artifact_files(directory))


def digest_mismatch(expected: dict, actual: dict) -> list:
    names = sorted(set(expected) | set(actual))
    return [n for n in names if expected.get(n) != actual.get(n)]


def similarity_fit(src, dst):
    """Least-squares ``(s, R, t)`` with ``dst ~ s R src + t`` (Umeyama 1991)."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    mu_s, mu_d = src.mean(axis=0), dst.mean(axis=0)
    a, b = src - mu_s, dst - mu_d
    U, D, Vt = np.linalg.svd(b.T @ a / len(src))
    S = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        S[2, 2] = -1.0
    R = U @ S @ Vt
    s = float(np.trace(np.diag(D) @ S) / (np.sum(a * a) / len(src)))
    t = mu_d - s * R @ mu_s
    return s, R, t


def camera_centers(doc) -> dict:
    return {int(c["id"]): c["c"] for c in doc["cameras"]}


def center_errors(model_doc, truth_doc) -> np.ndarray:
    """Camera-center errors of a model after its similarity fit onto the truth."""
    model, truth = camera_centers(model_doc), camera_centers(truth_doc)
    ids = sorted(set(model) & set(truth))
    if len(ids) < 3:
        raise CheckError(f"only {len(ids)} cameras in common with the ground truth")
    src = np.array([model[i] for i in ids], dtype=float)
    dst = np.array([truth[i] for i in ids], dtype=float)
    s, R, t = similarity_fit(src, dst)
    return np.linalg.norm(s * src @ R.T + t - dst, axis=1)


def accuracy_tolerance(truth_doc) -> float:
    centers = np.array(list(camera_centers(truth_doc).values()), dtype=float)
    return ACCURACY_REL_TOL * float(np.max(np.ptp(centers, axis=0)))


def modularity_problems(graph_doc, partition_doc, labels) -> list:
    """Recompute the partition's modularity with networkx and check purity."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(len(graph_doc["nodes"])))
    graph.add_edges_from((e["i"], e["j"]) for e in graph_doc["edges"])
    groups = [set(c) for c in partition_doc["communities"]]
    problems = []
    q = nx.community.modularity(graph, groups, weight=None)
    if abs(q - partition_doc["q_max"]) > MODULARITY_TOL:
        problems.append(f"q_max {partition_doc['q_max']!r} but networkx gives {q!r}")
    for cid, group in enumerate(partition_doc["communities"]):
        top = Counter(labels[v] for v in group).most_common(1)[0][1]
        if 2 * top <= len(group):
            problems.append(f"community {cid} is not drawn mostly from one planted cluster")
    return problems


def ply_vertex_count(path) -> int:
    """Vertex count of an ASCII PLY file; the header must match the body."""
    lines = Path(path).read_text().splitlines()
    end = lines.index("end_header")
    declared = [int(l.split()[2]) for l in lines[:end] if l.startswith("element vertex ")]
    body = len(lines) - end - 1
    if declared != [body]:
        raise CheckError(f"PLY header declares {declared} vertices, body has {body}")
    return body


def check_operation(op_dir, input_dir):
    """All checks of one operation's artifacts.

    ``input_dir`` holds the world, graph and labels the operation started
    from (the operation directory itself for ``run_pipeline``).  Returns
    ``(center errors, accuracy tolerance, problems)``; the errors are empty
    when the model cannot be compared with the truth.
    """
    problems = []
    docs = {}
    for d in dict.fromkeys([Path(input_dir), Path(op_dir)]):
        for path in artifact_files(d):
            if path.suffix == ".json":
                try:
                    docs[path.name] = strict_load(path)
                except CheckError as exc:
                    problems.append(str(exc))
    needed = ["eg.json", "partition.json", "truth-labels.json", "world.json",
              "merged_refined.json"]
    missing = [n for n in needed if n not in docs]
    if missing:
        return [], 0.0, problems + [f"missing or unreadable artifacts: {missing}"]
    problems += modularity_problems(
        docs["eg.json"], docs["partition.json"], docs["truth-labels.json"]["labels"]
    )
    ply = Path(op_dir) / "cloud.ply"
    if ply.exists():
        try:
            count = ply_vertex_count(ply)
            points = len(docs["merged_refined.json"]["points"])
            if count != points:
                problems.append(f"PLY has {count} vertices, merged model {points} points")
        except (CheckError, ValueError) as exc:
            problems.append(f"cloud.ply: {exc}")
    try:
        errors = center_errors(docs["merged_refined.json"], docs["world.json"])
    except CheckError as exc:
        return [], 0.0, problems + [str(exc)]
    return errors, accuracy_tolerance(docs["world.json"]), problems
