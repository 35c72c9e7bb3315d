"""Tests of the benchmark's own output checks.

    python3 -m pytest perfbench/test_checks.py
"""
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def test_similarity_fit_recovers_a_planted_sim3():
    rng = np.random.default_rng(3)
    src = rng.uniform(-10, 10, size=(50, 3))
    s, R, t = 0.37, random_rotation(rng), np.array([4.0, -2.5, 9.0])
    fs, fR, ft = checks.similarity_fit(src, s * src @ R.T + t)
    assert fs == pytest.approx(s, rel=1e-12)
    np.testing.assert_allclose(fR, R, atol=1e-12)
    np.testing.assert_allclose(ft, t, atol=1e-10)


def test_center_errors_vanish_for_a_transformed_copy():
    rng = np.random.default_rng(4)
    truth = rng.uniform(-30, 30, size=(40, 3))
    s, R, t = 2.5, random_rotation(rng), np.array([-1.0, 7.0, 3.0])
    model = s * truth @ R.T + t
    truth_doc = {"cameras": [{"id": i, "c": list(c)} for i, c in enumerate(truth)]}
    model_doc = {"cameras": [{"id": i, "c": list(c)} for i, c in enumerate(model)]}
    assert np.max(checks.center_errors(model_doc, truth_doc)) < 1e-9
    model_doc["cameras"][5]["c"][0] += 2.5  # one truth unit at scale 2.5
    assert np.max(checks.center_errors(model_doc, truth_doc)) > 0.5


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_strict_load_flags_non_finite_numbers(tmp_path, token):
    path = tmp_path / "merged.json"
    path.write_text('{"points": [{"xyz": [0.5, %s, 1.0]}]}\n' % token)
    with pytest.raises(checks.CheckError):
        checks.strict_load(path)


def test_strict_load_accepts_finite_json(tmp_path):
    path = tmp_path / "eval.json"
    path.write_text(json.dumps({"median_center_error": 0.25, "n": 3}))
    assert checks.strict_load(path) == {"median_center_error": 0.25, "n": 3}


def test_digest_flags_a_one_byte_change_and_skips_the_report(tmp_path):
    (tmp_path / "merged.json").write_text('{"a": 1}\n')
    (tmp_path / "report.json").write_text('{"seconds": 1.5}\n')
    before = checks.digest(tmp_path)
    (tmp_path / "report.json").write_text('{"seconds": 2.5}\n')
    assert checks.digest_mismatch(before, checks.digest(tmp_path)) == []
    (tmp_path / "merged.json").write_text('{"a": 2}\n')
    assert checks.digest_mismatch(before, checks.digest(tmp_path)) == ["merged.json"]


def test_modularity_matches_a_hand_computed_value():
    # two triangles joined by one edge: Q = 2 * (3/7 - (7/14)^2) = 5/14
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    graph = {"nodes": [f"n{i}" for i in range(6)], "edges": [{"i": a, "j": b} for a, b in edges]}
    partition = {"q_max": 5 / 14, "communities": [[0, 1, 2], [3, 4, 5]]}
    labels = [0, 0, 0, 1, 1, 1]
    assert checks.modularity_problems(graph, partition, labels) == []
    partition["q_max"] += 1e-6
    assert len(checks.modularity_problems(graph, partition, labels)) == 1
    partition["q_max"] = 5 / 14
    assert len(checks.modularity_problems(graph, partition, [0, 1, 2, 0, 1, 2])) == 2


def test_ply_vertex_count(tmp_path):
    path = tmp_path / "cloud.ply"
    header = ["ply", "format ascii 1.0", "element vertex 2", "property float x", "end_header"]
    path.write_text("\n".join(header + ["1 2 3", "4 5 6"]) + "\n")
    assert checks.ply_vertex_count(path) == 2
    path.write_text("\n".join(header + ["1 2 3"]) + "\n")
    with pytest.raises(checks.CheckError):
        checks.ply_vertex_count(path)


def test_accuracy_tolerance_scales_with_the_world():
    doc = {"cameras": [{"id": 0, "c": [0, 0, 0]}, {"id": 1, "c": [40, 10, 2]}]}
    assert math.isclose(checks.accuracy_tolerance(doc), 0.04)
