"""Failure-path behavior of the staged pipeline."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import csfm
from csfm.errors import DisconnectedGraphError, ValidationError
from csfm.measurements import MIN_COVISIBLE, MeasurementGraph, pairwise_measurement
from csfm.pipeline import PipelineConfig, measure_pairs, pairwise_seed, run_pipeline
from csfm.reconstruction import Reconstruction, covisible_pairs
from csfm.rotations import IDENTITY_QUAT, random_quat
from csfm.synth import WorldSpec, generate_world

from helpers import random_sim3


def rec_of(cid, tracks, points, rng):
    n_cam = 2
    return Reconstruction(
        community_id=cid,
        camera_ids=np.arange(n_cam) + 10 * cid,
        camera_rotations=np.stack([random_quat(rng) for _ in range(n_cam)]),
        camera_centers=rng.normal(size=(n_cam, 3)),
        track_ids=tracks,
        points=points,
    )


def sick_pair_recs():
    """Communities 0-1 and 1-2 share plenty of clean tracks (40 and 30); 0-2
    share only 4 collinear points, so its estimate fails."""
    rng = np.random.default_rng(0)
    world = rng.uniform(-5, 5, size=(40, 3))
    f = [random_sim3(rng) for _ in range(3)]
    line = np.outer(np.arange(3, 7), np.array([1.0, 0.0, 0.0]))  # tracks 100..103
    recs = [
        rec_of(0, np.concatenate([np.arange(40), np.arange(100, 104)]),
               np.vstack([f[0].inverse().apply(world), line]), rng),
        rec_of(1, np.arange(40), f[1].inverse().apply(world), rng),
        rec_of(2, np.concatenate([np.arange(40, 80), np.arange(100, 104)]),
               np.vstack([f[2].inverse().apply(rng.uniform(-5, 5, size=(40, 3))), line]), rng),
    ]
    # give 1 and 2 a clean shared set so the graph stays connected
    shared12 = rng.uniform(-5, 5, size=(30, 3))
    recs[1] = rec_of(1, np.concatenate([np.arange(40), np.arange(200, 230)]),
                     np.vstack([f[1].inverse().apply(world), f[1].inverse().apply(shared12)]), rng)
    recs[2] = rec_of(2, np.concatenate([np.arange(100, 104), np.arange(200, 230)]),
                     np.vstack([line, f[2].inverse().apply(shared12)]), rng)
    return recs


def test_sick_pair_skipped_when_graph_stays_connected():
    candidates = covisible_pairs(sick_pair_recs(), MIN_COVISIBLE)
    assert [(a.community_id, b.community_id) for a, b, _, _ in candidates] == [(0, 1), (0, 2), (1, 2)]
    meas = measure_pairs(candidates, seed=3)
    assert [(i, j) for i, j, _, _, _ in meas] == [(0, 1), (1, 2)]
    mg = MeasurementGraph.from_rows(3, meas)
    assert mg.is_connected


def test_shared_track_counts_follow_the_measured_rows(tmp_path, caplog):
    # the skipped pair has no row, so it has no count either
    res = run_pipeline(PipelineConfig(out_dir=str(tmp_path), seed=3, reconstructions=sick_pair_recs()))
    assert "skipping pair (0, 2)" in caplog.text
    stats = {s["name"]: s["stats"] for s in res.report["stages"]}["pairwise"]
    iterations = []
    for pair in covisible_pairs(sick_pair_recs(), MIN_COVISIBLE):
        i, j = pair[0].community_id, pair[1].community_id
        if (i, j) != (0, 2):
            counts = {}
            pairwise_measurement(pair, pairwise_seed(3, i, j), counts)
            iterations.append(counts["iterations"])
    assert stats == {"measured_pairs": 2, "candidate_pairs": 3, "shared_tracks": [40, 30],
                     "ransac_iterations": iterations}


def test_pairwise_seed_is_order_independent():
    assert pairwise_seed(5, 1, 2) == pairwise_seed(5, 1, 2)
    assert pairwise_seed(5, 1, 2) != pairwise_seed(5, 2, 1)
    assert pairwise_seed(5, 1, 2) != pairwise_seed(6, 1, 2)


def test_disconnected_recs_name_the_pairwise_stage(tmp_path):
    rng = np.random.default_rng(1)
    pts = rng.uniform(-5, 5, size=(30, 3))
    recs = (
        rec_of(0, np.arange(30), pts, rng),
        rec_of(1, np.arange(30), pts, rng),
        rec_of(2, np.arange(100, 130), pts, rng),
    )
    with pytest.raises(DisconnectedGraphError, match="pairwise"):
        run_pipeline(
            PipelineConfig(out_dir=str(tmp_path), seed=1, reconstructions=recs)
        )


@pytest.mark.parametrize("seed", [-1, 2**63, 1.0])
def test_seed_outside_seed_sequence_range_rejected_before_any_file(tmp_path, seed):
    # the spec's own seed is valid; run_pipeline replaces it with config.seed
    out = tmp_path / "run"
    with pytest.raises(ValidationError, match="seed"):
        run_pipeline(PipelineConfig(out_dir=str(out), seed=seed, spec=WorldSpec(seed=0)))
    assert not out.exists()


def test_pairwise_refuses_overflowing_coordinates_instead_of_hanging(tmp_path):
    # beyond about 1e154 the cross-covariance a0.T @ b0 overflows; LAPACK,
    # handed the result, may never return, so the command runs in a child
    # process with a timeout
    spec = WorldSpec(seed=5, camera_count=60, point_count=600, cluster_count=3, noise_sigma=1e-3)
    run_pipeline(PipelineConfig(out_dir=str(tmp_path), seed=5, world=generate_world(spec)))
    for path in tmp_path.glob("rec_*.json"):
        rec = json.loads(path.read_text())
        rec["points"] = (np.array(rec["points"]) * 1e154).tolist()
        path.write_text(json.dumps(rec))
    src = str(Path(csfm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-m", "csfm.cli", "pairwise", "--graph", str(tmp_path / "eg.json"),
         "--partition", str(tmp_path / "partition.json"), "--recs", str(tmp_path),
         "--seed", "1", "-o", str(tmp_path / "m.json")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode in (2, 4), result.stderr
    assert "similarity fit overflows" in result.stderr
    assert "Traceback" not in result.stderr + result.stdout
