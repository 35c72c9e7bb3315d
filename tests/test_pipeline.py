import dataclasses
import json
import re
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import orjson
import pytest
from click.testing import CliRunner

from csfm import averaging, l1, reconstruction, synth
from csfm.alignment import MIN_SAMPLE
from csfm.averaging import averaging_residuals, load_transforms, recompute_pairwise_translations
from csfm.cli import main
from csfm.community import (
    DEFAULT_MIN_COMMUNITY_SIZE,
    DEFAULT_Q_THRESHOLD,
    build_community_graph,
    detect_communities,
    load_partition,
)
from csfm.errors import ValidationError
from csfm.graph import load_graph, save_graph
from csfm.measurements import load_measurements, pairwise_measurement
from csfm.merging import load_merged, save_merged
from csfm.pipeline import DATA_ARTIFACTS, PipelineConfig, measure_graph, pairwise_seed, run_pipeline
from csfm.reconstruction import (
    Reconstruction,
    covisible_pairs,
    load_reconstruction,
    save_reconstruction,
)
from csfm.rotations import IDENTITY_QUAT
from csfm.synth import (
    WorldSpec,
    fracture,
    generate_world,
    load_world,
    read_world,
    save_world,
)

from helpers import BENCH_WORLDS, PROVENANCE_FIELDS, loop_averaging_residuals, per_record_form

THREE = dict(
    camera_count=120,
    point_count=3000,
    cluster_count=3,
    cluster_spread=2.0,
    cluster_separation=20.0,
    visibility_radius=9.0,
    min_shared_tracks=15,
    noise_sigma=1e-3,
    outlier_fraction=0.1,
)


def read_artifacts(out_dir):
    out = {}
    for p in sorted(Path(out_dir).iterdir()):
        if p.name == "report.json":
            continue  # wall-clock times; everything else must be stable
        out[p.name] = p.read_bytes()
    return out


class TestRunPipeline:
    def test_three_community_world(self, tmp_path):
        world = generate_world(WorldSpec(seed=21, **THREE))
        res = run_pipeline(PipelineConfig(out_dir=str(tmp_path), seed=21, world=world))
        assert res.partition.community_count == 3
        merged = res.evaluation["merged"]
        assert merged["median_center_error"] < 5 * THREE["noise_sigma"]
        for name in DATA_ARTIFACTS:
            assert (tmp_path / name).exists(), name
        report = json.loads((tmp_path / "report.json").read_text())
        names = [s["name"] for s in report["stages"]]
        assert names == [
            "world",
            "detect",
            "fracture",
            "pairwise",
            "average",
            "merge",
            "refine",
            "eval",
        ]
        assert all(s["seconds"] >= 0 for s in report["stages"])
        # the process's peak resident set after each stage, which never falls
        peaks = [s["peak_rss_mb"] for s in report["stages"]]
        assert all(isinstance(v, float) and v > 0 for v in peaks)
        assert peaks == sorted(peaks)

    def test_single_community_pass_through(self, tmp_path):
        spec = WorldSpec(
            camera_count=40, point_count=800, cluster_count=1, noise_sigma=0.0, seed=22
        )
        world = generate_world(spec)
        res = run_pipeline(PipelineConfig(out_dir=str(tmp_path), seed=22, world=world))
        assert res.partition.community_count == 1
        assert res.evaluation["merged"]["median_center_error"] < 1e-9

    def test_refine_reports_its_log_scale_change(self, tmp_path):
        world = generate_world(WorldSpec(seed=26, **THREE))
        stats = []
        for run in ("r1", "r2"):
            out = tmp_path / run
            run_pipeline(PipelineConfig(out_dir=str(out), seed=26, world=world))
            stages = json.loads((out / "report.json").read_text())["stages"]
            stats.append([s for s in stages if s["name"] == "refine"][0]["stats"])
        assert stats[0] == stats[1]
        change = stats[0]["log_scale_change"]
        assert set(stats[0]) == {"skipped", "iterations", "initial_cost", "final_cost",
                                 "log_scale_change"}
        s_in = [tr.s for tr in load_transforms(out / "transforms.json").values()]
        s_out = [tr.s for tr in load_transforms(out / "transforms_refined.json").values()]
        assert len(change) == len(s_in) == 3
        assert change == (np.log(s_out) - np.log(s_in)).tolist()
        assert change[0] == 0.0

    def test_rerun_is_byte_identical(self, tmp_path):
        world = generate_world(WorldSpec(seed=24, **THREE))
        run_pipeline(PipelineConfig(out_dir=str(tmp_path / "r1"), seed=24, world=world))
        run_pipeline(PipelineConfig(out_dir=str(tmp_path / "r2"), seed=24, world=world))
        a, b = read_artifacts(tmp_path / "r1"), read_artifacts(tmp_path / "r2")
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], f"{name} differs between runs"
        # the detect counters are deterministic too, though report.json is no data artifact
        assert "report.json" not in DATA_ARTIFACTS
        detect = [
            [s for s in json.loads((tmp_path / r / "report.json").read_text())["stages"]
             if s["name"] == "detect"][0]["stats"]
            for r in ("r1", "r2")
        ]
        assert detect[0] == detect[1]
        assert (detect[0]["cnm_runs"], detect[0]["certified_leaves"]) == (1, 3)

    def test_stages_report_the_bytes_of_the_files_they_wrote(self, tmp_path):
        files = {
            "synth": [],
            "world": ["world.json", "eg.json", "truth-labels.json"],
            "detect": ["partition.json"],
            "fracture": ["rec_0.json", "rec_1.json", "rec_2.json"],
            "pairwise": ["measurements.json"],
            "average": ["measurements_with_t.json", "transforms.json"],
            "merge": ["merged.json"],
            "refine": ["transforms_refined.json", "merged_refined.json"],
            "eval": ["eval.json"],
        }
        written = []
        # the third run rewrites the first run's files in place
        for run in ("r1", "r2", "r1"):
            out = tmp_path / run
            run_pipeline(PipelineConfig(out_dir=str(out), seed=28, spec=WorldSpec(seed=28, **THREE)))
            stages = json.loads((out / "report.json").read_text())["stages"]
            written.append({s["name"]: s["bytes_written"] for s in stages})
            assert written[-1] == {
                name: sum((out / f).stat().st_size for f in names) for name, names in files.items()
            }
        assert written[0] == written[1] == written[2]

    def test_synth_and_world_stages_report_the_incidence_and_edge_count(self, tmp_path):
        run_pipeline(PipelineConfig(out_dir=str(tmp_path), seed=28, spec=WorldSpec(seed=28, **THREE)))
        stages = json.loads((tmp_path / "report.json").read_text())["stages"]
        stats = {s["name"]: s["stats"] for s in stages}
        world = generate_world(WorldSpec(seed=28, **THREE))
        packed = sum(a.nbytes for block in zip(*world.visible) for a in block)
        blocks = -(-THREE["camera_count"] // synth._CAMERA_BLOCK)
        edges = len(json.loads((tmp_path / "eg.json").read_text())["edges"])
        assert stats["synth"] == stats["world"] == {
            "incidence_bytes": packed, "camera_blocks": blocks, "match_edges": edges}
        assert 0 < packed and 0 < edges

    def test_benchmark_spellings_change_no_byte(self, tmp_path):
        # PipelineConfig.workers and ``pairwise --workers`` are read by
        # nothing; they stay only because perfbench/run.py still passes them
        world = generate_world(WorldSpec(seed=27, **THREE))
        run_pipeline(PipelineConfig(out_dir=str(tmp_path / "plain"), seed=27, world=world))
        run_pipeline(
            PipelineConfig(out_dir=str(tmp_path / "w2"), seed=27, world=world, workers=2)
        )
        assert read_artifacts(tmp_path / "plain") == read_artifacts(tmp_path / "w2")
        run, meas = tmp_path / "plain", tmp_path / "measurements_w2.json"
        result = CliRunner().invoke(main, [
            "pairwise", "--graph", str(run / "eg.json"), "--partition", str(run / "partition.json"),
            "--recs", str(run), "--seed", "27", "--workers", "2", "-o", str(meas)])
        assert result.exit_code == 0, result.output
        assert meas.read_bytes() == (run / "measurements.json").read_bytes()


def save_recs(recs_dir, members, rng):
    """Write one ``rec_<c>.json`` per ``(tracks, points)`` of ``members``,
    each with three cameras."""
    recs_dir.mkdir()
    for cid, (tracks, points) in enumerate(members):
        rec = Reconstruction(
            community_id=cid,
            camera_ids=np.arange(3) + 10 * cid,
            camera_rotations=np.tile(IDENTITY_QUAT, (3, 1)),
            camera_centers=rng.normal(size=(3, 3)),
            track_ids=tracks,
            points=points,
        )
        save_reconstruction(rec, recs_dir / f"rec_{cid}.json")


class TestCli:
    def run_ok(self, args):
        result = CliRunner().invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output
        return result

    def test_full_command_chain(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**THREE, "noise_sigma": 0.0, "outlier_fraction": 0.0}))
        data = tmp_path / "data"
        self.run_ok(["synth", "--spec", str(spec_path), "--out", str(data), "--seed", "31"])
        assert (data / "world.json").exists()
        assert (data / "eg.json").exists()
        assert (data / "truth-labels.json").exists()
        assert sorted(p.name for p in data.glob("rec_*.json")) == [
            "rec_0.json",
            "rec_1.json",
            "rec_2.json",
        ]

        part = tmp_path / "partition.json"
        self.run_ok(
            ["detect", "--graph", str(data / "eg.json"), "--q-threshold", "0.3",
             "--min-size", "20", "-o", str(part)]
        )
        payload = json.loads(part.read_text())
        assert set(payload) == {"q_max", "communities", "flagged_isolated"}
        assert len(payload["communities"]) == 3
        assert payload["q_max"] > 0.3

        meas = tmp_path / "measurements.json"
        self.run_ok(
            ["pairwise", "--graph", str(data / "eg.json"), "--partition", str(part),
             "--recs", str(data), "--seed", "31", "-o", str(meas)]
        )
        transforms = tmp_path / "transforms.json"
        self.run_ok(["average", "--measurements", str(meas), "--recs", str(data), "-o", str(transforms)])
        merged = tmp_path / "merged.json"
        self.run_ok(["merge", "--recs", str(data), "--transforms", str(transforms), "-o", str(merged)])
        refined = tmp_path / "transforms_refined.json"
        self.run_ok(
            ["refine", "--recs", str(data), "--transforms", str(transforms),
             "-o", str(refined), "--merged-out", str(tmp_path / "merged_refined.json")]
        )
        evalout = tmp_path / "eval.json"
        self.run_ok(["eval", "--merged", str(merged), "--world", str(data / "world.json"), "-o", str(evalout)])
        metrics = json.loads(evalout.read_text())
        assert metrics["median_center_error"] < 1e-6
        ply = tmp_path / "cloud.ply"
        self.run_ok(["export-ply", "--merged", str(merged), "--color-by-community", "-o", str(ply)])
        assert ply.read_text().startswith("ply\n")

    def test_pipeline_command(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(THREE))
        result = self.run_ok(
            ["pipeline", "--spec", str(spec_path), "--out", str(tmp_path / "run"), "--seed", "32"]
        )
        evaluation = json.loads((tmp_path / "run" / "eval.json").read_text())
        merged, refined = (evaluation[k]["median_center_error"] for k in ("merged", "refined"))
        assert f"median center error: {merged:.6g} merged, {refined:.6g} refined" in result.output
        assert (tmp_path / "run" / "merged.json").exists()

    def test_validation_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nodes": ["a", "b"], "edges": [{"i": 0, "j": 0}]}))
        result = CliRunner().invoke(main, ["detect", "--graph", str(bad), "-o", str(tmp_path / "p.json")])
        assert result.exit_code == 2

    def test_numeric_failure_exits_3(self, tmp_path):
        # a merged model whose camera centers share nothing with the truth:
        # the gauge alignment finds no consensus, a numeric failure
        rng = np.random.default_rng(9)
        world = generate_world(
            WorldSpec(camera_count=40, point_count=800, cluster_count=1, seed=9)
        )
        run = tmp_path / "data"
        run_pipeline(PipelineConfig(out_dir=str(run), seed=9, world=world))
        merged = json.loads((run / "merged.json").read_text())
        for cam in merged["cameras"]:
            cam["c"] = [float(v) for v in rng.uniform(-50, 50, size=3)]
        bad = tmp_path / "scrambled.json"
        bad.write_text(json.dumps(merged))
        result = CliRunner().invoke(
            main,
            ["eval", "--merged", str(bad), "--world", str(run / "world.json"),
             "-o", str(tmp_path / "eval.json")],
        )
        assert result.exit_code == 3

    def test_disconnected_measurements_exit_4(self, tmp_path):
        # three communities, the third sharing no tracks with the others:
        # the pairwise stage must halt with the disconnected-graph code
        rng = np.random.default_rng(0)
        recs_dir = tmp_path / "recs"
        pts = rng.uniform(-5, 5, size=(30, 3))
        save_recs(recs_dir, [(np.arange(30), pts), (np.arange(30), pts), (np.arange(100, 130), pts)], rng)
        result = CliRunner().invoke(
            main,
            ["pipeline", "--recs", str(recs_dir), "--out", str(tmp_path / "run"), "--seed", "1"],
        )
        assert result.exit_code == 4
        assert "pairwise" in result.output

    def test_refused_pair_that_disconnects_exits_4_naming_it(self, tmp_path):
        # communities 0 and 1 share four tracks, random on both sides, so
        # their fit fails; 1 and 2 share thirty exact ones
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(34, 3))
        moved = rng.normal(size=(4, 3))
        recs_dir = tmp_path / "recs"
        save_recs(recs_dir, [(np.arange(4), pts[:4]),
                             (np.arange(34), np.vstack([moved, pts[4:]])),
                             (np.arange(4, 34), pts[4:])], rng)
        result = CliRunner().invoke(
            main,
            ["pipeline", "--recs", str(recs_dir), "--out", str(tmp_path / "run"), "--seed", "1"],
        )
        assert result.exit_code == 4, result.output
        assert "pairwise measurement (refused pairs: [(0, 1)]) needs a connected graph" in result.output
        assert not (tmp_path / "run" / "measurements.json").exists()

    def test_average_refuses_measurements_of_other_reconstructions(self, tmp_path):
        # measurements of one run given with another run's reconstructions,
        # in which community 2 holds other tracks
        rng = np.random.default_rng(2)
        pts = rng.uniform(-5, 5, size=(30, 3))
        save_recs(tmp_path / "a", [(np.arange(30), pts)] * 3, rng)
        save_recs(tmp_path / "b", [(np.arange(30), pts)] * 2 + [(np.arange(100, 130), pts)], rng)
        self.run_ok(["pipeline", "--recs", str(tmp_path / "a"), "--out", str(tmp_path / "run"),
                     "--seed", "1"])
        result = CliRunner().invoke(main, [
            "average", "--measurements", str(tmp_path / "run" / "measurements.json"),
            "--recs", str(tmp_path / "b"), "-o", str(tmp_path / "transforms.json")])
        assert result.exit_code == 2, result.output
        assert "measured pair (0, 2) shares no track" in result.output
        assert not (tmp_path / "transforms.json").exists()

    def test_stage_rerun_from_disk_matches_pipeline(self, tmp_path):
        # re-running the detect, pairwise and averaging stages from their
        # on-disk inputs reproduces the pipeline's artifacts byte for byte
        world = generate_world(WorldSpec(seed=33, **THREE))
        run = tmp_path / "run"
        run_pipeline(PipelineConfig(out_dir=str(run), seed=33, world=world))
        part = tmp_path / "partition_redo.json"
        self.run_ok(["detect", "--graph", str(run / "eg.json"), "-o", str(part)])
        assert part.read_bytes() == (run / "partition.json").read_bytes()
        meas = tmp_path / "measurements_redo.json"
        self.run_ok(
            ["pairwise", "--graph", str(run / "eg.json"), "--partition", str(part),
             "--recs", str(run), "--seed", "33", "-o", str(meas)]
        )
        assert meas.read_bytes() == (run / "measurements.json").read_bytes()
        redo = tmp_path / "transforms_redo.json"
        self.run_ok(
            ["average", "--measurements", str(run / "measurements.json"),
             "--recs", str(run), "-o", str(redo)]
        )
        assert redo.read_bytes() == (run / "transforms.json").read_bytes()


RERUN_CHAIN = [
    ["average", "--measurements", "{run}/measurements.json", "--recs", "{run}",
     "-o", "{redo}/transforms.json"],
    ["merge", "--recs", "{run}", "--transforms", "{run}/transforms.json",
     "-o", "{redo}/merged.json"],
    ["refine", "--recs", "{run}", "--transforms", "{run}/transforms.json",
     "-o", "{redo}/transforms_refined.json", "--merged-out", "{redo}/merged_refined.json"],
]


@pytest.mark.parametrize("seed", [21, 33, 34])
def test_average_merge_refine_rerun_from_disk_matches_pipeline(tmp_path, seed):
    world = generate_world(WorldSpec(seed=seed, **THREE))
    run, redo = tmp_path / "run", tmp_path / "redo"
    run_pipeline(PipelineConfig(out_dir=str(run), seed=seed, world=world))
    redo.mkdir()
    for template in RERUN_CHAIN:
        result = CliRunner().invoke(main, [a.format(run=run, redo=redo) for a in template])
        assert result.exit_code == 0, result.output
    for name in ("transforms.json", "merged.json", "transforms_refined.json", "merged_refined.json"):
        assert (redo / name).read_bytes() == (run / name).read_bytes(), name


# a dense-points world where detected communities 0 and 1 share 7 tracks but
# no match edge: synth joins two cameras only when they share
# min_shared_tracks (15) tracks
EDGELESS_PAIR_SPEC = WorldSpec(
    camera_count=180, point_count=27000, cluster_count=4, cluster_spread=1.5,
    noise_sigma=1e-3, outlier_fraction=0.0, seed=25,
)


def measured_pairs(path):
    return [(m["i"], m["j"]) for m in json.loads(Path(path).read_text())]


def test_every_entry_point_measures_the_pairs_that_share_tracks(tmp_path):
    world = generate_world(EDGELESS_PAIR_SPEC)
    run = tmp_path / "run"
    res = run_pipeline(PipelineConfig(out_dir=str(run), seed=25, world=world))
    assert (0, 1) not in build_community_graph(world.graph, res.partition)
    pairs = measured_pairs(run / "measurements.json")
    assert pairs == [(0, 1), (0, 3), (1, 2), (2, 3)]
    stats = {s["name"]: s["stats"] for s in res.report["stages"]}
    recs = tuple(fracture(world, res.partition).reconstructions)
    shared = {(a.community_id, b.community_id): ia.size for a, b, ia, _ in covisible_pairs(recs)}
    iterations = []
    for pair in covisible_pairs(recs):  # every candidate is measured
        counts = {}
        pairwise_measurement(
            pair, pairwise_seed(25, pair[0].community_id, pair[1].community_id), counts)
        iterations.append(counts["iterations"])
    assert stats["pairwise"] == {"measured_pairs": 4, "candidate_pairs": 4,
                                 "shared_tracks": [shared[p] for p in pairs],
                                 "ransac_iterations": iterations}

    from_recs = tmp_path / "from_recs"
    run_pipeline(PipelineConfig(out_dir=str(from_recs), seed=25, reconstructions=recs))
    assert (from_recs / "measurements.json").read_bytes() == (run / "measurements.json").read_bytes()

    meas = tmp_path / "measurements_cli.json"
    result = CliRunner().invoke(main, [
        "pairwise", "--graph", str(run / "eg.json"), "--partition", str(run / "partition.json"),
        "--recs", str(run), "--seed", "25", "-o", str(meas)])
    assert result.exit_code == 0, result.output
    assert measured_pairs(meas) == pairs


def test_a_pair_sharing_only_a_minimal_sample_is_not_measured(tmp_path):
    # communities 0 and 3 of this dense-points world share exactly RANSAC's
    # 3-point minimal sample; a fit no track can vote against, averaged with
    # the same weight as the well-supported pairs, raised the merged median
    # center error from 0.00204 to 0.00545
    world = generate_world(WorldSpec(**{**EDGELESS_PAIR_SPEC.to_json(), "seed": 54}))
    res = run_pipeline(PipelineConfig(out_dir=str(tmp_path), seed=54, world=world))
    recs = fracture(world, res.partition).reconstructions
    shared = {(a.community_id, b.community_id): ia.size for a, b, ia, _ in covisible_pairs(recs)}
    assert shared[(0, 3)] == MIN_SAMPLE
    assert measured_pairs(tmp_path / "measurements.json") == [(0, 1), (1, 2), (2, 3)]
    assert res.evaluation["merged"]["median_center_error"] < 0.0025


def test_a_ring_with_two_three_inlier_pairs_reconstructs(tmp_path):
    # the ``staged-cli`` world at seed 4 measures one ring of 16 pairs, two
    # of them on a consensus of 3 inliers of 5 shared tracks.  Those sets are
    # right, and the ring has no other path between their ends: refusing
    # them would split the graph
    world = generate_world(WorldSpec(**BENCH_WORLDS["staged-cli"], seed=4))
    res = run_pipeline(PipelineConfig(out_dir=str(tmp_path), seed=4, world=world))
    stats = {s["name"]: s["stats"] for s in res.report["stages"]}["pairwise"]
    assert (stats["candidate_pairs"], stats["measured_pairs"]) == (16, 16)
    mg = load_measurements(tmp_path / "measurements.json")
    rows = dict(zip(zip(mg.i.tolist(), mg.j.tolist()), zip(mg.inliers.tolist(), stats["shared_tracks"])))
    assert rows[2, 3] == rows[14, 15] == (3, 5)
    assert sum(n == 3 for n, _ in rows.values()) == 2
    # perfbench's accuracy bound: 1e-3 of the camera extent
    bound = 1e-3 * np.ptp(world.camera_centers, axis=0).max()
    for stage in ("merged", "refined"):
        assert res.evaluation[stage]["median_center_error"] <= bound, stage


def test_each_community_pair_is_joined_once(tmp_path, monkeypatch):
    # the pairwise stage joins each of the K(K-1)/2 community pairs once and
    # hands a candidate's shared tracks on to its measurement; the
    # translation recompute joins each measured row once
    world = generate_world(WorldSpec(**BENCH_WORLDS["staged-cli"], seed=0))
    partition, _, _ = detect_communities(
        world.graph, DEFAULT_Q_THRESHOLD, DEFAULT_MIN_COMMUNITY_SIZE
    )
    recs = list(fracture(world, partition).reconstructions)
    joins = []
    shared_tracks = reconstruction.shared_tracks

    def counted(*args, **kwargs):
        joins.append(args)
        return shared_tracks(*args, **kwargs)

    # the pairwise stage calls it from its module, averaging by its own name
    monkeypatch.setattr(reconstruction, "shared_tracks", counted)
    monkeypatch.setattr(averaging, "shared_tracks", counted)
    k = len(recs)
    mg, stats = measure_graph(recs, 0, tmp_path / "measurements.json")
    assert len(joins) == k * (k - 1) // 2
    assert 0 < stats["candidate_pairs"] < len(joins)
    joins.clear()
    recompute_pairwise_translations(
        {r.community_id: r for r in recs}, np.ones(k), np.tile(IDENTITY_QUAT, (k, 1)), mg
    )
    assert len(joins) == mg.i.size > 0


def test_pairwise_stats_count_the_ransac_iterations_of_each_measured_pair(tmp_path):
    # one count per measured pair, equal on a repeat run; on a world without
    # noise or outliers every pair's first hypothesis takes all its tracks,
    # so each pair stops after one iteration
    runs = []
    for name, noise, outliers in (("a", 1e-3, 0.2), ("b", 1e-3, 0.2), ("clean", 0.0, 0.0)):
        spec = WorldSpec(**{**THREE, "noise_sigma": noise, "outlier_fraction": outliers}, seed=29)
        res = run_pipeline(PipelineConfig(out_dir=str(tmp_path / name), seed=29, spec=spec))
        runs.append({s["name"]: s["stats"] for s in res.report["stages"]}["pairwise"])
    for stats in runs:
        assert len(stats["ransac_iterations"]) == stats["measured_pairs"] > 0
    assert runs[0]["ransac_iterations"] == runs[1]["ransac_iterations"]
    assert max(runs[0]["ransac_iterations"]) > 1
    assert runs[2]["ransac_iterations"] == [1] * runs[2]["measured_pairs"]


def test_pairwise_stats_count_the_tracks_each_measured_pair_shares(pipeline_run):
    # with the counts, each pair's inlier ratio reads from the artifacts alone
    report = json.loads((pipeline_run / "report.json").read_text())
    counts = {s["name"]: s["stats"] for s in report["stages"]}["pairwise"]["shared_tracks"]
    rows = json.loads((pipeline_run / "measurements.json").read_text())
    recs = [load_reconstruction(p) for p in sorted(pipeline_run.glob("rec_*.json"))]
    shared = {(a.community_id, b.community_id): ia.size for a, b, ia, _ in covisible_pairs(recs)}
    assert counts == [shared[r["i"], r["j"]] for r in rows]
    assert all(n >= r["inliers"] for n, r in zip(counts, rows))


def test_eval_stage_reports_merged_and_refined_errors(pipeline_run):
    evaluation = json.loads((pipeline_run / "eval.json").read_text())
    report = json.loads((pipeline_run / "report.json").read_text())
    stats = {s["name"]: s["stats"] for s in report["stages"]}["eval"]
    assert stats == {
        "median_center_error": evaluation["merged"]["median_center_error"],
        "refined_median_center_error": evaluation["refined"]["median_center_error"],
    }


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """A run_pipeline output directory, plus the spec file of its world."""
    run = tmp_path_factory.mktemp("run")
    world = generate_world(WorldSpec(seed=34, **THREE))
    run_pipeline(PipelineConfig(out_dir=str(run), seed=34, world=world))
    (run / "spec.json").write_text(json.dumps(THREE))
    return run


# command, the input it is fed broken, and its arguments over a run directory d
BROKEN_INPUT_CASES = {
    "detect": ("eg.json", ["detect", "--graph", "{d}/eg.json", "-o", "{d}/p.json"]),
    "pairwise": ("partition.json", [
        "pairwise", "--graph", "{d}/eg.json", "--partition", "{d}/partition.json",
        "--recs", "{d}", "--seed", "1", "-o", "{d}/m.json"]),
    "average": ("measurements.json", [
        "average", "--measurements", "{d}/measurements.json", "--recs", "{d}", "-o", "{d}/t.json"]),
    "merge": ("transforms.json", [
        "merge", "--recs", "{d}", "--transforms", "{d}/transforms.json", "-o", "{d}/mm.json"]),
    "refine": ("transforms.json", [
        "refine", "--recs", "{d}", "--transforms", "{d}/transforms.json", "-o", "{d}/tr.json"]),
    "eval-merged": ("merged.json", [
        "eval", "--merged", "{d}/merged.json", "--world", "{d}/world.json", "-o", "{d}/e.json"]),
    "eval-world": ("world.json", [
        "eval", "--merged", "{d}/merged.json", "--world", "{d}/world.json", "-o", "{d}/e.json"]),
    "synth": ("spec.json", ["synth", "--spec", "{d}/spec.json", "--out", "{d}/w", "--seed", "1"]),
    "pipeline": ("rec_1.json", ["pipeline", "--recs", "{d}", "--out", "{d}/r", "--seed", "1"]),
}


def truncated(text):
    return text[: len(text) // 2]


def with_nan(text):
    # the first number that is a value (after a space, a newline, ":", "," or
    # "[") becomes NaN
    return re.sub(r"(?<=[\s:,\[])-?\d[\d.eE+-]*", "NaN", text, count=1)


@pytest.mark.parametrize("breakage", [truncated, with_nan], ids=["truncated", "nan"])
@pytest.mark.parametrize("case", sorted(BROKEN_INPUT_CASES))
def test_broken_json_input_exits_2(pipeline_run, tmp_path, case, breakage):
    d = tmp_path / "d"
    shutil.copytree(pipeline_run, d)
    name, template = BROKEN_INPUT_CASES[case]
    text = (d / name).read_text()
    broken = breakage(text)
    assert broken != text
    (d / name).write_text(broken)
    result = CliRunner().invoke(main, [a.format(d=d) for a in template])
    assert result.exit_code == 2, result.output
    assert name in result.output
    assert "Traceback" not in result.output


# loader, the file it reads, and the path to a number that becomes an integer
# too large for int64 (a track id) or for float64 (a scale or a score)
OVERFLOW_CASES = {
    "load_partition": (load_partition, "partition.json", ("q_max",), 10**400),
    "load_measurements": (load_measurements, "measurements.json", (0, "s_ij"), 10**400),
    "load_transforms": (load_transforms, "transforms.json", (0, "s"), 10**400),
    "load_merged": (load_merged, "merged.json", ("tracks", 0), 2**70),
    "load_reconstruction": (load_reconstruction, "rec_1.json", ("tracks", 0), 2**70),
    "read_world": (read_world, "world.json", ("tracks", 0), 2**70),
}


def with_huge_integer(run, name, path, value, out):
    obj = json.loads((run / name).read_text())
    leaf = obj
    for key in path[:-1]:
        leaf = leaf[key]
    leaf[path[-1]] = value
    out.write_text(json.dumps(obj))
    return out


@pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
def test_huge_integer_is_a_validation_error(pipeline_run, tmp_path, case):
    loader, name, path, value = OVERFLOW_CASES[case]
    bad = with_huge_integer(pipeline_run, name, path, value, tmp_path / name)
    with pytest.raises(ValidationError):
        loader(bad)


def test_huge_track_id_in_recs_exits_2(pipeline_run, tmp_path):
    d = tmp_path / "d"
    shutil.copytree(pipeline_run, d)
    with_huge_integer(pipeline_run, "rec_1.json", ("tracks", 0), 2**70, d / "rec_1.json")
    result = CliRunner().invoke(
        main, ["pipeline", "--recs", str(d), "--out", str(d / "r"), "--seed", "1"]
    )
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("seed", [-1, 2**63, 2**70])
def test_seed_out_of_range_exits_2(pipeline_run, tmp_path, seed):
    for args in (["synth", "--out", str(tmp_path / "w")],
                 ["pipeline", "--recs", str(pipeline_run), "--out", str(tmp_path / "r")],
                 ["pairwise", "--graph", f"{pipeline_run}/eg.json", "--partition",
                  f"{pipeline_run}/partition.json", "--recs", str(pipeline_run),
                  "-o", str(tmp_path / "m.json")]):
        result = CliRunner().invoke(main, [*args, "--seed", str(seed)])
        assert result.exit_code == 2, result.output
        assert "--seed" in result.output and "Traceback" not in result.output
    assert not (tmp_path / "r").exists() and not (tmp_path / "m.json").exists()


@pytest.mark.parametrize(
    ("communities", "match"),
    [
        (5, "malformed partition file"),
        ([[0, True]], "must be a list of integers"),
        ([["0"]], "must be a list of integers"),
        ([[0, 10**6]], "out of range"),
        ([[-1]], "out of range"),
    ],
    ids=["not-a-list", "bool", "string", "out-of-range", "negative"],
)
def test_malformed_partition_exits_2(pipeline_run, tmp_path, communities, match):
    part = tmp_path / "partition.json"
    part.write_text(
        json.dumps({"communities": communities, "q_max": 0.1, "flagged_isolated": []})
    )
    result = CliRunner().invoke(main, [
        "pairwise", "--graph", str(pipeline_run / "eg.json"), "--partition", str(part),
        "--recs", str(pipeline_run), "--seed", "1", "-o", str(tmp_path / "m.json"),
    ])
    assert result.exit_code == 2, result.output
    assert match in result.output
    assert "Traceback" not in result.output


# loader, the file it reads, and the path to a number that becomes 1e999,
# which Python's JSON parser reads as infinity
NON_FINITE_CASES = {
    "merged-point": (load_merged, "merged.json", ("points", 0, 0)),
    "merged-rotation": (load_merged, "merged.json", ("cameras", 0, "q", 1)),
    "merged-spread": (load_merged, "merged.json", ("fusion", "spread", 0)),
    "rec-point": (load_reconstruction, "rec_1.json", ("points", 0, 1)),
    "rec-center": (load_reconstruction, "rec_1.json", ("cameras", 0, "c", 2)),
    "world-point": (read_world, "world.json", ("points", 0, 2)),
    "world-rotation": (read_world, "world.json", ("cameras", 0, "q", 0)),
}


def with_overflowing_float(run, name, path, out):
    obj = json.loads((run / name).read_text())
    leaf = obj
    for key in path[:-1]:
        leaf = leaf[key]
    leaf[path[-1]] = "OVERFLOW"
    out.write_text(json.dumps(obj).replace('"OVERFLOW"', "1e999"))
    return out


@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_overflowing_float_is_a_validation_error(pipeline_run, tmp_path, case):
    loader, name, path = NON_FINITE_CASES[case]
    bad = with_overflowing_float(pipeline_run, name, path, tmp_path / name)
    with pytest.raises(ValidationError, match="non-finite"):
        loader(bad)


def test_overflowing_coordinate_in_recs_exits_2(pipeline_run, tmp_path):
    d = tmp_path / "d"
    shutil.copytree(pipeline_run, d)
    with_overflowing_float(pipeline_run, "rec_1.json", ("points", 0, 0), d / "rec_1.json")
    result = CliRunner().invoke(
        main, ["pipeline", "--recs", str(d), "--out", str(d / "r"), "--seed", "1"]
    )
    assert result.exit_code == 2, result.output
    assert "non-finite" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "text",
    ['{"camera_count": 100.5}', '{"point_count": 3000.0}', '{"camera_count": true}',
     '{"visibility_radius": 1e999}', '{"camera_count": 600, "cluster_count": 4611686018427387904}'],
    ids=["float-count", "integral-float-count", "bool-count", "overflowing-radius",
         "more-clusters-than-cameras"],
)
def test_spec_with_a_mistyped_field_exits_2(tmp_path, text):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    for args in (["synth", "--out", str(tmp_path / "w")],
                 ["pipeline", "--out", str(tmp_path / "r")]):
        result = CliRunner().invoke(main, [*args, "--spec", str(spec), "--seed", "1"])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output


def test_spec_with_too_many_cameras_exits_2(tmp_path):
    # beyond 2**24 cameras the co-visibility count matrix could never be allocated
    spec = tmp_path / "spec.json"
    spec.write_text('{"camera_count": 4611686018427387904, "point_count": 600, "cluster_count": 3}')
    for args in (["synth", "--out", str(tmp_path / "w")],
                 ["pipeline", "--out", str(tmp_path / "r")]):
        result = CliRunner().invoke(main, [*args, "--spec", str(spec), "--seed", "1"])
        assert result.exit_code == 2, result.output
        assert "camera count must be below 2**24" in result.output
        assert "Traceback" not in result.output


def test_spec_that_is_not_an_object_exits_2(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text("[1, 2]")
    for args in (["synth", "--out", str(tmp_path / "w")],
                 ["pipeline", "--out", str(tmp_path / "r")]):
        result = CliRunner().invoke(main, [*args, "--spec", str(spec), "--seed", "1"])
        assert result.exit_code == 2, result.output
        assert "JSON object" in result.output


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_non_finite_artifact_exits_3_and_leaves_no_file(pipeline_run, tmp_path):
    # a scale too large for float64 maps the community's points to infinity
    transforms = json.loads((pipeline_run / "transforms.json").read_text())
    transforms[1]["s"] = 1e308
    bad = tmp_path / "transforms.json"
    bad.write_text(json.dumps(transforms))
    out = tmp_path / "merged.json"
    result = CliRunner().invoke(
        main, ["merge", "--recs", str(pipeline_run), "--transforms", str(bad), "-o", str(out)]
    )
    assert result.exit_code == 3, result.output
    assert not out.exists()


ARRAY_FIELDS = ["camera_ids", "camera_rotations", "camera_centers", "track_ids", "points"]


def assert_same_arrays(first, back, fields):
    for field in fields:
        a, b = getattr(first, field), getattr(back, field)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field


def as_pairs(obj):
    """The point coordinates re-chunked into rows of two: with an even point
    count a reshape to (-1, 3) would read them back as the same count."""
    if len(obj["tracks"]) % 2:
        obj["tracks"], obj["points"] = obj["tracks"][:-1], obj["points"][:-1]
    flat = [v for row in obj["points"] for v in row]
    obj["points"] = [flat[i : i + 2] for i in range(0, len(flat), 2)]


def short_tracks(obj):
    obj["tracks"] = obj["tracks"][:-1]


def fractional_track(obj):
    obj["tracks"][0] += 0.5


def as_records(obj):
    """The per-record point layout of earlier files."""
    obj["points"] = [{"track": t, "xyz": p} for t, p in zip(obj.pop("tracks"), obj["points"])]


def short_communities(obj):
    obj["communities"] = obj["communities"][:-1]


def empty_community(obj):
    obj["communities"][0] = []


def short_spread(obj):
    obj["fusion"]["spread"] = obj["fusion"]["spread"][:-1]


# loader, the file it reads, an edit that breaks its columns, and the message
COLUMN_CASES = {
    f"{loader.__name__}-{edit.__name__}": (loader, name, edit, match)
    for loader, name in (
        (load_reconstruction, "rec_1.json"), (read_world, "world.json"), (load_merged, "merged.json")
    )
    for edit, match in (
        (as_pairs, "rows of 3 numbers"), (short_tracks, "tracks but"),
        (fractional_track, "list of integers"), (as_records, '"tracks" column'),
    )
}
COLUMN_CASES.update({
    f"load_merged-{edit.__name__}": (load_merged, "merged.json", edit, match)
    for edit, match in (
        (short_communities, "do not align"), (empty_community, "no contributing"),
        (short_spread, "differ in length"),
    )
})


@pytest.mark.parametrize("case", sorted(COLUMN_CASES))
def test_malformed_point_columns_are_validation_errors(pipeline_run, tmp_path, case):
    loader, name, edit, match = COLUMN_CASES[case]
    obj = json.loads((pipeline_run / name).read_text())
    edit(obj)
    (tmp_path / name).write_text(json.dumps(obj))
    with pytest.raises(ValidationError, match=match):
        loader(tmp_path / name)


@pytest.mark.parametrize(
    "name, args",
    [("rec_1.json", ["pipeline", "--recs", "{d}", "--out", "{d}/r", "--seed", "1"]),
     ("merged.json", ["export-ply", "--merged", "{d}/merged.json", "-o", "{d}/c.ply"])],
    ids=["pipeline-recs", "export-ply"],
)
def test_per_record_point_layout_exits_2(pipeline_run, tmp_path, name, args):
    d = tmp_path / "d"
    shutil.copytree(pipeline_run, d)
    obj = json.loads((d / name).read_text())
    as_records(obj)
    (d / name).write_text(json.dumps(obj))
    result = CliRunner().invoke(main, [a.format(d=d) for a in args])
    assert result.exit_code == 2, result.output
    assert '"tracks" column' in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("name", ["merged.json", "merged_refined.json"])
def test_merged_round_trip_is_bit_exact(pipeline_run, tmp_path, name):
    first = load_merged(pipeline_run / name)
    save_merged(first, tmp_path / name)
    assert (tmp_path / name).read_bytes() == (pipeline_run / name).read_bytes()
    back = load_merged(tmp_path / name)
    assert_same_arrays(first, back, ARRAY_FIELDS + list(PROVENANCE_FIELDS))


RELAID = {
    "as-loaded": lambda a: a,
    "float32": lambda a: a.astype(np.float32) if a.dtype == np.float64 else a,
    "fortran-order": np.asfortranarray,
    "strided": lambda a: np.repeat(a, 2, axis=0)[::2],
}


@pytest.mark.parametrize("layout", RELAID)
def test_artifacts_are_the_bytes_of_their_listed_form(pipeline_run, tmp_path, layout):
    # arrays go to orjson and to the integer encoders as they are; a writer
    # that emitted a float32 column's own digits, or refused or misread a
    # non-contiguous one, fails here
    relaid = RELAID[layout]
    world = load_world(pipeline_run / "world.json")
    world_fields = ["camera_centers", "camera_rotations", "track_ids", "points", "labels"]
    world = dataclasses.replace(world, **{f: relaid(getattr(world, f)) for f in world_fields})
    merged = load_merged(pipeline_run / "merged.json")
    merged_fields = [f.name for f in dataclasses.fields(merged)]
    merged = dataclasses.replace(merged, **{f: relaid(getattr(merged, f)) for f in merged_fields})
    # Reconstruction and EpipolarGraph cast their arrays themselves, so only
    # their loaded forms are tried
    rec = load_reconstruction(pipeline_run / "rec_0.json")
    graph = load_graph(pipeline_run / "eg.json")
    for save, obj in [
        (save_world, world),
        (save_reconstruction, rec),
        (save_merged, merged),
        (save_graph, graph),
    ]:
        save(obj, tmp_path / "x.json")
        expected = orjson.dumps(
            per_record_form(obj), option=orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE)
        assert (tmp_path / "x.json").read_bytes() == expected, save.__name__


def test_reconstruction_round_trip_is_bit_exact(pipeline_run, tmp_path):
    for path in sorted(pipeline_run.glob("rec_*.json")):
        first = load_reconstruction(path)
        save_reconstruction(first, tmp_path / path.name)
        back = load_reconstruction(tmp_path / path.name)
        # unit quaternions are not re-normalised, so rotations come back exact
        assert_same_arrays(first, back, ARRAY_FIELDS)
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def test_world_round_trip_is_bit_exact(tmp_path):
    world = generate_world(WorldSpec(seed=34, **THREE))
    save_world(world, tmp_path / "world.json")
    back = SimpleNamespace(**read_world(tmp_path / "world.json"))
    assert_same_arrays(world, back, ["camera_centers", "camera_rotations", "track_ids", "points"])


def test_non_finite_translation_in_transforms_exits_2(pipeline_run, tmp_path):
    transforms = json.loads((pipeline_run / "transforms.json").read_text())
    transforms[1]["t"][0] = "OVERFLOW"
    bad = tmp_path / "transforms.json"
    bad.write_text(json.dumps(transforms).replace('"OVERFLOW"', "1e999"))
    out = tmp_path / "merged.json"
    result = CliRunner().invoke(
        main, ["merge", "--recs", str(pipeline_run), "--transforms", str(bad), "-o", str(out)]
    )
    assert result.exit_code == 2, result.output
    assert "non-finite translation" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_refused_refine_leaves_neither_output_behind(pipeline_run, tmp_path):
    # scales of 1e308 give finite refined transforms but an overflowing
    # re-merged model; the transforms must not be written before it is refused
    transforms = json.loads((pipeline_run / "transforms.json").read_text())
    for record in transforms:
        record["s"] = 1e308
    (tmp_path / "t.json").write_text(json.dumps(transforms))
    refined, merged = tmp_path / "refined.json", tmp_path / "merged.json"
    result = CliRunner().invoke(main, [
        "refine", "--recs", str(pipeline_run), "--transforms", str(tmp_path / "t.json"),
        "-o", str(refined), "--merged-out", str(merged)])
    assert result.exit_code == 3, result.output
    assert "merged.json not written: non-finite number" in result.output
    assert "Traceback" not in result.output
    assert not refined.exists() and not merged.exists()


def assign(*changes):
    """An edit that sets each ``(path, value)`` of ``changes`` in a parsed file."""

    def edit(obj):
        for path, value in changes:
            leaf = obj
            for key in path[:-1]:
                leaf = leaf[key]
            leaf[path[-1]] = value

    return edit


def every_translation_nested(measurements):
    for record in measurements:
        record["t_ij"] = [[1.0], [2.0], [3.0]]


def community_1_twice(transforms):
    transforms.append({**transforms[1], "s": 2.0 * transforms[1]["s"]})


def camera_0_twice(merged):
    merged["cameras"].append(merged["cameras"][0])


def track_0_twice(merged):
    for key in ("tracks", "points", "communities"):
        merged[key].append(merged[key][0])


# file, loader, the command that reads the file (a BROKEN_INPUT_CASES key)
CONTRACT_READERS = {
    "measurements.json": (load_measurements, "average"),
    "transforms.json": (load_transforms, "merge"),
    "partition.json": (load_partition, "pairwise"),
    "rec_1.json": (load_reconstruction, "pipeline"),
    "merged.json": (load_merged, "eval-merged"),
}
# file and an edit that breaks the input contract but that an unchecked
# int(), float() or np.asarray would read as a plausible value
CONTRACT_CASES = {
    "measurements-bool-endpoints": (
        "measurements.json", assign(((0, "i"), False), ((0, "j"), True))),
    "measurements-fractional-i": ("measurements.json", assign(((0, "i"), 0.9))),
    "measurements-string-scale": ("measurements.json", assign(((0, "s_ij"), "2.5"))),
    "measurements-string-rotation": (
        "measurements.json", assign(((0, "q_ij"), ["1", "0", "0", "0"]))),
    "measurements-nested-translation": ("measurements.json", every_translation_nested),
    "measurements-fractional-inliers": ("measurements.json", assign(((0, "inliers"), 3.7))),
    "transforms-duplicate-id": ("transforms.json", community_1_twice),
    "transforms-fractional-id": ("transforms.json", assign(((0, "id"), 0.5))),
    "transforms-string-scale": ("transforms.json", assign(((1, "s"), "1.5"))),
    "partition-string-q-max": ("partition.json", assign((("q_max",), "0.5"))),
    "partition-fractional-flagged": ("partition.json", assign((("flagged_isolated",), [0.7]))),
    "rec-bool-track": ("rec_1.json", assign((("tracks", 0), False))),
    "merged-duplicate-camera": ("merged.json", camera_0_twice),
    "merged-duplicate-track": ("merged.json", track_0_twice),
}


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_input_contract_violation_exits_2(pipeline_run, tmp_path, case):
    name, edit = CONTRACT_CASES[case]
    loader, command = CONTRACT_READERS[name]
    d = tmp_path / "d"
    shutil.copytree(pipeline_run, d)
    obj = json.loads((d / name).read_text())
    edit(obj)
    (d / name).write_text(json.dumps(obj))
    with pytest.raises(ValidationError, match=name):
        loader(d / name)
    _, template = BROKEN_INPUT_CASES[command]
    result = CliRunner().invoke(main, [a.format(d=d) for a in template])
    assert result.exit_code == 2, result.output
    assert name in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "name, path, command",
    [("rec_1.json", ("community",), "pipeline"), ("rec_1.json", ("community",), "pairwise"),
     ("rec_1.json", ("community",), "average"), ("rec_1.json", ("community",), "refine"),
     ("transforms.json", (0, "id"), "refine")],
    ids=["rec-pipeline", "rec-pairwise", "rec-average", "rec-refine", "transforms-refine"],
)
def test_community_ids_outside_the_reconstruction_set_exit_2(
    pipeline_run, tmp_path, name, path, command
):
    # each file is well formed on its own; only the set of ids is broken
    d = tmp_path / "d"
    shutil.copytree(pipeline_run, d)
    obj = json.loads((d / name).read_text())
    assign((path, -1))(obj)
    (d / name).write_text(json.dumps(obj))
    _, template = BROKEN_INPUT_CASES[command]
    result = CliRunner().invoke(main, [a.format(d=d) for a in template])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output


def test_partition_with_a_community_missing_from_recs_exits_2(pipeline_run, tmp_path):
    d = tmp_path / "d"
    shutil.copytree(pipeline_run, d)
    (d / "rec_2.json").unlink()
    _, template = BROKEN_INPUT_CASES["pairwise"]
    result = CliRunner().invoke(main, [a.format(d=d) for a in template])
    assert result.exit_code == 2, result.output
    assert "3 communities" in result.output
    assert "Traceback" not in result.output


def test_refine_ignores_a_transform_of_no_reconstruction(pipeline_run, tmp_path):
    d = tmp_path / "d"
    shutil.copytree(pipeline_run, d)
    _, template = BROKEN_INPUT_CASES["refine"]
    args = [a.format(d=d) for a in template]
    assert CliRunner().invoke(main, args).exit_code == 0
    expected = (d / "tr.json").read_bytes()
    transforms = json.loads((d / "transforms.json").read_text())
    # an id below every real one would be taken as the gauge if it were kept
    (d / "transforms.json").write_text(json.dumps([{**transforms[1], "id": -1}, *transforms]))
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert (d / "tr.json").read_bytes() == expected


def test_synth_and_run_pipeline_write_the_same_world_files(tmp_path):
    # detect recovers the planted partition here, so the pipeline's
    # reconstructions are the ones synth cuts along the planted clusters
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(THREE))
    result = CliRunner().invoke(
        main, ["synth", "--spec", str(spec), "--out", str(tmp_path / "s"), "--seed", "21"]
    )
    assert result.exit_code == 0, result.output
    run_pipeline(PipelineConfig(out_dir=str(tmp_path / "p"), seed=21, spec=WorldSpec(**THREE)))
    names = ["world.json", "eg.json", "truth-labels.json", "rec_0.json", "rec_1.json", "rec_2.json"]
    assert sorted(p.name for p in (tmp_path / "s").iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "p" / name).read_bytes(), name


@pytest.mark.parametrize("command", ["pairwise", "average", "merge", "refine", "pipeline"])
def test_recs_dir_without_reconstructions_exits_2(pipeline_run, tmp_path, command):
    d = tmp_path / "d"
    shutil.copytree(pipeline_run, d)
    for rec in d.glob("rec_*.json"):
        rec.unlink()
    _, template = BROKEN_INPUT_CASES[command]
    result = CliRunner().invoke(main, [a.format(d=d) for a in template])
    assert result.exit_code == 2, result.output
    assert "no rec_*.json files" in result.output
    assert "Traceback" not in result.output


# arguments over a run directory d that make the command open a path it cannot
OS_ERROR_CASES = {
    "output-in-missing-dir": ["detect", "--graph", "{d}/eg.json", "-o", "{d}/missing/p.json"],
    "graph-is-a-dir": ["detect", "--graph", "{d}", "-o", "{d}/p.json"],
    "out-is-a-file": ["pipeline", "--spec", "{d}/spec.json", "--out", "{d}/eg.json", "--seed", "1"],
}


@pytest.mark.parametrize("case", sorted(OS_ERROR_CASES))
def test_unusable_path_exits_2(pipeline_run, tmp_path, case):
    d = tmp_path / "d"
    shutil.copytree(pipeline_run, d)
    result = CliRunner().invoke(main, [a.format(d=d) for a in OS_ERROR_CASES[case]])
    assert result.exit_code == 2, result.output
    assert "error: " in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "inputs",
    [["--spec", "{d}/spec.json", "--recs", "{d}"], ["--world", "{d}/world.json", "--recs", "{d}"],
     ["--spec", "{d}/spec.json", "--world", "{d}/world.json"]],
    ids=["spec-recs", "world-recs", "spec-world"],
)
def test_pipeline_with_two_inputs_exits_2(pipeline_run, tmp_path, inputs):
    args = ["pipeline", *inputs, "--out", str(tmp_path / "r"), "--seed", "1"]
    result = CliRunner().invoke(main, [a.format(d=pipeline_run) for a in args])
    assert result.exit_code == 2, result.output
    assert "exactly one of" in result.output
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "args",
    [["pairwise", "--threshold", "0.1"], ["pairwise", "--iterations", "10"],
     ["refine", "--huber-delta", "0.1"], ["pipeline", "--threshold", "0.1"],
     ["pipeline", "--iterations", "10"], ["pipeline", "--refine"], ["pipeline", "--no-refine"],
     ["pipeline", "--eval"], ["pipeline", "--no-eval"], ["pipeline", "--workers", "2"]],
    ids=lambda args: args[0] + args[1],
)
def test_removed_option_exits_2(args):
    # RANSAC and Huber thresholds are derived from each pair's data, the
    # pipeline always refines and, given a world, evaluates, and it measures
    # the community pairs one after another
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "No such option" in result.output
    assert "Traceback" not in result.output


def stage_stats(out_dir, world, seed, name="average"):
    """One stage's statistics in the report of one pipeline run."""
    run_pipeline(PipelineConfig(out_dir=str(out_dir), seed=seed, world=world))
    report = json.loads((out_dir / "report.json").read_text())
    return next(stage["stats"] for stage in report["stages"] if stage["name"] == name)


@pytest.mark.parametrize("name", sorted(BENCH_WORLDS))
def test_average_stats_match_the_per_measurement_sums(tmp_path, name):
    """The report's residual statistics are the per-measurement oracle's bit
    for bit, and the statistics and counters are the same on a second run
    with the same seed."""
    world = generate_world(WorldSpec(**BENCH_WORLDS[name], seed=2))
    stats = [stage_stats(tmp_path / run, world, 2) for run in ("r1", "r2")]
    assert stats[0] == stats[1]
    d = tmp_path / "r1"
    mg, mg_t = load_measurements(d / "measurements.json"), load_measurements(d / "measurements_with_t.json")
    transforms = load_transforms(d / "transforms.json")
    oracle = loop_averaging_residuals(mg_t, transforms)
    assert {key: stats[0][key] for key in oracle} == oracle
    assert averaging_residuals(mg_t, transforms) == oracle
    # averaging fills the translation of every measured row and drops none
    assert mg.t is None and mg_t.i.size > 0
    for name in ("i", "j", "s", "q", "inliers"):
        assert np.array_equal(getattr(mg_t, name), getattr(mg, name)), name
    assert set(stats[0]) == set(oracle) | {"irls_solves", "rotation_sweeps", "rotation_converged"}


@pytest.mark.parametrize("name", sorted(BENCH_WORLDS))
def test_average_counters_count_every_weighted_solve(tmp_path, monkeypatch, name):
    """``irls_solves`` adds up to the ``solve_weighted_ls`` calls of the run,
    the translation problem is one stacked solve of its three axes, and
    rotation averaging converges in a few sweeps."""
    calls = []
    solve = l1.solve_weighted_ls
    monkeypatch.setattr(l1, "solve_weighted_ls", lambda *a: calls.append(a[1].shape) or solve(*a))
    world = generate_world(WorldSpec(**BENCH_WORLDS[name], seed=2))
    stats = stage_stats(tmp_path, world, 2)
    solves = stats["irls_solves"]
    assert set(solves) == {"scale", "rotation", "translation"}
    assert sum(solves.values()) == len(calls)
    assert min(solves.values()) >= 1
    assert stats["rotation_converged"] is True
    assert 1 <= stats["rotation_sweeps"] <= solves["rotation"]
    # scale solves are single columns; the last problem solves three axes at once
    assert all(len(shape) == 1 for shape in calls[: solves["scale"]])
    assert calls[-solves["translation"]][1:] == (3,)


# The ``average`` counters of three ``large-graph`` worlds: ``irls_solves``
# (scale, rotation, translation), ``rotation_sweeps`` and
# ``rotation_converged``.  Counts repeat exactly, so a change that moves a
# pin records the old count, the new count and the reason in CHANGES.md.
AVERAGE_COUNTER_PINS = {
    0: ((2, 4, 2), 2, True),  # a tree: the first solve is exact, one reweighting confirms it
    100: ((9, 30, 11), 3, True),  # cyclic measurement graphs
    109: ((6, 30, 7), 3, True),
}


@pytest.mark.parametrize("seed", sorted(AVERAGE_COUNTER_PINS))
def test_average_counters_are_pinned(tmp_path, seed):
    world = generate_world(WorldSpec(**BENCH_WORLDS["large-graph"], seed=seed))
    stats = stage_stats(tmp_path, world, seed)
    solves, sweeps, converged = AVERAGE_COUNTER_PINS[seed]
    assert stats["irls_solves"] == dict(zip(("scale", "rotation", "translation"), solves))
    assert (stats["rotation_sweeps"], stats["rotation_converged"]) == (sweeps, converged)


# The ``detect`` counters of the same worlds: ``cnm_merges`` and
# ``heap_pops``, summed over their CNM runs.
DETECT_COUNTER_PINS = {0: (741, 29219), 100: (670, 25536), 109: (747, 29827)}


@pytest.mark.parametrize("seed", sorted(DETECT_COUNTER_PINS))
def test_detect_counters_are_pinned(tmp_path, seed):
    world = generate_world(WorldSpec(**BENCH_WORLDS["large-graph"], seed=seed))
    stats = stage_stats(tmp_path, world, seed, "detect")
    assert (stats["cnm_merges"], stats["heap_pops"]) == DETECT_COUNTER_PINS[seed]


# The ``refine`` iteration counts of the same worlds.  Two Gauss-Newton
# steps are typical; the outlier worlds on which refinement collapses take
# 7 to 50.
REFINE_ITERATION_PINS = {0: 2, 100: 2, 109: 2}


@pytest.mark.parametrize("seed", sorted(REFINE_ITERATION_PINS))
def test_refine_iterations_are_pinned(tmp_path, seed):
    world = generate_world(WorldSpec(**BENCH_WORLDS["large-graph"], seed=seed))
    stats = stage_stats(tmp_path, world, seed, "refine")
    assert (stats["skipped"], stats["iterations"]) == (False, REFINE_ITERATION_PINS[seed])


def test_average_stats_vanish_on_an_exact_world(tmp_path):
    world = generate_world(WorldSpec(noise_sigma=0.0, outlier_fraction=0.0, seed=4))
    stats = stage_stats(tmp_path, world, 4)
    measured = load_measurements(tmp_path / "measurements_with_t.json")
    assert measured.i.size > 0
    for key in ("scale_l1_residual", "rotation_l1_residual_rad", "translation_l1_residual"):
        assert 0.0 <= stats[key] < 1e-9, key
