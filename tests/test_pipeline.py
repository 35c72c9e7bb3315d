import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from csfm.cli import main
from csfm.pipeline import DATA_ARTIFACTS, PipelineConfig, run_pipeline
from csfm.reconstruction import Reconstruction, save_reconstruction
from csfm.rotations import IDENTITY_QUAT
from csfm.synth import WorldSpec, generate_world

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
            "detect",
            "fracture",
            "community_graph",
            "pairwise",
            "average",
            "merge",
            "refine",
            "eval",
        ]
        assert all(s["seconds"] >= 0 for s in report["stages"])

    def test_single_community_pass_through(self, tmp_path):
        spec = WorldSpec(
            camera_count=40, point_count=800, cluster_count=1, noise_sigma=0.0, seed=22
        )
        world = generate_world(spec)
        res = run_pipeline(PipelineConfig(out_dir=str(tmp_path), seed=22, world=world))
        assert res.partition.community_count == 1
        assert res.evaluation["merged"]["median_center_error"] < 1e-9

    def test_worker_count_does_not_change_outputs(self, tmp_path):
        world = generate_world(WorldSpec(seed=23, **THREE))
        run_pipeline(
            PipelineConfig(out_dir=str(tmp_path / "w1"), seed=23, world=world, workers=1)
        )
        run_pipeline(
            PipelineConfig(out_dir=str(tmp_path / "w4"), seed=23, world=world, workers=4)
        )
        a, b = read_artifacts(tmp_path / "w1"), read_artifacts(tmp_path / "w4")
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], f"{name} differs between worker counts"

    def test_rerun_is_byte_identical(self, tmp_path):
        world = generate_world(WorldSpec(seed=24, **THREE))
        run_pipeline(PipelineConfig(out_dir=str(tmp_path / "r1"), seed=24, world=world))
        run_pipeline(PipelineConfig(out_dir=str(tmp_path / "r2"), seed=24, world=world))
        a, b = read_artifacts(tmp_path / "r1"), read_artifacts(tmp_path / "r2")
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], f"{name} differs between runs"


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
        assert "median center error" in result.output
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
        recs_dir.mkdir()
        pts = rng.uniform(-5, 5, size=(30, 3))
        for cid, tracks in ((0, np.arange(30)), (1, np.arange(30)), (2, np.arange(100, 130))):
            rec = Reconstruction(
                community_id=cid,
                camera_ids=np.arange(3) + 10 * cid,
                camera_rotations=np.tile(IDENTITY_QUAT, (3, 1)),
                camera_centers=rng.normal(size=(3, 3)),
                track_ids=tracks,
                points=pts,
            )
            save_reconstruction(rec, recs_dir / f"rec_{cid}.json")
        result = CliRunner().invoke(
            main,
            ["pipeline", "--recs", str(recs_dir), "--out", str(tmp_path / "run"), "--seed", "1"],
        )
        assert result.exit_code == 4
        assert "pairwise" in result.output

    def test_stage_rerun_from_disk_matches_pipeline(self, tmp_path):
        # re-running the detect, pairwise and averaging stages from their
        # on-disk inputs reproduces the pipeline's artifacts byte for byte
        world = generate_world(WorldSpec(seed=33, **THREE))
        run = tmp_path / "run"
        run_pipeline(PipelineConfig(out_dir=str(run), seed=33, world=world, workers=2))
        part = tmp_path / "partition_redo.json"
        self.run_ok(["detect", "--graph", str(run / "eg.json"), "-o", str(part)])
        assert part.read_bytes() == (run / "partition.json").read_bytes()
        meas = tmp_path / "measurements_redo.json"
        self.run_ok(
            ["pairwise", "--graph", str(run / "eg.json"), "--partition", str(part),
             "--recs", str(run), "--seed", "33", "--workers", "2", "-o", str(meas)]
        )
        assert meas.read_bytes() == (run / "measurements.json").read_bytes()
        redo = tmp_path / "transforms_redo.json"
        self.run_ok(
            ["average", "--measurements", str(run / "measurements.json"),
             "--recs", str(run), "-o", str(redo)]
        )
        assert redo.read_bytes() == (run / "transforms.json").read_bytes()


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
    # the first number that is a value (after a space or newline) becomes NaN
    return re.sub(r"(?<=\s)-?\d[\d.eE+-]*", "NaN", text, count=1)


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
