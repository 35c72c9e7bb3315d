"""The benchmark's own output checks (``perfbench/checks.py``, which does not
import csfm) accept what csfm writes: a ``run_pipeline`` directory and a
staged command chain ending in ``export-ply``.  The benchmark's tracer
(``perfbench/spans.py``) finds every csfm function it wraps and counts what
the artifacts record."""
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from csfm.cli import main
from csfm.pipeline import PipelineConfig, run_pipeline
from csfm.synth import WorldSpec, generate_world

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402
import spans  # noqa: E402

SPEC = dict(camera_count=120, point_count=3000, cluster_count=3, noise_sigma=1e-3)
# the staged-cli command chain of perfbench/run.py (its CHAIN), with a fixed seed
CHAIN = [
    ["detect", "--graph", "{inp}/eg.json", "-o", "{out}/partition.json"],
    ["pairwise", "--graph", "{inp}/eg.json", "--partition", "{out}/partition.json",
     "--recs", "{inp}", "--seed", "7", "-o", "{out}/measurements.json"],
    ["average", "--measurements", "{out}/measurements.json", "--recs", "{inp}",
     "-o", "{out}/transforms.json"],
    ["merge", "--recs", "{inp}", "--transforms", "{out}/transforms.json",
     "-o", "{out}/merged.json"],
    ["refine", "--recs", "{inp}", "--transforms", "{out}/transforms.json",
     "-o", "{out}/transforms_refined.json", "--merged-out", "{out}/merged_refined.json"],
    ["eval", "--merged", "{out}/merged_refined.json", "--world", "{inp}/world.json",
     "-o", "{out}/eval.json"],
    ["export-ply", "--merged", "{out}/merged_refined.json", "--color-by-community",
     "-o", "{out}/cloud.ply"],
]


def assert_accepted(op_dir, input_dir):
    errors, tolerance, problems = checks.check_operation(op_dir, input_dir)
    assert problems == []
    assert len(errors) > 0
    assert np.median(errors) < tolerance


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    world = generate_world(WorldSpec(**SPEC, seed=5))
    run_pipeline(PipelineConfig(out_dir=str(out), seed=5, world=world))
    return out


def test_pipeline_output_passes_benchmark_checks(pipeline_dir):
    assert_accepted(pipeline_dir, pipeline_dir)


def test_staged_chain_passes_benchmark_checks(tmp_path):
    inp, out = tmp_path / "in", tmp_path / "out"
    inp.mkdir()
    out.mkdir()
    (inp / "spec.json").write_text(json.dumps({**SPEC, "outlier_fraction": 0.2}))
    runner = CliRunner()
    for args in [["synth", "--spec", "{inp}/spec.json", "--out", "{inp}", "--seed", "7"], *CHAIN]:
        result = runner.invoke(main, [a.format(inp=inp, out=out) for a in args])
        assert result.exit_code == 0, (args[0], result.output)
    assert (out / "cloud.ply").exists()
    assert_accepted(out, inp)


def test_checks_catch_a_point_count_mismatch(pipeline_dir, tmp_path):
    """The guards above are not vacuous: the checker compares the PLY vertex
    count with the length of the merged model's point list."""
    shutil.copytree(pipeline_dir, tmp_path / "d")
    d = tmp_path / "d"
    result = CliRunner().invoke(main, [
        "export-ply", "--merged", str(d / "merged_refined.json"), "-o", str(d / "cloud.ply"),
    ])
    assert result.exit_code == 0, result.output
    assert_accepted(d, d)
    doc = json.loads((d / "merged_refined.json").read_text())
    doc["points"], doc["tracks"] = doc["points"][:-1], doc["tracks"][:-1]
    (d / "merged_refined.json").write_text(json.dumps(doc))
    _, _, problems = checks.check_operation(d, d)
    assert any("PLY has" in p for p in problems), problems


def test_tracer_binds_every_target_and_counts_the_run(tmp_path):
    """``--trace 1`` wraps csfm functions by name and reads their results; a
    rename or a new return type shows here, not only in a benchmark run."""
    world = generate_world(WorldSpec(**SPEC, seed=6))
    tracer = spans.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        bound = {(module.__name__, attr) for module, attr, _ in tracer._patched}
        run_pipeline(PipelineConfig(out_dir=str(tmp_path), seed=6, world=world, workers=2))
    finally:
        tracer.uninstall()
    targets = [(m, f) for m, f, _ in spans.SPANS] + spans.WRITERS + spans.READERS
    assert [t for t in targets if t not in bound] == []
    records = json.loads((tmp_path / "measurements.json").read_text())
    assert tracer.counts[(0, "measurements.pairs_measured")] == len(records) > 0
    assert tracer.counts[(0, "measurements.inliers")] == sum(r["inliers"] for r in records)
    report = json.loads((tmp_path / "report.json").read_text())
    pairwise = next(stage for stage in report["stages"] if stage["name"] == "pairwise")
    covisible = sum(pairwise["stats"]["shared_tracks"])
    assert tracer.counts[(0, "measurements.covisible")] == covisible > 0
    refine = next(stage for stage in report["stages"] if stage["name"] == "refine")
    assert tracer.counts[(0, "merging.refine_iterations")] == refine["stats"]["iterations"] > 0
