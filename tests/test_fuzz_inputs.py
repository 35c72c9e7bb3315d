"""Fuzzing of every artifact loader and every command that reads a file.

Each example takes one file of a small valid ``run_pipeline`` output and
applies one mutation somewhere in its JSON: a key dropped, a value replaced
by one of another type, or a value inserted into a list.  A loader must read
the file or raise ValidationError; a command must exit 0, 2, 3 or 4 and
never print a traceback.
"""
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from csfm.averaging import load_transforms
from csfm.cli import main
from csfm.community import load_partition
from csfm.errors import ValidationError
from csfm.graph import load_graph
from csfm.measurements import load_measurements
from csfm.merging import load_merged
from csfm.pipeline import PipelineConfig, run_pipeline
from csfm.reconstruction import load_reconstruction
from csfm.synth import WorldSpec, generate_world, read_world

SPEC = dict(camera_count=60, point_count=600, cluster_count=3, noise_sigma=1e-3, outlier_fraction=0.1)

# a bool, a float, an integer, a string, a nested list, null, an object and
# an integer beyond int64
VALUES = st.sampled_from([True, False, 0.5, -1, "x", [[1]], None, {}, 2**70])

LOADERS = {
    "eg.json": load_graph,
    "partition.json": load_partition,
    "measurements.json": load_measurements,
    "measurements_with_t.json": load_measurements,
    "transforms.json": load_transforms,
    "rec_1.json": load_reconstruction,
    "merged.json": load_merged,
    "world.json": read_world,
}

# the file a command is fed mutated, and the command over a run directory d
COMMANDS = {
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
    "export-ply": ("merged.json", ["export-ply", "--merged", "{d}/merged.json", "-o", "{d}/c.ply"]),
    "synth": ("spec.json", ["synth", "--spec", "{d}/spec.json", "--out", "{d}/w", "--seed", "1"]),
    "pipeline-recs": ("rec_1.json", [
        "pipeline", "--recs", "{d}", "--out", "{d}/r", "--seed", "1"]),
    "pipeline-world": ("world.json", [
        "pipeline", "--world", "{d}/world.json", "--out", "{d}/r", "--seed", "1"]),
}

FUZZ = settings(
    max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    run = tmp_path_factory.mktemp("small_run")
    world = generate_world(WorldSpec(seed=5, **SPEC))
    run_pipeline(PipelineConfig(out_dir=str(run), seed=5, world=world))
    (run / "spec.json").write_text(json.dumps(SPEC))
    return run


def mutate(data, obj):
    """``obj`` with one drawn mutation at a drawn place in it."""
    top = [obj]  # so that the whole value can be the one replaced
    holder, key = top, 0
    while isinstance(holder[key], (dict, list)) and holder[key]:
        if data.draw(st.integers(0, 3), label="depth") == 0:
            break
        node = holder[key]
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        holder, key = node, data.draw(st.sampled_from(keys), label="key")
    action = data.draw(st.sampled_from(["replace", "drop", "insert"]), label="action")
    if action == "drop" and isinstance(holder, dict):
        del holder[key]
    elif action == "insert" and isinstance(holder, list):
        holder.insert(key, data.draw(VALUES, label="value"))
    else:
        holder[key] = data.draw(VALUES, label="value")
    return top[0]


@pytest.mark.parametrize("name", sorted(LOADERS))
@FUZZ
@given(data=st.data())
def test_loader_reads_or_refuses_a_mutated_file(small_run, name, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(json.dumps(mutate(data, json.loads((small_run / name).read_text()))))
        try:
            LOADERS[name](path)
        except ValidationError:
            pass


@pytest.mark.parametrize("command", sorted(COMMANDS))
@FUZZ
@given(data=st.data())
def test_command_exits_with_a_documented_code_on_a_mutated_file(small_run, command, data):
    name, template = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "d"
        shutil.copytree(small_run, d)
        (d / name).write_text(json.dumps(mutate(data, json.loads((d / name).read_text()))))
        result = CliRunner().invoke(main, [a.format(d=d) for a in template])
        assert result.exit_code in (0, 2, 3, 4), result.output
        assert "Traceback" not in result.output
        # exit 2 is also click's answer to a bad command line, which would
        # pass every draw without running the command
        assert "No such option" not in result.output and "Usage:" not in result.output, result.output
