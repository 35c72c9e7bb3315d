"""Metamorphic oracles: an input transformed in a way that carries no
information must give the same answer.

The order of the records in the match graph and in each reconstruction file
carries none, so shuffling them changes no byte of any artifact the command
chain writes from ``detect`` to ``export-ply``.
"""
import json
import shutil

import numpy as np
import pytest
from click.testing import CliRunner

from csfm.cli import main

from helpers import BENCH_WORLDS

CHAIN = [
    ["detect", "--graph", "{inp}/eg.json", "-o", "{out}/partition.json"],
    ["pairwise", "--graph", "{inp}/eg.json", "--partition", "{out}/partition.json",
     "--recs", "{inp}", "--seed", "{seed}", "-o", "{out}/measurements.json"],
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


def invoke(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output


def run_chain(inp, out, seed) -> dict:
    """Every artifact the command chain writes from ``inp``, by file name."""
    out.mkdir()
    for step in CHAIN:
        invoke([a.format(inp=inp, out=out, seed=seed) for a in step])
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def shuffled_copy(src, dst, rng):
    """``src``'s inputs with the edge records of ``eg.json``, and the camera
    records and the aligned ``tracks``/``points`` rows of each ``rec_*.json``,
    in a random order."""
    dst.mkdir()
    shutil.copy(src / "world.json", dst / "world.json")
    graph = json.loads((src / "eg.json").read_text())
    graph["edges"] = [graph["edges"][k] for k in rng.permutation(len(graph["edges"]))]
    (dst / "eg.json").write_text(json.dumps(graph))
    for path in sorted(src.glob("rec_*.json")):
        rec = json.loads(path.read_text())
        rec["cameras"] = [rec["cameras"][k] for k in rng.permutation(len(rec["cameras"]))]
        rows = rng.permutation(len(rec["tracks"]))
        rec["tracks"] = [rec["tracks"][k] for k in rows]
        rec["points"] = [rec["points"][k] for k in rows]
        (dst / path.name).write_text(json.dumps(rec))


@pytest.mark.parametrize("seed", [11, 12])
def test_record_order_changes_no_artifact(tmp_path, seed):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(BENCH_WORLDS["staged-cli"]))
    inp = tmp_path / "inp"
    invoke(["synth", "--spec", str(spec), "--out", str(inp), "--seed", str(seed)])
    shuffled_copy(inp, tmp_path / "shuffled", np.random.default_rng(seed))
    for name in ["eg.json", *(p.name for p in inp.glob("rec_*.json"))]:
        assert (tmp_path / "shuffled" / name).read_bytes() != (inp / name).read_bytes(), name
    plain = run_chain(inp, tmp_path / "plain", seed)
    shuffled = run_chain(tmp_path / "shuffled", tmp_path / "out", seed)
    assert list(plain) == [
        "cloud.ply", "eval.json", "measurements.json", "merged.json", "merged_refined.json",
        "partition.json", "transforms.json", "transforms_refined.json",
    ]
    for name in plain:
        assert shuffled[name] == plain[name], name
