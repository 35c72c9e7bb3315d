"""End-to-end orchestration: detect, fracture, measure, average, merge.

Every stage writes its artifact to the output directory so any stage can be
re-run from disk, and a run report records per stage its wall time, the
process's peak resident memory so far, the bytes of the files it wrote, and
residual statistics.
"""
from __future__ import annotations

import logging
import os
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .averaging import average_similarities, averaging_residuals, save_transforms, transforms_to_json
from .community import (
    DEFAULT_MIN_COMMUNITY_SIZE,
    DEFAULT_Q_THRESHOLD,
    detect_communities,
    save_partition,
)
from .errors import CsfmError, NumericError, ValidationError
from .jsonio import write_json
from .measurements import (
    MIN_COVISIBLE,
    MeasurementGraph,
    pairwise_measurement,
    save_measurements,
)
from .merging import (
    evaluate_against_truth,
    joint_refine,
    merge_reconstructions,
    save_merged,
)
from .reconstruction import check_community_ids, covisible_pairs, save_reconstructions
from .synth import (
    GroundTruthWorld,
    WorldSpec,
    check_seed,
    fracture,
    generate_world,
    write_world_files,
)

log = logging.getLogger(__name__)

_STREAM_PAIRWISE = 3001


@dataclass
class PipelineConfig:
    out_dir: str
    seed: int
    spec: WorldSpec | None = None
    world: GroundTruthWorld | None = None
    reconstructions: tuple | None = None
    q_threshold: float = DEFAULT_Q_THRESHOLD
    min_community_size: int = DEFAULT_MIN_COMMUNITY_SIZE
    workers: int = 4  # read by nothing; kept only because perfbench/run.py passes it


@dataclass
class PipelineResult:
    partition: object  # None when the run starts from reconstructions
    evaluation: dict | None  # None without a world to evaluate against
    report: dict


def pairwise_seed(base_seed: int, i: int, j: int) -> int:
    """Deterministic per-pair seed, independent of evaluation order."""
    return int(
        np.random.SeedSequence([base_seed, _STREAM_PAIRWISE, i, j]).generate_state(1)[0]
    )


def measure_pairs(pairs, seed: int) -> list:
    """RANSAC-measure each :func:`covisible_pairs` entry, in the given order.
    Returns the :func:`pairwise_measurement` row of each measured pair.

    Pairs whose fit fails are skipped with a warning.
    """
    rows = []
    for pair in pairs:
        p, q = pair[0].community_id, pair[1].community_id
        try:
            rows.append(pairwise_measurement(pair, seed=pairwise_seed(seed, p, q)))
        except (ValidationError, NumericError) as exc:
            # a single failed pair is survivable as long as the measurement
            # graph stays connected; the connectivity check decides that
            log.warning("skipping pair (%d, %d): %s", p, q, exc)
    return rows


def measure_graph(recs, seed: int, path):
    """The pairwise stage: measure every community pair sharing at least
    ``MIN_COVISIBLE`` tracks, require the measurement graph to be connected
    and write it to ``path``; returns ``(mg, stats)``, the stats counting
    the shared tracks of each measured pair in row order.  A disconnected
    graph's error names the refused pairs."""
    pairs = covisible_pairs(recs, MIN_COVISIBLE)
    rows = measure_pairs(pairs, seed=seed)
    mg = MeasurementGraph.from_rows(len(recs), rows)
    shared = {(a.community_id, b.community_id): ia.size for a, b, ia, _ in pairs}
    refused = sorted(shared.keys() - {(i, j) for i, j, *_ in rows})
    mg.require_connected("pairwise measurement" + (f" (refused pairs: {refused})" if refused else ""))
    save_measurements(mg, path)
    return mg, {
        "measured_pairs": len(rows),
        "candidate_pairs": len(pairs),
        "shared_tracks": [shared[i, j] for i, j, *_ in rows],
    }


def _world_stats(world: GroundTruthWorld) -> dict:
    """The resident size of a world's visibility incidence and its match
    graph's edge count, which set the memory of the synth and world stages."""
    return {"incidence_bytes": world.visible.nbytes, "match_edges": world.graph.edge_count}


def _files(out: Path) -> dict:
    """``{name: (size, mtime_ns)}`` of the files in ``out``."""
    with os.scandir(out) as entries:
        return {e.name: (st.st_size, st.st_mtime_ns)
                for e in entries if e.is_file() for st in [e.stat()]}


class _StageRunner:
    def __init__(self, out: Path):
        self.out = out
        self.stages = []
        self.last_artifact = None

    def run(self, name, fn, artifact=None):
        """Time ``fn``, which returns ``(result, stats)``; returns ``result``."""
        before = _files(self.out)
        start = time.perf_counter()
        try:
            result, stats = fn()
        except CsfmError as exc:
            exc.args = (
                f"stage '{name}' failed: {exc} "
                f"(last good artifact: {self.last_artifact or 'none'})",
            )
            raise
        elapsed = time.perf_counter() - start
        # the process's peak resident set so far (ru_maxrss is in KiB on Linux)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # a file the stage wrote is new or has a new size or modification time
        written = sum(st[0] for f, st in _files(self.out).items() if before.get(f) != st)
        self.stages.append({
            "name": name,
            "seconds": elapsed,
            "peak_rss_mb": peak_rss_mb,
            "bytes_written": written,
            "stats": stats,
        })
        if artifact is not None:
            self.last_artifact = str(artifact)
        return result


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute the staged pipeline; see :class:`PipelineConfig` for inputs.

    Input modes: a world spec (synthesizes the world first), a prebuilt
    world (detect + fracture + merge chain), or a set of per-community
    reconstructions (pairwise measurement onward, no evaluation).
    """
    check_seed(config.seed)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner = _StageRunner(out)

    world = config.world
    if world is None and config.spec is not None:
        spec = config.spec
        if spec.seed != config.seed:
            spec = WorldSpec(**{**spec.to_json(), "seed": config.seed})
        def synth_stage():
            made = generate_world(spec)
            return made, _world_stats(made)

        world = runner.run("synth", synth_stage, out / "world.json")
    if world is not None:
        runner.run("world", lambda: (write_world_files(world, out), _world_stats(world)),
                   out / "world.json")

    if config.reconstructions is not None:
        recs = list(config.reconstructions)
        check_community_ids(recs)
        partition = None
    elif world is not None:
        def detect():
            counts = {}
            part, q_max, flagged = detect_communities(
                world.graph, config.q_threshold, config.min_community_size, counts
            )
            save_partition(out / "partition.json", part, q_max, flagged)
            return part, {"q_max": q_max, "communities": part.community_count,
                          "flagged": len(flagged), **counts}

        partition = runner.run("detect", detect, out / "partition.json")

        def do_fracture():
            fr = fracture(world, partition)
            save_reconstructions(fr.reconstructions, out)
            return fr, {}

        fr = runner.run("fracture", do_fracture, out / "rec_*.json")
        recs = list(fr.reconstructions)
    else:
        raise ValidationError("pipeline needs a world spec, a world, or reconstructions")

    mg = runner.run(
        "pairwise",
        lambda: measure_graph(recs, config.seed, out / "measurements.json"),
        out / "measurements.json",
    )

    def average_stage():
        recs_by_id = {r.community_id: r for r in recs}
        counts = {}
        transforms, mg_t = average_similarities(recs_by_id, mg, counts)
        save_measurements(mg_t, out / "measurements_with_t.json")
        save_transforms(transforms, out / "transforms.json")
        return transforms, {**averaging_residuals(mg_t, transforms), **counts}

    transforms = runner.run("average", average_stage, out / "transforms.json")

    def merge_stage():
        model = merge_reconstructions(recs, transforms)
        save_merged(model, out / "merged.json")
        return model, {"cameras": model.camera_count, "tracks": int(model.track_ids.size)}

    model = runner.run("merge", merge_stage, out / "merged.json")

    def refine_stage():
        refined, rmodel, info = joint_refine(recs, transforms)
        save_merged(rmodel, out / "merged_refined.json",
                    (out / "transforms_refined.json", transforms_to_json(refined)))
        return rmodel, info

    refined_model = runner.run("refine", refine_stage, out / "merged_refined.json")

    evaluation = None
    if world is not None:
        def eval_stage():
            truth = world.truth_reconstruction()
            payload = {
                "merged": evaluate_against_truth(model, truth),
                "refined": evaluate_against_truth(refined_model, truth),
            }
            write_json(out / "eval.json", payload)
            return payload, {
                "median_center_error": payload["merged"]["median_center_error"],
                "refined_median_center_error": payload["refined"]["median_center_error"],
            }

        evaluation = runner.run("eval", eval_stage, out / "eval.json")

    report = {
        "seed": config.seed,
        "stages": runner.stages,
    }
    write_json(out / "report.json", report)
    return PipelineResult(partition=partition, evaluation=evaluation, report=report)


DATA_ARTIFACTS = (
    "world.json",
    "eg.json",
    "truth-labels.json",
    "partition.json",
    "measurements.json",
    "measurements_with_t.json",
    "transforms.json",
    "merged.json",
    "transforms_refined.json",
    "merged_refined.json",
    "eval.json",
)
"""Deterministic artifacts: byte-identical across runs with equal seeds.
``report.json`` is excluded (it records wall-clock times)."""
