"""End-to-end orchestration: detect, fracture, measure, average, merge.

Every stage writes its artifact to the output directory so any stage can be
re-run from disk, and a run report records per-stage wall time and residual
statistics.  Stages that fan out over independent items (pairwise
measurements) use a thread pool with per-item seeds and a fixed reduction
order, so the worker count never changes a numeric result.
"""
from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .averaging import IrlsOptions, average_similarities, save_transforms
from .community import (
    DEFAULT_MIN_COMMUNITY_SIZE,
    DEFAULT_Q_THRESHOLD,
    build_community_graph,
    detect_communities,
    save_partition,
)
from .errors import CsfmError, NumericError, ValidationError
from .jsonio import write_json
from .measurements import (
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
from .reconstruction import covisible, save_reconstruction
from .rotations import geodesic_angle, quat_conjugate, quat_multiply
from .synth import GroundTruthWorld, WorldSpec, fracture, generate_world, write_world_files

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
    ransac_threshold: float | None = None
    ransac_iterations: int = 1024
    irls: IrlsOptions = field(default_factory=IrlsOptions)
    refine: bool = True
    evaluate: bool = True
    workers: int = 4


@dataclass
class PipelineResult:
    partition: object = None
    measurement_graph: MeasurementGraph | None = None
    transforms: list | None = None
    model: object = None
    refined_transforms: list | None = None
    refined_model: object = None
    evaluation: dict | None = None
    report: dict | None = None
    artifacts: dict = field(default_factory=dict)


def pairwise_seed(base_seed: int, i: int, j: int) -> int:
    """Deterministic per-pair seed, independent of evaluation order."""
    return int(
        np.random.SeedSequence([base_seed, _STREAM_PAIRWISE, i, j]).generate_state(1)[0]
    )


def measure_pairs(
    recs,
    pairs,
    seed: int,
    inlier_threshold: float | None = None,
    max_iterations: int = 1024,
    workers: int = 4,
) -> list:
    """RANSAC-measure each community pair; parallel, deterministic order.

    Pairs without enough co-visible tracks are skipped with a warning.
    """
    by_id = {r.community_id: r for r in recs}
    pairs = sorted((min(p, q), max(p, q)) for p, q in pairs)

    def one(pq):
        p, q = pq
        try:
            return pairwise_measurement(
                by_id[p],
                by_id[q],
                inlier_threshold=inlier_threshold,
                max_iterations=max_iterations,
                seed=pairwise_seed(seed, p, q),
            )
        except (ValidationError, NumericError) as exc:
            # a single failed pair is survivable as long as the measurement
            # graph stays connected; the connectivity check decides that
            log.warning("skipping pair (%d, %d): %s", p, q, exc)
            return None

    if workers > 1 and len(pairs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, pairs))
    else:
        results = [one(pq) for pq in pairs]
    return [m for m in results if m is not None]


def _averaging_residuals(mg: MeasurementGraph, mg_t: MeasurementGraph, transforms) -> dict:
    """L1 residuals of the scale, rotation and translation problems at the
    averaged transforms (``mg_t`` carries the recomputed translations)."""
    log_s = np.log([tr.s for tr in transforms])
    scale = [abs(np.log(m.s_ij) - (log_s[m.i] - log_s[m.j])) for m in mg.measurements]
    rotation = [
        geodesic_angle(
            quat_multiply(quat_conjugate(transforms[m.i].r), transforms[m.j].r), m.r_ij
        )
        for m in mg.measurements
    ]
    translation = [
        float(np.abs(m.t_ij - (transforms[m.j].t - transforms[m.i].t)).sum())
        for m in mg_t.measurements
    ]
    return {
        "scale_l1_residual": float(np.sum(scale)),
        "rotation_l1_residual_rad": float(np.sum(rotation)),
        "kept_pairs": len(mg_t.measurements),
        "translation_l1_residual": float(np.sum(translation)),
    }


class _StageRunner:
    def __init__(self):
        self.stages = []
        self.last_artifact = None

    def run(self, name, fn, artifact=None):
        start = time.perf_counter()
        try:
            result = fn()
        except CsfmError as exc:
            exc.args = (
                f"stage '{name}' failed: {exc} "
                f"(last good artifact: {self.last_artifact or 'none'})",
            )
            raise
        elapsed = time.perf_counter() - start
        stats = {}
        if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], dict):
            result, stats = result
        self.stages.append({"name": name, "seconds": elapsed, "stats": stats})
        if artifact is not None:
            self.last_artifact = str(artifact)
        return result


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute the staged pipeline; see :class:`PipelineConfig` for inputs.

    Input modes: a world spec (synthesizes the world first), a prebuilt
    world (detect + fracture + merge chain), or a set of per-community
    reconstructions (measurement and averaging stages only).
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner = _StageRunner()
    res = PipelineResult()

    world = config.world
    if world is None and config.spec is not None:
        spec = config.spec
        if spec.seed != config.seed:
            spec = WorldSpec(**{**spec.to_json(), "seed": config.seed})
        world = runner.run("synth", lambda: generate_world(spec), out / "world.json")
    if world is not None:
        write_world_files(world, out)
        res.artifacts["world"] = str(out / "world.json")
        res.artifacts["graph"] = str(out / "eg.json")

    if config.reconstructions is not None:
        recs = list(config.reconstructions)
        partition = None
    elif world is not None:
        def detect():
            part, q_max, flagged = detect_communities(
                world.graph, config.q_threshold, config.min_community_size
            )
            save_partition(out / "partition.json", part, q_max, flagged)
            return part, {"q_max": q_max, "communities": part.community_count,
                          "flagged": len(flagged)}

        partition = runner.run("detect", detect, out / "partition.json")
        res.partition = partition

        def do_fracture():
            fr = fracture(world, partition)
            for rec in fr.reconstructions:
                save_reconstruction(rec, out / f"rec_{rec.community_id}.json")
            return fr

        fr = runner.run("fracture", do_fracture, out / "rec_*.json")
        recs = list(fr.reconstructions)
    else:
        raise ValidationError("pipeline needs a world spec, a world, or reconstructions")

    if world is not None and partition is not None:
        def community_graph():
            cg = build_community_graph(world.graph, partition)
            payload = {
                "sizes": [int(v) for v in cg.sizes],
                "cross_edges": [
                    {"p": p, "q": q, "count": int(c)}
                    for (p, q), c in sorted(cg.cross_edges.items())
                ],
            }
            write_json(out / "community_graph.json", payload)
            return cg

        cg = runner.run("community_graph", community_graph, out / "community_graph.json")
        pairs = sorted(cg.cross_edges)
    else:
        # derive candidate pairs from shared tracks between the reconstructions
        pairs = []
        for a in range(len(recs)):
            for b in range(a + 1, len(recs)):
                if len(covisible(recs[a], recs[b])) >= 3:
                    pairs.append((recs[a].community_id, recs[b].community_id))

    def do_pairwise():
        meas = measure_pairs(
            recs,
            pairs,
            seed=config.seed,
            inlier_threshold=config.ransac_threshold,
            max_iterations=config.ransac_iterations,
            workers=config.workers,
        )
        mg = MeasurementGraph(community_count=len(recs), measurements=tuple(meas))
        mg.require_connected("pairwise measurement")
        save_measurements(mg, out / "measurements.json")
        return mg, {"measured_pairs": len(meas), "candidate_pairs": len(pairs)}

    mg = runner.run("pairwise", do_pairwise, out / "measurements.json")
    res.measurement_graph = mg

    def average_stage():
        recs_by_id = {r.community_id: r for r in recs}
        transforms, mg_t = average_similarities(recs_by_id, mg, config.irls)
        save_measurements(mg_t, out / "measurements_with_t.json")
        save_transforms(transforms, out / "transforms.json")
        return transforms, _averaging_residuals(mg, mg_t, transforms)

    transforms = runner.run("average", average_stage, out / "transforms.json")
    res.transforms = transforms

    def merge_stage():
        model = merge_reconstructions(recs, transforms)
        save_merged(model, out / "merged.json")
        return model, {"cameras": model.camera_count, "tracks": int(model.track_ids.size)}

    model = runner.run("merge", merge_stage, out / "merged.json")
    res.model = model

    refined_model = None
    if config.refine:
        def refine_stage():
            refined, rmodel, info = joint_refine(
                recs, transforms, huber_delta=config.ransac_threshold
            )
            save_transforms(refined, out / "transforms_refined.json")
            save_merged(rmodel, out / "merged_refined.json")
            return (refined, rmodel), info

        refined, refined_model = runner.run(
            "refine", refine_stage, out / "merged_refined.json"
        )
        res.refined_transforms = refined
        res.refined_model = refined_model

    if config.evaluate and world is not None:
        def eval_stage():
            truth = world.truth_reconstruction()
            payload = {"merged": evaluate_against_truth(model, truth)}
            if refined_model is not None:
                payload["refined"] = evaluate_against_truth(refined_model, truth)
            write_json(out / "eval.json", payload)
            return payload, {
                "median_center_error": payload["merged"]["median_center_error"]
            }

        res.evaluation = runner.run("eval", eval_stage, out / "eval.json")

    report = {
        "seed": config.seed,
        "stages": runner.stages,
    }
    write_json(out / "report.json", report)
    res.report = report
    for p in sorted(out.iterdir()):
        res.artifacts.setdefault(p.stem, str(p))
    return res


DATA_ARTIFACTS = (
    "world.json",
    "eg.json",
    "truth-labels.json",
    "partition.json",
    "community_graph.json",
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
