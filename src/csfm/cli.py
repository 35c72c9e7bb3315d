"""Command-line interface.

Exit codes: 0 ok, 2 validation error or a path that cannot be opened, 3
numeric failure, 4 disconnected graph.  ``--seed`` is mandatory wherever
randomized estimation runs (synth, pairwise, pipeline) so every run is
reproducible.
"""
from __future__ import annotations

import functools
import logging
import sys
from pathlib import Path

import click

from . import __version__
from .averaging import average_similarities, load_transforms, save_transforms, transforms_to_json
from .community import (
    DEFAULT_MIN_COMMUNITY_SIZE,
    DEFAULT_Q_THRESHOLD,
    Partition,
    detect_communities,
    load_partition,
    save_partition,
)
from .errors import CsfmError, ValidationError
from .graph import degree_histogram, load_graph
from .jsonio import parsing, write_json
from .measurements import load_measurements
from .merging import (
    evaluate_against_truth,
    export_ply,
    joint_refine,
    load_merged,
    merge_reconstructions,
    save_merged,
)
from .pipeline import PipelineConfig, measure_graph, run_pipeline
from .reconstruction import check_community_ids, load_reconstruction, save_reconstructions
from .synth import WorldSpec, fracture, generate_world, load_world, read_world, world_truth, write_world_files

log = logging.getLogger("csfm")

# seeds feed numpy's SeedSequence, which takes no negative number, and are
# written as JSON integers, which the artifact encoder holds to 64 bits
SEED = click.IntRange(0, 2**63 - 1)


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CsfmError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(ValidationError.exit_code)

    return wrapper


def load_recs_dir(recs_dir: str) -> list:
    paths = sorted(Path(recs_dir).glob("rec_*.json"))
    if not paths:
        raise ValidationError(f"no rec_*.json files in {recs_dir}")
    recs = [load_reconstruction(p) for p in paths]
    check_community_ids(recs)
    return recs


def read_spec(path, seed: int) -> WorldSpec:
    """A world spec file, with ``seed`` in place of any seed it names."""
    with parsing(path, "world spec") as obj:
        if not isinstance(obj, dict):
            raise ValidationError("a world spec must be a JSON object")
        return WorldSpec(**{**obj, "seed": seed})


@click.group()
@click.version_option(__version__)
@click.option("-v", "--verbose", count=True, help="-v for info, -vv for per-iteration residuals.")
def main(verbose: int):
    """Partition an image-match graph into communities, align the
    per-community reconstructions, and merge them into one global frame."""
    level = logging.WARNING
    if verbose == 1:
        level = logging.INFO
    elif verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


@main.command()
@click.option("--spec", "spec_path", type=click.Path(exists=True), help="World spec JSON.")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", required=True, type=SEED)
@handle_errors
def synth(spec_path, out_dir, seed):
    """Generate a synthetic world: world.json, eg.json, truth-labels.json,
    and one rec_k.json per planted community."""
    spec = read_spec(spec_path, seed) if spec_path else WorldSpec(seed=seed)
    world = generate_world(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_world_files(world, out)
    planted = Partition(assignment=world.labels, community_count=int(world.labels.max()) + 1)
    save_reconstructions(fracture(world, planted).reconstructions, out)
    click.echo(
        f"world: {world.camera_centers.shape[0]} cameras, {world.points.shape[0]} points, "
        f"{world.graph.edge_count} match edges, {spec.cluster_count} planted communities"
    )


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--q-threshold", default=DEFAULT_Q_THRESHOLD, show_default=True, type=float)
@click.option("--min-size", default=DEFAULT_MIN_COMMUNITY_SIZE, show_default=True, type=int)
@click.option("-o", "--output", required=True, type=click.Path())
@handle_errors
def detect(graph_path, q_threshold, min_size, output):
    """Partition the match graph into communities."""
    g = load_graph(graph_path)
    click.echo(f"graph: {g.node_count} nodes, {g.edge_count} edges")
    log.info("degree histogram: %s", degree_histogram(g))
    part, q_max, flagged = detect_communities(g, q_threshold, min_size)
    save_partition(output, part, q_max, flagged)
    click.echo(
        f"{part.community_count} communities, q_max={q_max:.4f}, "
        f"{len(flagged)} flagged isolated"
    )


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True),
              help="Match graph; a consistency check only.")
@click.option("--partition", "partition_path", required=True, type=click.Path(exists=True),
              help="Partition of the match graph; a consistency check only.")
@click.option("--recs", "recs_dir", required=True, type=click.Path(exists=True))
@click.option("--seed", required=True, type=SEED)
# ignored; kept only because perfbench/run.py passes it
@click.option("--workers", hidden=True, type=int, expose_value=False)
@click.option("-o", "--output", required=True, type=click.Path())
@handle_errors
def pairwise(graph_path, partition_path, recs_dir, seed, output):
    """Estimate a similarity measurement for every community pair sharing at
    least 4 tracks, one more than RANSAC's minimal sample.  Pairs are
    measured one after another, each from its own seed derived from --seed.

    The partition must cover the graph and hold one community per
    reconstruction; neither chooses the pairs.
    """
    g = load_graph(graph_path)
    part, _, _ = load_partition(partition_path, node_count=g.node_count)
    recs = load_recs_dir(recs_dir)
    if len(recs) != part.community_count:
        raise ValidationError(
            f"{partition_path} has {part.community_count} communities but {recs_dir} "
            f"holds {len(recs)} reconstructions"
        )
    _, stats = measure_graph(recs, seed, output)
    click.echo(f"{stats['measured_pairs']} measurements over {part.community_count} communities")


@main.command()
@click.option("--measurements", "meas_path", required=True, type=click.Path(exists=True))
@click.option("--recs", "recs_dir", required=True, type=click.Path(exists=True))
@click.option("-o", "--output", required=True, type=click.Path())
@handle_errors
def average(meas_path, recs_dir, output):
    """Solve the three global L1 averaging problems."""
    recs = {r.community_id: r for r in load_recs_dir(recs_dir)}
    mg = load_measurements(meas_path, community_count=len(recs))
    transforms, _ = average_similarities(recs, mg)
    save_transforms(transforms, output)
    click.echo(f"averaged {len(transforms)} community transforms")


@main.command()
@click.option("--recs", "recs_dir", required=True, type=click.Path(exists=True))
@click.option("--transforms", "transforms_path", required=True, type=click.Path(exists=True))
@click.option("-o", "--output", required=True, type=click.Path())
@handle_errors
def merge(recs_dir, transforms_path, output):
    """Apply the community transforms and fuse duplicate tracks."""
    recs = load_recs_dir(recs_dir)
    transforms = load_transforms(transforms_path)
    model = merge_reconstructions(recs, transforms)
    save_merged(model, output)
    click.echo(f"merged {model.camera_count} cameras, {model.track_ids.size} tracks")


@main.command()
@click.option("--recs", "recs_dir", required=True, type=click.Path(exists=True))
@click.option("--transforms", "transforms_path", required=True, type=click.Path(exists=True))
@click.option("-o", "--output", required=True, type=click.Path(), help="Refined transforms JSON.")
@click.option("--merged-out", type=click.Path(), default=None, help="Also write the re-merged model.")
@handle_errors
def refine(recs_dir, transforms_path, output, merged_out):
    """Jointly polish the community transforms over co-visible tracks."""
    recs = load_recs_dir(recs_dir)
    transforms = load_transforms(transforms_path)
    refined, model, info = joint_refine(recs, transforms)
    if merged_out:
        # both files are checked before either is opened
        save_merged(model, merged_out, (output, transforms_to_json(refined)))
    else:
        save_transforms(refined, output)
    if info["skipped"]:
        click.echo("refinement skipped: no co-visible tracks")
    else:
        click.echo(
            f"refined in {info['iterations']} iterations, "
            f"cost {info['initial_cost']:.6g} -> {info['final_cost']:.6g}"
        )


@main.command(name="eval")
@click.option("--merged", "merged_path", required=True, type=click.Path(exists=True))
@click.option("--world", "world_path", required=True, type=click.Path(exists=True))
@click.option("-o", "--output", required=True, type=click.Path())
@handle_errors
def eval_cmd(merged_path, world_path, output):
    """Compare a merged model against the synthetic ground truth."""
    model = load_merged(merged_path)
    # the geometry alone: deriving the match graph would cost far more than eval
    metrics = evaluate_against_truth(model, world_truth(read_world(world_path)))
    write_json(output, metrics)
    click.echo(
        f"median center error {metrics['median_center_error']:.6g}, "
        f"rmse {metrics['rmse_center_error']:.6g} over {metrics['n_cameras']} cameras"
    )


@main.command(name="export-ply")
@click.option("--merged", "merged_path", required=True, type=click.Path(exists=True))
@click.option("--color-by-community", is_flag=True, default=False)
@click.option("-o", "--output", required=True, type=click.Path())
@handle_errors
def export_ply_cmd(merged_path, color_by_community, output):
    """Write the merged point cloud as ASCII PLY."""
    model = load_merged(merged_path)
    export_ply(model, output, color_by_community=color_by_community)
    click.echo(f"wrote {model.track_ids.size} vertices to {output}")


@main.command()
@click.option("--spec", "spec_path", type=click.Path(exists=True), help="World spec JSON (synthesizes first).")
@click.option("--world", "world_path", type=click.Path(exists=True), help="Existing world.json.")
@click.option("--recs", "recs_dir", type=click.Path(exists=True), help="Existing per-community reconstructions.")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", required=True, type=SEED)
@click.option("--q-threshold", default=DEFAULT_Q_THRESHOLD, show_default=True, type=float)
@click.option("--min-size", default=DEFAULT_MIN_COMMUNITY_SIZE, show_default=True, type=int)
@handle_errors
def pipeline(spec_path, world_path, recs_dir, out_dir, seed, q_threshold, min_size):
    """Run every stage: detect, fracture, pairwise, average, merge, refine, eval."""
    if sum(bool(p) for p in (spec_path, world_path, recs_dir)) != 1:
        raise click.UsageError("provide exactly one of --spec, --world, or --recs")
    spec = read_spec(spec_path, seed) if spec_path else None
    world = load_world(world_path) if world_path else None
    recs = tuple(load_recs_dir(recs_dir)) if recs_dir else None
    config = PipelineConfig(
        out_dir=out_dir,
        seed=seed,
        spec=spec,
        world=world,
        reconstructions=recs,
        q_threshold=q_threshold,
        min_community_size=min_size,
    )
    result = run_pipeline(config)
    for stage in result.report["stages"]:
        click.echo(f"  {stage['name']:<22s} {stage['seconds']*1e3:9.1f} ms  {stage['stats']}")
    if result.evaluation is not None:
        merged, refined = result.evaluation["merged"], result.evaluation["refined"]
        click.echo(
            f"median center error: {merged['median_center_error']:.6g} merged, "
            f"{refined['median_center_error']:.6g} refined ({merged['n_cameras']} cameras)"
        )
    click.echo(f"artifacts in {out_dir}")


if __name__ == "__main__":
    main()
