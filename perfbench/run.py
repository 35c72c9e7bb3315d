"""End-to-end benchmark of the csfm chain.

    python3 perfbench/run.py --workload large-graph --seed 1 --seconds 20 --trace 0

Run from the repository root; csfm is imported from ``src/``.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` untraced and traced operations
alternate and the object holds the per-layer metrics, while the spans go to
``perfbench/runs/<workload>-seed<n>-trace1/spans.json``.  See README.md.
"""
import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads (csfm is imported in main): the
# pipeline's own pairwise workers are the only parallelism, so the host's
# cores are not oversubscribed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"

WORKERS = min(2, len(os.sched_getaffinity(0)))
WORKLOADS = {
    # detection (the O(n*m) CNM scan) and synth's co-visibility product dominate
    "large-graph": {"camera_count": 450, "point_count": 6000, "cluster_count": 6,
                    "noise_sigma": 1e-3, "outlier_fraction": 0.0},
    # fracture, track fusion and JSON writes dominate; detection is small.  Tight
    # clusters keep detection from moving boundary cameras into a neighbour
    # community, which on a third of default-spread worlds adds ~6,700
    # duplicated tracks and makes the operation time depend on the seed.
    "dense-points": {"camera_count": 180, "point_count": 27000, "cluster_count": 4,
                     "cluster_spread": 1.5, "noise_sigma": 1e-3, "outlier_fraction": 0.0},
    # the csfm commands chained through files; fixed world, see STAGED_SEED
    "staged-cli": {"camera_count": 400, "point_count": 10000, "cluster_count": 16,
                   "noise_sigma": 1e-3, "outlier_fraction": 0.2},
}
# The staged world does not depend on --seed: on it every chain fails the
# accuracy check because of the RANSAC threshold fault named in README.md,
# and a fault that shows on every run must show on the same inputs.
STAGED_SEED = 11
CHAIN = [
    ["detect", "--graph", "{inp}/eg.json", "-o", "{out}/partition.json"],
    ["pairwise", "--graph", "{inp}/eg.json", "--partition", "{out}/partition.json",
     "--recs", "{inp}", "--seed", "{seed}", "--workers", "{workers}",
     "-o", "{out}/measurements.json"],
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


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def pin_mmap_threshold():
    """Fix glibc's mmap threshold at its 128 KiB default.

    glibc raises the threshold after each large free, so whether a later
    array is mmapped (and returned on free) depends on allocation history and
    thread timing; peak RSS of identical runs then differed by 25%.  With the
    threshold fixed, peak RSS follows the live data.  No-op without glibc.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        mallopt.restype = ctypes.c_int
        mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD


def run_cli(csfm_cli, args):
    """Run one csfm command in this process; returns (exit code, output)."""
    out = io.StringIO()
    code = 0
    try:
        with contextlib.redirect_stdout(out):
            csfm_cli.main.main(args=args, prog_name="csfm", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except csfm_cli.click.ClickException as exc:
        code = exc.exit_code
        out.write(exc.format_message())
    return code, out.getvalue()


class Pipeline:
    """One ``run_pipeline`` call per operation, on worlds from ``generate_world``."""

    inputs = 5  # distinct worlds per run, so accuracy and size average over seeds

    def __init__(self, csfm, spec, seed):
        self.csfm, self.spec = csfm, spec
        self.seeds = [seed * self.inputs + i for i in range(self.inputs)]

    def setup(self, i, workdir):
        spec = self.csfm.synth.WorldSpec(**self.spec, seed=self.seeds[i])
        return self.csfm.synth.generate_world(spec), self.seeds[i]

    def op(self, inp, out, tracer):
        world, seed = inp
        config = self.csfm.pipeline.PipelineConfig(
            out_dir=str(out), seed=seed, world=world, workers=WORKERS
        )
        self.csfm.pipeline.run_pipeline(config)
        return []

    def input_dir(self, inp, out):
        return out  # the pipeline writes its world, graph and labels itself


class Staged:
    """The csfm commands chained through their artifacts, run in-process."""

    inputs = 3  # identical copies of the fixed world, each made and timed afresh

    def __init__(self, csfm, spec, seed):
        self.csfm, self.spec = csfm, spec

    def setup(self, i, workdir):
        inp = workdir / f"input{i}"
        inp.mkdir()
        (inp / "spec.json").write_text(json.dumps(self.spec))
        code, text = run_cli(self.csfm.cli, [
            "synth", "--spec", str(inp / "spec.json"), "--out", str(inp),
            "--seed", str(STAGED_SEED),
        ])
        if code != 0:
            raise RuntimeError(f"csfm synth exited {code}: {text}")
        return inp

    def op(self, inp, out, tracer):
        out.mkdir()
        problems = []
        fields = {"inp": inp, "out": out, "seed": STAGED_SEED, "workers": WORKERS}
        with tracer.span("chain", "cli.self_s") if tracer else contextlib.nullcontext():
            for template in CHAIN:
                args = [a.format(**fields) for a in template]
                with tracer.span(args[0], "cli.self_s") if tracer else contextlib.nullcontext():
                    code, text = run_cli(self.csfm.cli, args)
                if code != 0:
                    problems.append(f"csfm {args[0]} exited {code}: {text.strip()}")
                    break
        return problems

    def input_dir(self, inp, out):
        return inp


def main(argv=None):
    args = parse_args(argv)
    pin_mmap_threshold()
    t0 = time.perf_counter()
    if not (ROOT / "src" / "csfm" / "__init__.py").is_file():
        print(f"error: no csfm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import csfm.cli
    import csfm.pipeline
    import csfm.synth
    import_s = time.perf_counter() - t0

    import numpy as np

    import checks
    import spans

    workload_cls = Staged if args.workload == "staged-cli" else Pipeline
    workload = workload_cls(csfm, WORKLOADS[args.workload], args.seed)
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tracer = spans.Tracer() if args.trace else None

    # set-up: every input made fresh, each one timed
    inputs, setup_times = [], []
    if tracer:
        tracer.install()
    for i in range(workload.inputs):
        gc.collect()
        if tracer:
            tracer.op = f"setup{i}"
        t = time.perf_counter()
        inputs.append(workload.setup(i, run_dir))
        setup_times.append(time.perf_counter() - t)
    if tracer:
        tracer.uninstall()

    # timed operations, cycling over the inputs; traced ones alternate in
    min_ops = 2 * workload.inputs if tracer else workload.inputs
    ops = []  # (operation number, input index, traced, wall seconds)
    first = {}  # input index -> (operation directory, artifact digest)
    problems = []
    t_loop = time.perf_counter()
    k = 0
    while k < min_ops or time.perf_counter() - t_loop < args.seconds:
        # traced runs pair an untraced and a traced operation on each input
        i = (k // 2 if tracer else k) % workload.inputs
        out = run_dir / f"op{k}"
        is_traced = bool(tracer) and k % 2 == 1
        gc.collect()
        if is_traced:
            tracer.op = k
            tracer.install()
        t = time.perf_counter()
        problems += workload.op(inputs[i], out, tracer if is_traced else None)
        wall = time.perf_counter() - t
        if is_traced:
            tracer.uninstall()
        ops.append((k, i, is_traced, wall))
        got = checks.digest(out)
        if i not in first:
            first[i] = (out, got)
        else:
            diff = checks.digest_mismatch(first[i][1], got)
            if diff:
                problems.append(f"op {k}: artifacts differ from input {i}'s first: {diff}")
            shutil.rmtree(out)
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # independent output checks, once per input (later operations are byte-identical)
    errors, failing = [], set()
    for i, (out, _) in sorted(first.items()):
        err, tol, found = checks.check_operation(out, workload.input_dir(inputs[i], out))
        problems += [f"input {i}: {p}" for p in found]
        if len(err) == 0 or np.median(err) > tol:
            failing.add(i)
            print(f"input {i}: median center error {np.median(err) if len(err) else 'n/a'} "
                  f"exceeds {tol:.6g}", file=sys.stderr)
        errors.append(err)
    failed = sum(1 for _, i, _, _ in ops if i in failing)
    walls = [w for _, _, is_traced, w in ops if not is_traced]

    if tracer:
        traced = [(k, i, w) for k, i, is_traced, w in ops if is_traced]
        # each traced operation follows an untraced one on the same input
        overhead = statistics.median(w - ops[k - 1][3] for k, _, w in traced)
        values = tracer.per_layer(
            [k for k, _, _ in traced], [f"setup{i}" for i in range(workload.inputs)], overhead
        )
        for i in range(workload.inputs):
            if not tracer.counts_repeat([k for k, j, _ in traced if j == i]):
                problems.append(f"per-layer counts differ between traced operations on input {i}")
        for k, _, wall in traced:
            covered = sum(tracer.self_times(k).values())
            print(f"traced op {k}: self times sum to {covered:.4f} s of {wall:.4f} s")
        (run_dir / "spans.json").write_text(json.dumps(tracer.spans))
        metrics = {name: {"value": values[name], "unit": spans.UNITS[name]} for name in sorted(values)}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "artifact_mb": {
                "value": statistics.mean(checks.artifact_bytes(d) for d, _ in first.values()) / 2**20,
                "unit": "MiB",
            },
            "median_center_error": {
                "value": float(np.median(np.concatenate(errors))), "unit": "world_units",
            },
        }

    for out, _ in first.values():
        shutil.rmtree(out, ignore_errors=True)
    for inp in inputs:
        if isinstance(inp, Path):
            shutil.rmtree(inp, ignore_errors=True)
    if not tracer:
        run_dir.rmdir()
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations, {failed} failed, "
          f"walls {[round(w, 3) for *_, w in ops]}, "
          f"set-up {[round(s, 3) for s in setup_times]} + import {import_s:.3f}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
