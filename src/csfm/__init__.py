"""Community-partitioned structure-from-motion merging.

Detects communities in an image-match graph by greedy modularity
maximization, estimates robust similarity transforms between per-community
reconstructions from co-visible 3D points, solves three global L1 averaging
problems (scale, rotation, translation), and merges everything into one
global frame.  A deterministic synthetic-world generator provides ground
truth for testing and benchmarks.
"""
__version__ = "0.1.0"

from .alignment import horn_similarity, ransac_similarity
from .averaging import (
    average_rotations,
    average_scales,
    average_similarities,
    average_translations,
    recompute_pairwise_translations,
)
from .community import (
    DendrogramTrace,
    Partition,
    absorb_small,
    best_partition,
    build_community_graph,
    greedy_merge_trace,
    modularity,
    recursive_partition,
)
from .errors import (
    CsfmError,
    DegenerateGeometryError,
    DisconnectedGraphError,
    NumericError,
    RankDeficientSystemError,
    RansacFailureError,
    ValidationError,
)
from .graph import EpipolarGraph, connected_components, induced_subgraph, load_graph
from .l1 import solve_l1, solve_weighted_ls
from .measurements import MeasurementGraph, pairwise_measurement
from .merging import (
    MergedModel,
    evaluate_against_truth,
    export_ply,
    joint_refine,
    merge_reconstructions,
)
from .pipeline import PipelineConfig, run_pipeline
from .reconstruction import Reconstruction, covisible_pairs, shared_tracks
from .rotations import exp_rotation, geodesic_angle, log_rotation
from .sim3 import Sim3
from .synth import FractureResult, GroundTruthWorld, WorldSpec, fracture, generate_world
