"""Mask-focal-loss toolkit: ground-truth synthesis, the focal loss family
with analytic gradients, peak-based counting, and a desk-scale fitting
harness for verifying that the losses drive a prediction grid to correct
crowd counts.
"""

from .errors import (
    DimensionMismatchError,
    HeatlossError,
    NonFiniteLossError,
    PlacementError,
    SchemaError,
    ValidationError,
)
from .grid import Grid, read_grid, read_grid_csv, write_grid, write_grid_csv
from .ground_truth import (
    AnchorSet,
    BoxAnnotation,
    SceneAnnotation,
    SigmaParams,
    compute_sigma,
    interpolate_boxes,
    render_binary_map,
    render_heatmap,
    render_mask,
    sigma_from_sensing_factor,
)
from .losses import (
    GroundTruthBundle,
    LossConfig,
    LossResult,
    LossVariant,
    ScalarSample,
    batched_loss_values,
    focal_scalar,
    loss_with_grad,
)
from .counting import (
    CountReport,
    Peak,
    compute_metrics,
    count_image,
    extract_peaks,
    match_localizations,
)
from .synth import (
    FitConfig,
    FitTrace,
    InitMode,
    SynthParams,
    fit_direct,
    generate_scene,
    run_desk_experiment,
    supervision_bundle,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorSet",
    "BoxAnnotation",
    "CountReport",
    "DimensionMismatchError",
    "FitConfig",
    "FitTrace",
    "Grid",
    "GroundTruthBundle",
    "HeatlossError",
    "InitMode",
    "LossConfig",
    "LossResult",
    "LossVariant",
    "NonFiniteLossError",
    "Peak",
    "PlacementError",
    "ScalarSample",
    "SceneAnnotation",
    "SchemaError",
    "SigmaParams",
    "SynthParams",
    "ValidationError",
    "batched_loss_values",
    "compute_metrics",
    "compute_sigma",
    "count_image",
    "extract_peaks",
    "fit_direct",
    "focal_scalar",
    "generate_scene",
    "interpolate_boxes",
    "loss_with_grad",
    "match_localizations",
    "read_grid",
    "read_grid_csv",
    "render_binary_map",
    "render_heatmap",
    "render_mask",
    "run_desk_experiment",
    "sigma_from_sensing_factor",
    "supervision_bundle",
    "write_grid",
    "write_grid_csv",
]
