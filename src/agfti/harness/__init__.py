"""Data plumbing around the solver: containers, masks, metrics, experiments."""

from .data import (
    ContainerFormatError,
    DatasetContainer,
    load_container,
    load_dataset,
    load_dataset_csv,
    save_dataset,
    save_dataset_csv,
)
from .experiment import (
    BASELINE,
    STANDARD_VARIANTS,
    baseline_label_propagation,
    rep_seed,
    run_experiment,
    score,
)
from .masks import (
    MaskSpec,
    generate_masks,
    load_mask,
    missing_per_view,
    save_mask,
)
from .metrics import confusion_matrix, metrics
from .synth import synth_scp

__all__ = [
    "BASELINE",
    "ContainerFormatError",
    "DatasetContainer",
    "MaskSpec",
    "STANDARD_VARIANTS",
    "baseline_label_propagation",
    "confusion_matrix",
    "generate_masks",
    "load_container",
    "load_dataset",
    "load_dataset_csv",
    "load_mask",
    "metrics",
    "missing_per_view",
    "rep_seed",
    "run_experiment",
    "save_dataset",
    "save_dataset_csv",
    "save_mask",
    "score",
    "synth_scp",
]
