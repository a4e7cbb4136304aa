"""Anchor graph fusion with tensorial imputation for multi-view semi-supervised learning."""

from .solver import SolveResult, SolverConfig, admm_solve, predict

__version__ = "0.1.0"

__all__ = [
    "SolveResult",
    "SolverConfig",
    "admm_solve",
    "predict",
    "__version__",
]
