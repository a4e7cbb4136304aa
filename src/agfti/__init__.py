"""Anchor graph fusion with tensorial imputation for multi-view semi-supervised learning."""

__version__ = "0.1.0"

__all__ = [
    "SolveResult",
    "SolverConfig",
    "admm_solve",
    "predict",
    "__version__",
]

# resolved lazily so the command line module can pin BLAS thread-count
# environment variables before anything imports numpy
def __getattr__(name):
    if name in __all__:
        from . import solver

        return getattr(solver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
