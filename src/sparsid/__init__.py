"""Online sparse Bayesian identification of governing equations.

The pieces compose in layers: polynomial feature dictionaries
(`dictionary`), sparse information-form posteriors with adaptive shrinkage
(`posterior`), the windowed streaming update with well-posedness checks
(`recursion`, `monitor`), benchmark generators (`simulate`), and scoring
plus rendering helpers (`analyze`).

Importing the package imports none of them: each name below, and each
module, is imported on first access (PEP 562), so a process loads only the
modules it uses (a monitor run never loads `posterior`, `analyze` or
`simulate`).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analyze": ("TruthTrajectory", "empirical_h", "render_equations", "tracking_bound"),
    "dictionary": ("DictionarySpec", "Sample", "build_matrix"),
    "errors": (
        "ConditionViolated",
        "DimensionMismatch",
        "InsufficientWarmup",
        "NonFiniteInput",
        "NonFiniteState",
        "NotPositiveDefinite",
        "SparsidError",
        "TimestampMismatch",
    ),
    "monitor": ("PeReport", "UtilityReport", "check_pe", "utility"),
    "posterior": (
        "HorseshoeState",
        "NoiseModel",
        "PosteriorState",
        "batch_fit",
        "initial_horseshoe",
        "refresh_horseshoe",
    ),
    "recursion": (
        "RecursionConfig",
        "RecursionState",
        "StepOutcome",
        "WindowBuffer",
        "init",
        "snapshot",
        "step",
        "step_record",
    ),
    "simulate": (
        "LorenzConfig",
        "SparseRegressionConfig",
        "gen_sparse_regression",
        "lorenz_coefficients",
        "lorenz_rhs",
        "simulate_lorenz",
    ),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
