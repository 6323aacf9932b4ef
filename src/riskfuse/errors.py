"""Exception hierarchy shared across the package, and the training-input
contract every model family's fit checks.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4.
"""

import numpy as np


class FuseError(Exception):
    """Base class for all riskfuse errors."""


class ConfigError(FuseError):
    """Invalid configuration or command-line arguments."""


class DataError(FuseError):
    """Malformed or insufficient input data."""


class NumericError(FuseError):
    """Invalid parameter values or failed numeric procedures."""


def check_training_data(X, y, model: str):
    """``(X, y)`` as float arrays for a fit of ``model``, or a NumericError
    naming the model: labels other than 0 and 1, a design whose row count is
    not the labels', or a non-finite feature."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.all((y == 0) | (y == 1)):
        raise NumericError(f"{model} labels must be 0 or 1")
    if len(X) != len(y):
        raise NumericError(f"{model} design has {len(X)} rows for {len(y)} labels")
    if not np.isfinite(X).all():
        raise NumericError(f"{model} features must be finite")
    return X, y
