"""Shared tolerances, dimension guard and error types."""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

__all__ = [
    "DEFAULT_DIM_CAP",
    "DIM_CAP_ENV",
    "DimensionCapError",
    "TOL",
    "Tolerances",
    "ValidationError",
    "dim_cap",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used across the package.

    assertion   tolerance for mathematical assertions (norm identities,
                completeness of POVMs, trace-norm preconditions)
    structural  tolerance for structural properties of stored matrices
                (hermiticity of entries as written)
    psd         how far below zero an eigenvalue may dip before a matrix
                stops counting as positive semidefinite
    eig_floor   eigenvalues at or below this are treated as exact zeros
                inside matrix functions (sqrt, log)
    support     allowed overlap of a state with the kernel of the second
                argument before a relative entropy is declared infinite
    verdict     slack granted when turning an inequality into a verdict
    fw_gap      target linearization gap for the inner polytope solver
    """

    assertion: float = 1e-9
    structural: float = 1e-12
    psd: float = 1e-10
    eig_floor: float = 1e-12
    support: float = 1e-9
    verdict: float = 1e-9
    fw_gap: float = 1e-7


TOL = Tolerances()

DEFAULT_DIM_CAP = 4096
DIM_CAP_ENV = "PTBOUND_DIM_CAP"
# the largest cap whose cap x cap complex128 matrix numpy can size: above it,
# numpy raises "array is too big" instead of failing to allocate
_MAX_DIM_CAP = math.isqrt(sys.maxsize // 16)


def dim_cap() -> int:
    """Dense-dimension guard, overridable through the PTBOUND_DIM_CAP env var."""
    raw = os.environ.get(DIM_CAP_ENV)
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{DIM_CAP_ENV} must be an integer, got {raw!r}") from exc
    if value < 2:
        raise ValidationError(f"{DIM_CAP_ENV} must be at least 2, got {value}")
    if value > _MAX_DIM_CAP:
        raise ValidationError(f"{DIM_CAP_ENV} must be at most {_MAX_DIM_CAP}, got {value}")
    return value


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class DimensionCapError(RuntimeError):
    """Raised when a construction would exceed the dense-dimension guard."""


def check_dim(dim: int, what: str) -> None:
    """Refuse a dimension above the cap.  One of 2**64 or more, which no cap
    allows, is named by that bound, so a caller may stop computing it there."""
    cap = dim_cap()
    if dim > cap:
        shown = dim if dim < 2**64 else "at least 2^64"
        raise DimensionCapError(
            f"{what} needs dimension {shown}, above the cap {cap} (set {DIM_CAP_ENV} to raise it)")
