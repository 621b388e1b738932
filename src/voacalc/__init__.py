"""Exact-arithmetic verification toolkit for vertex-operator-algebra
identities on a truncated free boson, with fusion-algebra and genus-zero
sewing checks."""

from .fock import GradedVector, HeisenbergVOA, build_heisenberg
from .series import (FormalSeries, Window, check_delta_identity,
                     delta_expansion)

__all__ = [
    "GradedVector", "HeisenbergVOA", "build_heisenberg",
    "FormalSeries", "Window", "check_delta_identity", "delta_expansion",
]
