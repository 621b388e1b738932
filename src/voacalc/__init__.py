"""Exact-arithmetic verification toolkit for vertex-operator-algebra
identities on a truncated free boson, with fusion-algebra and genus-zero
sewing checks."""

from .fock import GradedVector, HeisenbergVOA, build_heisenberg
from .series import (FormalSeries, Support, Window, check_delta_identity,
                     delta_expansion, series_multiply)

__all__ = [
    "GradedVector", "HeisenbergVOA", "build_heisenberg",
    "FormalSeries", "Support", "Window",
    "check_delta_identity", "delta_expansion", "series_multiply",
]
