"""Exact equivariant localization toolkit for rank-two sheaf counting
on local fourfold geometries over toric and elliptic surfaces.

All arithmetic is exact: integer polynomials, rational-function scalars,
and truncated Laurent series in half-integer powers of q.
"""

from .eqalg import DEFAULT_REGISTRY, EqScalar
from .qseries import HalfQSeries, delta_inverse, goettsche_series
from .surfaces import PRESET_NAMES, ToricSurfaceModel, from_preset
from .localize import (PrefactorData, assemble_sum, mochizuki_coefficient,
                       typeII_component_integral)
from .moduli import (EllipticSurface, enumerate_typeII_K3, wall_threshold,
                     z_typeI_series, z_typeII_conjecture_series)
from .universal import ChernNumbers, UniversalPolynomial, fit_universal

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_REGISTRY", "EqScalar",
    "HalfQSeries", "delta_inverse", "goettsche_series",
    "PRESET_NAMES", "ToricSurfaceModel", "from_preset",
    "PrefactorData", "assemble_sum", "mochizuki_coefficient",
    "typeII_component_integral",
    "EllipticSurface", "enumerate_typeII_K3", "wall_threshold",
    "z_typeI_series", "z_typeII_conjecture_series",
    "ChernNumbers", "UniversalPolynomial", "fit_universal",
    "__version__",
]
