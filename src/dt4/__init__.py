"""Exact equivariant localization toolkit for rank-two sheaf counting
on local fourfold geometries over toric and elliptic surfaces.

All arithmetic is exact: integer polynomials, rational-function scalars,
and truncated Laurent series in half-integer powers of q.

The public names below are imported on first use (PEP 562), so a
command imports only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> submodule that defines it
_HOME = {
    "DEFAULT_REGISTRY": "eqalg", "FactoredScalar": "eqalg",
    "HalfQSeries": "qseries", "delta_inverse": "qseries",
    "goettsche_series": "qseries",
    "PRESET_NAMES": "surfaces", "ToricSurfaceModel": "surfaces",
    "from_preset": "surfaces",
    "PrefactorData": "localize", "assemble_sum": "localize",
    "mochizuki_coefficient": "localize",
    "typeII_component_integral": "localize",
    "EllipticSurface": "moduli", "enumerate_typeII_K3": "moduli",
    "wall_threshold": "moduli", "z_typeI_series": "moduli",
    "z_typeII_conjecture_series": "moduli",
    "ChernNumbers": "universal", "UniversalPolynomial": "universal",
    "fit_universal": "universal",
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
