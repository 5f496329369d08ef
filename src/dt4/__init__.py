"""Exact equivariant localization toolkit for rank-two sheaf counting
on local fourfold geometries over toric and elliptic surfaces.

All arithmetic is exact: integer polynomials, rational-function scalars,
and truncated Laurent series in q.

The public names below are imported on first use (PEP 562), so a
command imports only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> submodule that defines it (a submodule maps to itself);
# dt4.cli resolves the names its commands call through this table too
_HOME = {
    "FactoredScalar": "eqalg", "exact_str": "eqalg",
    "QSeries": "qseries", "delta_inverse": "qseries",
    "goettsche_series": "qseries", "k3_entries": "qseries",
    "z_typeI_closed_form": "qseries",
    "z_typeI_series": "qseries", "z_typeII_conjecture_series": "qseries",
    "PRESET_NAMES": "surfaces", "ToricSurfaceModel": "surfaces",
    "from_preset": "surfaces",
    "PrefactorData": "localize", "assemble_sum": "localize",
    "mochizuki_coefficient": "localize", "pure_s_monomial": "localize",
    "split_budget": "localize",
    "typeII_component_integral": "localize",
    "EllipticSurface": "moduli", "Polarization": "moduli",
    "enumerate_typeII_K3": "moduli", "in_stable_chamber": "moduli",
    "is_ample": "moduli", "wall_threshold": "moduli",
    "UniversalPolynomial": "universal", "fit_universal": "universal",
    "universal": "universal",
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _HOME[name]
    module = importlib.import_module(f".{home}", __name__)
    return module if name == home else getattr(module, name)
