"""Generate and validate the packaged toric surface presets.

Run from the repository root:

    python tools/gen_presets.py

Each preset is rebuilt from its fan declaration, cross-checked by the
oracles in dt4.surfaces.validate_model, and written to
src/dt4/presets/<name>.json.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from dt4.surfaces import SurfaceChernData, ToricSurfaceModel, validate_model


def plane():
    return ToricSurfaceModel.from_fan(
        "plane",
        rays=[(1, 0), (0, 1), (-1, -1)],
        ray_coeffs={"H": (1, 0, 0)},
        pairing={"H": {"H": 1}},
        canonical={"H": -3},
        chern=SurfaceChernData(c1_sq=9, c2=3, chi_O=1),
    )


def quadric():
    return ToricSurfaceModel.from_fan(
        "quadric",
        rays=[(1, 0), (0, 1), (-1, 0), (0, -1)],
        ray_coeffs={"A": (1, 0, 0, 0), "B": (0, 1, 0, 0)},
        pairing={"A": {"A": 0, "B": 1}, "B": {"A": 1, "B": 0}},
        canonical={"A": -2, "B": -2},
        chern=SurfaceChernData(c1_sq=8, c2=4, chi_O=1),
    )


def hirzebruch(e):
    # rays: fiber, negative section, fiber, positive section; C0 = D1, F = D0
    return ToricSurfaceModel.from_fan(
        f"hirzebruch{e}",
        rays=[(1, 0), (0, 1), (-1, e), (0, -1)],
        ray_coeffs={"C0": (0, 1, 0, 0), "F": (1, 0, 0, 0)},
        pairing={"C0": {"C0": -e, "F": 1}, "F": {"C0": 1, "F": 0}},
        canonical={"C0": -2, "F": -(e + 2)},
        chern=SurfaceChernData(c1_sq=8, c2=4, chi_O=1),
    )


def main():
    out_dir = pathlib.Path(__file__).resolve().parents[1] / "src" / "dt4" / "presets"
    out_dir.mkdir(parents=True, exist_ok=True)
    models = [plane(), quadric(), hirzebruch(1), hirzebruch(2), hirzebruch(3)]
    for model in models:
        validate_model(model)
        blob = model.to_json()
        # round trip through the loader before shipping
        ToricSurfaceModel.from_json(json.loads(json.dumps(blob)))
        path = out_dir / f"{model.name}.json"
        path.write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path} ({model.euler_char} fixed points)")


if __name__ == "__main__":
    main()
