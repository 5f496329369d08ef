"""Generate and validate the packaged toric surface presets.

Run from the repository root:

    python tools/gen_presets.py

Each preset is declared by its fan alone; the model derives the rest, is
cross-checked by the oracles in dt4.surfaces.validate_model, and is
written to src/dt4/presets/<name>.json.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from dt4.surfaces import ToricSurfaceModel, validate_model


def plane():
    return ToricSurfaceModel.from_fan(
        "plane",
        rays=[(1, 0), (0, 1), (-1, -1)],
        ray_coeffs={"H": (1, 0, 0)},
    )


def quadric():
    return ToricSurfaceModel.from_fan(
        "quadric",
        rays=[(1, 0), (0, 1), (-1, 0), (0, -1)],
        ray_coeffs={"A": (1, 0, 0, 0), "B": (0, 1, 0, 0)},
    )


def hirzebruch(e):
    # rays: fiber, negative section, fiber, positive section; C0 = D1, F = D0
    return ToricSurfaceModel.from_fan(
        f"hirzebruch{e}",
        rays=[(1, 0), (0, 1), (-1, e), (0, -1)],
        ray_coeffs={"C0": (0, 1, 0, 0), "F": (1, 0, 0, 0)},
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
