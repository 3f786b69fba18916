"""Write quad4.json, the 16-mode Monte Carlo config of the benchmark.

    python3 perfbench/make_quad4.py            # rewrites perfbench/quad4.json

The plant is drawn once from a fixed generator seed and rounded to four
decimals, so the committed file is reproduced byte for byte:

* A: a 4x4 Gaussian matrix scaled to spectral radius 0.9 (stable);
* B: a 4x4 Gaussian matrix times 0.5, one column per link;
* C = I, Q = 0 and R = 2.5e-3 I, as in the cstr5 plant;
* four links, each with the cstr5 link chain [[0.8, 0.2], [0.4, 0.6]],
  so s = 2^4 = 16 modes;
* zero strategy, nonzero initial state x0 = (1, 1, 1, 1), white-noise
  inputs of standard deviation 10, 100-step trials, all three estimators.
"""

import json
from pathlib import Path

import numpy as np

PLANT_SEED = 0
LINK = [[0.8, 0.2], [0.4, 0.6]]


def quad4_config() -> dict:
    rng = np.random.default_rng(PLANT_SEED)
    a = rng.standard_normal((4, 4))
    a *= 0.9 / np.max(np.abs(np.linalg.eigvals(a)))
    b = 0.5 * rng.standard_normal((4, 4))
    eye = np.eye(4)
    return {
        "plant": {
            "A": np.round(a, 4).tolist(),
            "B": np.round(b, 4).tolist(),
            "C": eye.tolist(),
            "Q": np.zeros((4, 4)).tolist(),
            "R": (2.5e-3 * eye).tolist(),
        },
        "arma": None,
        "strategy": "zero",
        "chain": {"links": [LINK] * 4},
        "steps": 100,
        "input": {"std": [10.0] * 4},
        "x0": [1.0, 1.0, 1.0, 1.0],
        "estimator_init": {"x0": [0.0] * 4, "P0": (0.1 * eye).tolist(), "prior": "uniform"},
        "estimators": ["alg1", "alg2", "imm"],
        "trials": 100,
        "seed": None,
        "hist_bin_width": 2.0,
    }


if __name__ == "__main__":
    out = Path(__file__).resolve().parent / "quad4.json"
    out.write_text(json.dumps(quad4_config(), indent=2) + "\n")
    print(f"wrote {out}")
