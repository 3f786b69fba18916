"""Golden outputs: the CLI's files for four fixed-seed runs, checked by
SHA-256 digest against ``tests/golden/manifest.json``.

Each run is repeated in a subprocess with ``OPENBLAS_NUM_THREADS=1``,
serially and with ``--jobs 2``. A change that moves any output by one bit
fails here; one that means to updates the manifest in the same commit, by

    PYTHONPATH=src python tests/test_golden.py --write

and says why. The digests hold for the numpy and Python versions recorded
beside them; other versions fail, naming both.

A digest mismatch of a run that ``tests/golden/drift.npz`` covers also
reports how far the estimates moved: per estimator, the count of changed
mode decisions and fallback flags and the largest absolute and relative
state difference, over the leading trials of that run. Those reference
arrays are rewritten only by

    PYTHONPATH=src python tests/test_golden.py --write-drift

in a change that states a drift tolerance (``DRIFT_TOLERANCE``), so drift
over several such changes stays visible.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ncsmode.cli import load_config
from ncsmode.sim import run_monte_carlo

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"
DRIFT = ROOT / "tests" / "golden" / "drift.npz"

RUNS = {
    "cstr5-hold": ["--preset", "cstr5", "--trials", "100", "--seed", "2024", "--emit-steps"],
    "quad4-zero": ["--config", "perfbench/quad4.json", "--trials", "10", "--seed", "7",
                   "--emit-steps"],
    "cstr5-zero": ["--preset", "cstr5", "--strategy", "zero", "--trials", "10", "--seed", "7",
                   "--emit-steps"],
    # the only run with process noise and a resampled x0, so the only one
    # whose digests cover those draws of the truth
    "cstr5-noise": ["--config", "tests/golden/cstr5-noise.json", "--trials", "10", "--seed", "7",
                    "--emit-steps"],
}


# the runs the drift reference covers: config source, seed, leading trials kept
DRIFT_RUNS = {
    "cstr5-hold": ("cstr5", 2024, 8),
    "quad4-zero": (str(ROOT / "perfbench" / "quad4.json"), 7, 4),
}

# the drift from the reference that this tree is allowed: changed decisions,
# changed fallback flags, and the largest relative state difference
DRIFT_TOLERANCE = (0, 0, 0.0)


def _estimates(name: str) -> dict[str, np.ndarray]:
    """Each estimator's modes, fallback flags and full-precision states over
    the leading trials of golden run ``name``, keyed ``run.estimator.field``."""
    source, seed, trials = DRIFT_RUNS[name]
    cfg = load_config(source)
    records = list(run_monte_carlo(cfg.trial, trials, seed, cfg.estimators))
    out = {}
    for est in cfg.estimators:
        for field, column in (("modes", "est_modes"), ("flags", "fallbacks"),
                              ("states", "est_states")):
            out[f"{name}.{est}.{field}"] = np.array([getattr(rec, column)[est]
                                                     for rec in records])
    return out


def _drift(got: dict, want: dict) -> dict[str, tuple]:
    """Per ``run.estimator``: changed decisions, changed flags, and the
    largest absolute and relative state differences of ``got`` from ``want``."""
    drift = {}
    for key in sorted({key.rsplit(".", 1)[0] for key in want}):
        states, ref = got[f"{key}.states"], want[f"{key}.states"]
        diff = np.abs(states - ref)
        rel = diff / np.maximum(np.abs(ref), np.finfo(float).tiny)
        drift[key] = (
            int(np.count_nonzero(got[f"{key}.modes"] != want[f"{key}.modes"])),
            int(np.count_nonzero(got[f"{key}.flags"] != want[f"{key}.flags"])),
            float(np.fmax.reduce(diff, axis=None)), float(np.fmax.reduce(rel, axis=None)),
        )
    return drift


def _reference(name: str) -> dict[str, np.ndarray]:
    """The drift reference's arrays of golden run ``name``."""
    with np.load(DRIFT) as ref:
        return {key: ref[key] for key in ref.files if key.startswith(name + ".")}


def _drift_report(name: str) -> str:
    got, want = _estimates(name), _reference(name)
    return "\n".join(
        f"  {key}: {modes} of {want[key + '.modes'].size} decisions and {flags} fallback "
        f"flags changed, states differ by at most {diff:.3g} ({rel:.3g} relative)"
        for key, (modes, flags, diff, rel) in _drift(got, want).items())


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _digests(name: str, out: Path, jobs: int = 1) -> dict[str, str]:
    """Run ``name`` into ``out`` and return the SHA-256 of each file by name."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, "-m", "ncsmode.cli", "run", *RUNS[name], "--out", str(out),
           "--jobs", str(jobs)]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", list(RUNS))
def test_cli_outputs_match_the_golden_digests(tmp_path, name, jobs):
    manifest = json.loads(MANIFEST.read_text())
    want_versions, got_versions = manifest["versions"], _versions()
    assert got_versions == want_versions, (
        f"the digests were recorded with {want_versions}, this is {got_versions}")
    assert manifest["runs"][name]["args"] == RUNS[name]
    want = manifest["runs"][name]["files"]
    got = _digests(name, tmp_path, jobs)
    missing, extra = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    differ = sorted(f for f in want.keys() & got.keys() if want[f] != got[f])
    drift = ""
    if differ and name in DRIFT_RUNS:
        drift = f"\nestimates of its first {DRIFT_RUNS[name][2]} trials:\n" + _drift_report(name)
    assert not (missing or extra or differ), (
        f"{name} --jobs {jobs}: {len(differ)} file(s) differ {differ[:10]}, "
        f"missing {missing[:10]}, unexpected {extra[:10]}{drift}")


@pytest.mark.parametrize("name", list(DRIFT_RUNS))
def test_estimates_stay_within_the_stated_drift(name):
    """The estimates of the drift reference's trials differ from it by no
    more than ``DRIFT_TOLERANCE``: none at all, until a change states one."""
    got, want = _estimates(name), _reference(name)
    assert sorted(want) == sorted(got)
    max_modes, max_flags, max_rel = DRIFT_TOLERANCE
    for key, (modes, flags, _, rel) in _drift(got, want).items():
        assert modes <= max_modes and flags <= max_flags and rel <= max_rel, (
            key, modes, flags, rel)


def test_drift_counts_planted_changes():
    """A changed decision, a changed flag and a last-bit state change are
    each counted, and an unchanged copy shows no drift."""
    want = {key: arr for key, arr in _reference("quad4-zero").items()
            if key.startswith("quad4-zero.alg2.")}
    got = {key: arr.copy() for key, arr in want.items()}
    assert _drift(got, want) == {"quad4-zero.alg2": (0, 0, 0.0, 0.0)}
    modes, flags, states = (got[f"quad4-zero.alg2.{f}"] for f in ("modes", "flags", "states"))
    modes[1, 7] = modes[1, 7] % 16 + 1
    flags[0, 3] = ~flags[0, 3]
    states[2, 5, 1] = np.nextafter(states[2, 5, 1], np.inf)
    ulp = abs(states[2, 5, 1] - want["quad4-zero.alg2.states"][2, 5, 1])
    changed, flipped, diff, rel = _drift(got, want)["quad4-zero.alg2"]
    assert (changed, flipped, diff) == (1, 1, ulp) and 0.0 < rel <= np.finfo(float).eps


def _write(tmp: Path) -> None:
    runs = {}
    for name, args in RUNS.items():
        out = tmp / name
        runs[name] = {"args": args, "files": _digests(name, out)}
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps({"versions": _versions(), "runs": runs}, indent=1) + "\n")


def _write_drift() -> None:
    arrays = {}
    for name in DRIFT_RUNS:
        arrays.update(_estimates(name))
    np.savez_compressed(DRIFT, **arrays)


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] == ["--write-drift"]:
        _write_drift()
    elif sys.argv[1:] == ["--write"]:
        with tempfile.TemporaryDirectory() as tmp:
            _write(Path(tmp))
    else:
        sys.exit("usage: python tests/test_golden.py --write | --write-drift")
