"""Golden outputs: the CLI's files for three fixed-seed runs, checked by
SHA-256 digest against ``tests/golden/manifest.json``.

Each run is repeated in a subprocess with ``OPENBLAS_NUM_THREADS=1``,
serially and with ``--jobs 2``. A change that moves any output by one bit
fails here; one that means to updates the manifest in the same commit, by

    PYTHONPATH=src python tests/test_golden.py --write

and says why. The digests hold for the numpy and Python versions recorded
beside them; other versions fail, naming both.
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

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"

RUNS = {
    "cstr5-hold": ["--preset", "cstr5", "--trials", "100", "--seed", "2024", "--emit-steps"],
    "quad4-zero": ["--config", "perfbench/quad4.json", "--trials", "10", "--seed", "7",
                   "--emit-steps"],
    "cstr5-zero": ["--preset", "cstr5", "--strategy", "zero", "--trials", "10", "--seed", "7",
                   "--emit-steps"],
}


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
    assert not (missing or extra or differ), (
        f"{name} --jobs {jobs}: {len(differ)} file(s) differ {differ[:10]}, "
        f"missing {missing[:10]}, unexpected {extra[:10]}")


def _write(tmp: Path) -> None:
    runs = {}
    for name, args in RUNS.items():
        out = tmp / name
        runs[name] = {"args": args, "files": _digests(name, out)}
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps({"versions": _versions(), "runs": runs}, indent=1) + "\n")


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        _write(Path(tmp))
