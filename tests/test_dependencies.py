"""numpy is the only runtime dependency. scipy may be installed alongside,
but it is not declared, so importing the package must not load it."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy():
    code = (
        "import sys, ncsmode, ncsmode.cli; "
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
        "assert not loaded, loaded"
    )
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
