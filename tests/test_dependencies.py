"""numpy is the only runtime dependency. scipy may be installed alongside,
but it is not declared, so importing the package must not load it. Nor
does a serial run load the process-pool machinery, which only ``--jobs``
uses."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code):
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_import_loads_no_scipy():
    _run(
        "import sys, ncsmode, ncsmode.cli; "
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
        "assert not loaded, loaded"
    )


def test_serial_run_loads_no_process_pool():
    """Loading multiprocessing costs about 1.1 MB of resident memory, so a
    run with one worker must not import it."""
    _run(
        "import sys, dataclasses, ncsmode, ncsmode.cli; "
        "cfg = dataclasses.replace(ncsmode.cli.load_config('cstr5').trial, steps=5); "
        "records = list(ncsmode.run_monte_carlo(cfg, 3, 1)); "
        "loaded = sorted(m for m in sys.modules "
        "if m == 'concurrent.futures.process' or m.split('.')[0] == 'multiprocessing'); "
        "assert len(records) == 3 and not loaded, loaded"
    )
