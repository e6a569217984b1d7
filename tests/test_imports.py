"""Only ``steps`` and ``bench`` need ``scipy.signal``; the modules of the
minute and survival paths must not load it (it takes most of a second)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import stepforge

MODULES = ("model", "ingest", "validity", "stats", "survival", "simulate")


def test_analysis_modules_do_not_load_scipy_signal():
    imports = "; ".join(f"import stepforge.{name}" for name in MODULES)
    code = f"import sys; {imports}; print('scipy.signal' in sys.modules)"
    # the fresh interpreter imports this same stepforge
    env = {**os.environ, "PYTHONPATH": str(Path(stepforge.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
