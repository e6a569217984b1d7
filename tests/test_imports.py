"""Only ``steps`` and ``bench`` need scipy; the modules of the minute and
survival paths must not load any of it (``scipy.signal`` alone takes most
of a second).  ``scipy.fft`` comes in with ``detectors``, which ``ingest``
imports only inside ``import_external_steps``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import stepforge

MODULES = ("model", "ingest", "validity", "stats", "survival", "simulate")


def test_analysis_modules_do_not_load_scipy():
    imports = "; ".join(f"import stepforge.{name}" for name in MODULES)
    code = (f"import sys; {imports}; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    # the fresh interpreter imports this same stepforge
    env = {**os.environ, "PYTHONPATH": str(Path(stepforge.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"
