"""The benchmark's own self-check passes against this checkout's ``src``.

``perfbench/selfcheck.py`` runs every workload once untraced and once traced
at tiny sizes; a change to a call it makes (``load_checkpoint``'s four
values, ``save_checkpoint``'s defaults, a traced name) fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selfcheck_passes():
    proc = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
