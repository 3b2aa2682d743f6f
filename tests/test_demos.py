"""Run the fast demos end to end as scripts.

Demos 01 (simulation walk-through) and 03 (refinement views) take under a
second each. Demo 02 trains the network against sLORETA for minutes and is
left out; criterion 7 in test_acceptance.py covers that pipeline.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_simulate_paired_data.py", "03_refinement_views.py"])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
