"""The demos run end to end; the single-cell sampling chain's demo prints exactly its pinned lines."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ERASER_STDOUT = """\
eraser at phi = 1.5708
outcome probabilities: [0.25 0.25 0.25 0.25]
15 tomography circuits: IX IY IZ XI XX XY XZ YI YX YY YZ ZI ZX ZY ZZ
negative mass clipped by the projection: 0.03140
trace distance to the exact state: 0.0413
reconstructed C = 2.8910, P = 0.0035, C+P = 2.8945  (exact sum is 3)
before projection the sum was 3.0208; raw output may exceed the bound
"""


def test_eraser_tomography_demo_prints_its_pinned_lines():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "eraser_tomography.py")],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert done.stdout == ERASER_STDOUT
