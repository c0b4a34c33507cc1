"""The span targets of the benchmark's tracer (`bench/tracer.py`) resolve.

The tracer wraps the callables it names; a renamed or deleted callable is
reported absent and its span reads zero.  This test runs the tracer's own
`install` in a fresh interpreter, so nothing in the test process is wrapped,
and runs no workload.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The targets that name callables gone from the package, listed as stale in
# ROADMAP item 1; retargeting them is a change to the benchmark.
STALE = {
    "torus.GroupAlgElt.conv",
    "torus.orbit_idempotent",
    "fdmod.supersingular_restriction_splits",
    "linalg.rref",
    "models.verify.parity",
    "models.ModelMap.image_of_weyl",
}


def test_tracer_targets_resolve_except_the_stale_ones():
    code = "import json, tracer; print(json.dumps(sorted(tracer.install(tracer.Tracer()))))"
    path = [str(ROOT / "bench"), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) == STALE
