"""The benchmark's self-test, run as part of the test suite.

`perfbench/selftest.py` imports the package API the benchmark uses and
checks that every workload check accepts a genuine output and rejects a
corrupted one.  Running it here catches a refactor that breaks those
imports or weakens a check before the benchmark itself is run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
