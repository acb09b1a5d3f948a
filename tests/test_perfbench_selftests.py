"""The benchmark's own tests pass against the library as it stands.

``perfbench/tests`` has a ``conftest.py`` that clashes with
``tests/conftest.py``, so it cannot join this suite's ``testpaths``; it runs
in a separate pytest process instead.  A library change that breaks the
benchmark's oracles or tracer then fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_tests_pass():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "perfbench/tests"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
