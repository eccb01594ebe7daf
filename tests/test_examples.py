"""The serving and streaming examples run to completion (tier-1).

Nothing else exercises ``examples/``, so an API change that breaks a
demo would otherwise go unnoticed.  Each example runs in its own
interpreter, as a user would run it, and must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", [
    "serve_quickstart.py",
    "online_learning.py",
    "fabric_quickstart.py",
])
def test_example_exits_cleanly(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
