import os
import subprocess
import sys
from pathlib import Path

import heatent

# The directory the tests import heatent from (src/ in a plain checkout), so
# that child processes run the same code without an install.
PACKAGE_PARENT = str(Path(heatent.__file__).resolve().parent.parent)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m heatent ARGS`` in a child process, output captured as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_PARENT, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "heatent", *args],
                          capture_output=True, text=True, env=env)
