import os
import subprocess
import sys
from pathlib import Path

import heatent

# The directory the tests import heatent from (src/ in a plain checkout), so
# that child processes run the same code without an install.
PACKAGE_PARENT = str(Path(heatent.__file__).resolve().parent.parent)


def run_python(*args: str, **env_overrides: str) -> subprocess.CompletedProcess:
    """``python ARGS`` in a child process that imports this heatent, with
    ``env_overrides`` set in its environment; output captured as text."""
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_PARENT, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m heatent ARGS`` in a child process, output captured as text."""
    return run_python("-m", "heatent", *args)
