"""`import mufield` loads the library, not the command line.

The benchmark's setup_s is the time of `import mufield` in a fresh
interpreter. The CLI and what only its trace writer and parser use stay out
of that import, so they never add to it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CLI_ONLY = ("mufield.cli", "argparse", "fcntl", "select", "multiprocessing")


def test_import_mufield_loads_no_cli_module():
    code = f"import sys, mufield; print(' '.join(m for m in {CLI_ONLY!r} if m in sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
