"""Import graph: every module imports first without a cycle, and loading a
problem file does not load the exchange layer."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# run in a fresh interpreter: the test session has already imported everything
SCRIPT = """
import pkgutil, sys
import greenseq

names = sorted(m.name for m in pkgutil.iter_modules(greenseq.__path__))
for name in names:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "greenseq"]:
        del sys.modules[loaded]
    __import__("greenseq." + name)
print(" ".join(names))

for loaded in [m for m in sys.modules if m.split(".")[0] == "greenseq"]:
    del sys.modules[loaded]
import greenseq.io
assert "greenseq.exchange" not in sys.modules, "greenseq.io loads greenseq.exchange"
"""


def test_each_module_imports_first_and_io_skips_exchange():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    names = done.stdout.split()
    assert {"cli", "exchange", "io", "qp", "walls"} <= set(names)
