"""Import graph: every module imports first without a cycle, loading a
problem file does not load the exchange layer, and every name the benchmark
tracer wraps is bound."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = ROOT / "perfbench" / "tracer.py"

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


def test_traced_names_are_bound(monkeypatch):
    # load the tracer by path without writing its bytecode next to it; its
    # dataclasses look their module up in sys.modules while being built
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    assert tracer.SPECS
    for traced in tracer.SPECS:
        module = importlib.import_module(f"greenseq.{traced.module}")
        assert callable(getattr(module, traced.name, None)), traced.qualname
