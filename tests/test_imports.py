"""Import graph: every module imports first without a cycle, loading a
problem file loads neither the exchange nor the module layer, the wall layer
loads neither the exchange nor the FHO layer, each command loads only the
layers it runs (`mgs` and `mutate` neither `linalg` nor QP mutation), no
command loads `dataclasses` or the standard-library modules it pulls in, and
every name the benchmark tracer wraps is bound."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = ROOT / "perfbench" / "tracer.py"

# `dataclasses` and the modules it imports, which cost start-up time
HEAVY = {"dataclasses", "inspect", "ast", "dis"}

# what `mgs` and `mutate` leave out: the module, wall and bound layers, the
# linear algebra under them, and QP mutation
EXCHANGE_ONLY = {"rep", "fho", "walls", "bounds", "linalg", "qp_mutation"}

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
for layer in ("greenseq.exchange", "greenseq.rep"):
    assert layer not in sys.modules, "greenseq.io loads " + layer
"""

# run one command in a fresh interpreter, then list the modules it loaded on
# the last line of stdout
COMMAND = """
import sys
from greenseq import cli

cli.main(sys.argv[1:])
print(" ".join(sys.modules))
"""

# the benchmark's set-up probe, which imports the problem and module layers
SETUP = """
import sys
from greenseq import io, rep

print(" ".join(sys.modules))
"""


def _loaded_modules(*argv):
    """The modules a fresh interpreter holds after running `argv`."""
    done = subprocess.run(
        [sys.executable, "-c", *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


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


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["mgs", "problems/a3_cyclic.json", "extrema"], EXCHANGE_ONLY),
        (["mutate", "problems/a3_cyclic.json", "1", "2"], EXCHANGE_ONLY),
        (["walls", "problems/a3_cyclic.json", "--random", "1"], {"fho", "bounds"}),
        (["verify", "problems/a3_cyclic.json"], {"bounds", "reflect"}),
        (["mgs", "problems/d4_cyclic.json", "--construct-max"], {"reflect", "walls"}),
    ],
    ids=["mgs", "mutate", "walls", "verify", "construct-max"],
)
def test_command_loads_only_its_layers(argv, absent):
    modules = _loaded_modules(COMMAND, *argv)
    loaded = {m.split(".", 1)[1] for m in modules if m.startswith("greenseq.")}
    assert "exchange" in loaded
    assert not loaded & absent
    assert not modules & HEAVY


def test_walls_loads_neither_the_exchange_nor_the_fho_layer():
    # the wall description is computed from modules alone, so `verify`
    # compares it with descriptions that share none of its code
    modules = _loaded_modules("import sys, greenseq.walls; print(' '.join(sys.modules))")
    assert "greenseq.walls" in modules
    assert not modules & {"greenseq.exchange", "greenseq.fho", "greenseq.bounds"}


def test_setup_probe_skips_dataclasses():
    modules = _loaded_modules(SETUP)
    assert {"greenseq.io", "greenseq.rep"} <= modules
    assert not modules & HEAVY


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
