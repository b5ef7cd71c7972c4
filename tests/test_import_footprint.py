"""The package imports neither numpy nor networkx.

Both are test-only dependencies: the reference oracles of
``tests/test_utilization.py`` and ``tests/test_graph_reference.py``.  A
package module that imports either brings its import time and its ~13 MB of
resident memory back into every planner, scheduler and service run.

The check runs in a fresh interpreter, since this test process may already
hold both libraries.  It imports every module under ``repro`` except the
``__main__`` entry points, which run a CLI when imported.
"""

import json
import subprocess
import sys
from pathlib import Path

import repro

FORBIDDEN = ("numpy", "networkx")

_IMPORT_EVERY_MODULE = """
import importlib
import json
import pkgutil
import sys

import repro


def onerror(name):
    raise


names = ["repro"]
for info in pkgutil.walk_packages(repro.__path__, "repro.", onerror=onerror):
    if info.name.rsplit(".", 1)[-1] == "__main__":
        continue
    importlib.import_module(info.name)
    names.append(info.name)
leaked = [name for name in sys.argv[1:] if name in sys.modules]
print(json.dumps({"imported": names, "leaked": leaked}))
"""


def test_no_package_module_imports_numpy_or_networkx(monkeypatch):
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", src_dir)
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_EVERY_MODULE, *FORBIDDEN],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    report = json.loads(result.stdout)
    # The walk reached the leaf modules, including the ones that used numpy
    # and networkx before.
    for name in ("repro.profiler.utilization", "repro.analysis", "repro.models.graph"):
        assert name in report["imported"]
    assert not any(name.endswith(".__main__") for name in report["imported"])
    assert report["leaked"] == []
