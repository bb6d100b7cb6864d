"""numpy is the only runtime dependency: no module of the package pulls in scipy."""

import os
import pkgutil
import subprocess
import sys

import finslerkit


def test_no_module_imports_scipy():
    names = [m.name for m in pkgutil.walk_packages(finslerkit.__path__, "finslerkit.")]
    assert {"finslerkit.cli", "finslerkit.integrate", "finslerkit.dynamics"} <= set(names)
    code = (
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    # a fresh interpreter that finds the same package as this one
    src = os.path.dirname(finslerkit.__path__[0])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"
