"""Import cost and exports: the package evaluates every integral itself,
without scipy.integrate, and exports only names that exist."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import mmselab

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_leaves_scipy_integrate_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import sys, mmselab.cli; print('scipy.integrate' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "False"


def test_every_export_resolves():
    for info in pkgutil.iter_modules(mmselab.__path__):
        module = importlib.import_module(f"mmselab.{info.name}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (info.name, missing)


def test_package_imports_only_exported_names():
    tree = ast.parse((SRC / "mmselab" / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"mmselab.{node.module}")
        stray = [alias.name for alias in node.names if alias.name not in module.__all__]
        assert not stray, (node.module, stray)
