"""Import cost and exports: the package evaluates every integral itself,
without scipy.integrate, and exports only names that exist.

scipy.special is imported only inside the three kernels that evaluate it
(the uniform and exponential scalar kernels and the non-Gaussian tone
radial integral), so ``import mmselab.cli`` and every command that runs
none of them leave it unloaded."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mmselab

SRC = Path(__file__).resolve().parents[1] / "src"


def _last_line_of_fresh_interpreter(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_integrate_unloaded():
    code = "import sys, mmselab.cli; print('scipy.integrate' in sys.modules)"
    assert _last_line_of_fresh_interpreter(code) == "False"


def test_cli_import_leaves_scipy_special_unloaded():
    code = "import sys, mmselab.cli; print('scipy.special' in sys.modules)"
    assert _last_line_of_fresh_interpreter(code) == "False"


@pytest.mark.parametrize(
    "argv, loads",
    [
        ("kalman --n-list 1,2 --q-grid 2 --base-steps 128 --dt-levels 2", False),
        ("scalar --source rademacher --q-grid 0.5,8", False),
        ("derivatives --source mix:0.5,-1,0.6,1,0.6", False),
        ("mc-check --source gaussian --q-grid 2 --samples 10000 --seed 1", False),
        ("tones --amplitude gaussian --n-list 1,4 --q-grid 2", False),
        ("scalar --source uniform --q-grid 2", True),
        ("scalar --source expstd --q-grid 2", True),
        ("tones --amplitude unit --n-list 1 --q-grid 2", True),
    ],
)
def test_scipy_special_loads_only_in_the_kernels_that_evaluate_it(argv, loads):
    code = (
        "import sys\n"
        "from mmselab.cli import main\n"
        f"status = main({argv.split()!r})\n"
        "print(status, 'scipy.special' in sys.modules)\n"
    )
    assert _last_line_of_fresh_interpreter(code) == f"0 {loads}"


def test_cli_import_loads_numpy_and_the_standard_library_only():
    # the modules a fresh interpreter has loaded before the import (site
    # hooks among them) are not the package's; every one the import adds is
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import mmselab.cli\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(added - set(sys.stdlib_module_names) - {'numpy', 'mmselab'}))\n"
    )
    assert _last_line_of_fresh_interpreter(code) == "[]"


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
