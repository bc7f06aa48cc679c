"""Layering: each module imports only from strictly lower layers.

The package is layered clock -> tsch -> gait -> simnet -> experiment -> cli.
A relative import that points sideways or upwards would make the layers
cyclic, so every `from .x import ...` and `from . import x` is checked.
The CLI's import path is checked too: it must stay free of the standard
library's heavy introspection modules, which would add to every cold start.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "hexsync"
LAYERS = ("clock", "tsch", "gait", "simnet", "experiment", "cli")


def relative_imports(module: str):
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".")[0]


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE_DIR.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_only_lower_layers(module):
    for imported in relative_imports(module):
        assert imported in LAYERS, f"{module} imports unknown module {imported}"
        assert LAYERS.index(imported) < LAYERS.index(module), (
            f"{module} imports {imported}, which is not a lower layer")


def test_cli_import_loads_no_introspection_modules():
    # a fresh interpreter: this test process has loaded both modules already
    code = ("import sys, hexsync.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
