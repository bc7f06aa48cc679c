"""Layering: each module imports only from strictly lower layers.

The package is layered clock -> tsch -> gait -> simnet -> experiment -> cli.
A relative import that points sideways or upwards would make the layers
cyclic, so every `from .x import ...` and `from . import x` is checked.
The package root exports nothing, so importing a layer loads that layer and
the layers below it, and no more; and every name is imported from the
module that defines it, so no module re-exports another's names.
An import scan cannot see an object passed in as an argument, so the
layers below simnet are also checked not to drive a simulation they are
handed: none reads a Sim's run_until, inject_command or servo_setpoints.
The CLI's import path is checked too: it must stay free of the standard
library's heavy introspection modules, and of statistics, which only a
run's slope fit needs; each would add to every cold start.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
PACKAGE_DIR = TESTS_DIR.parent / "src" / "hexsync"
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


@pytest.mark.parametrize("module", LAYERS[:LAYERS.index("simnet")])
def test_no_layer_below_simnet_drives_a_sim(module):
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
    reads = [f"{module}.py:{node.lineno} reads .{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in ("run_until", "inject_command", "servo_setpoints")]
    assert reads == []


def fresh_import(module: str, report: str) -> str:
    """What a fresh interpreter prints after `import hexsync.<module>`: this
    test process has loaded every module already."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    return subprocess.run([sys.executable, "-c", f"import sys, hexsync.{module}; print({report})"],
                          env=env, check=True, capture_output=True, text=True).stdout


def test_cli_import_loads_no_introspection_modules():
    heavy = "{'dataclasses', 'inspect', 'statistics'}"
    assert fresh_import("cli", f"sorted({heavy} & set(sys.modules))") == "[]\n"


@pytest.mark.parametrize("module", LAYERS)
def test_import_loads_only_the_layer_and_those_below(module):
    loaded = fresh_import(module, "sorted(m for m in sys.modules if m.split('.')[0] == 'hexsync')")
    layers = LAYERS[:LAYERS.index(module) + 1]
    assert loaded == f"{sorted(['hexsync'] + [f'hexsync.{m}' for m in layers])}\n"


def top_level_definitions(module: str):
    """The names a module binds at top level with def, class or assignment."""
    for node in ast.parse((PACKAGE_DIR / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")) + sorted(TESTS_DIR.glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_names_are_imported_from_their_defining_module(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and node.module.startswith("hexsync."):
            module = node.module.split(".")[1]
        else:
            continue
        defined = set(top_level_definitions(module))
        for alias in node.names:
            assert alias.name in defined, (
                f"{path.name}:{node.lineno} imports {alias.name} from {module}, "
                f"which does not define it")
