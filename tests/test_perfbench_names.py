"""Every hexsync name the benchmark harness hooks or imports exists.

perfbench's tracer wraps each `LAYER_FUNCTIONS` entry of
`perfbench/layers.py`, and its scripts import names from hexsync modules.
A renamed or removed name would otherwise fail only in a traced benchmark
run. The harness files are read with `ast`, not imported, so this test
runs none of their code.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def layer_functions():
    """(module, name) for each LAYER_FUNCTIONS entry; a `Sim.*` name is a
    method of the module's Sim class."""
    tree = ast.parse((PERFBENCH_DIR / "layers.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYER_FUNCTIONS":
            table = ast.literal_eval(node.value)
            return [(f"hexsync.{layer}", name)
                    for layer, names in table.items() for name in names]
    raise AssertionError("perfbench/layers.py defines no LAYER_FUNCTIONS")


def imported_names():
    """(module, name) for each `from hexsync... import name` in perfbench."""
    found = []
    for path in sorted(PERFBENCH_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "hexsync"):
                found.extend((node.module, alias.name) for alias in node.names)
    return found


def resolve(module_name, dotted):
    """The object module_name.dotted names, or None where it is missing."""
    target = importlib.import_module(module_name)
    for part in dotted.split("."):
        target = getattr(target, part, None)
    return target


def test_every_hooked_or_imported_name_exists():
    hooked, imported = layer_functions(), imported_names()
    assert hooked and imported
    missing = [f"{module}.{name}" for module, name in hooked + imported
               if resolve(module, name) is None]
    assert missing == []
