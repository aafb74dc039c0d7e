"""The benchmark's imports from the package, read without running it.

The workloads under ``perfbench/`` call the public API by name, and the
benchmark is not part of this suite; an API change that drops or renames a
name they import would otherwise break it unnoticed.  Each benchmark module
is parsed with ``ast``, and every name it imports from ``toricres`` must
still exist.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def toricres_imports(path):
    """(module, name) for each ``from toricres... import name`` in the file,
    and (module, None) for each ``import toricres...``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.split(".")[0] == "toricres":
            out.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            out.extend((alias.name, None) for alias in node.names
                       if alias.name.split(".")[0] == "toricres")
    return out


@pytest.mark.parametrize("name", ["workloads.py", "inputs.py", "run.py"])
def test_every_name_the_benchmark_imports_exists(name):
    imports = toricres_imports(PERFBENCH / name)
    assert imports
    for module, attr in imports:
        mod = importlib.import_module(module)
        assert attr is None or hasattr(mod, attr), f"{name}: {module}.{attr} is gone"


def test_the_workloads_import_the_bundle_lift_the_cli_and_the_tolerance():
    imports = set(toricres_imports(PERFBENCH / "workloads.py"))
    assert {("toricres", "build_cayley"), ("toricres", "equal_degree_check"),
            ("toricres", "cayley_polytope_check"), ("toricres.cli", "main"),
            ("toricres.localres", "COMPARE_TOL")} <= imports
