"""The runtime package imports nothing outside the standard library, and
each module imports on its own."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import ottr

SRC = Path(ottr.__file__).resolve().parent
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")


def test_runtime_imports_are_stdlib_only():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_package_root_imports_nothing():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    """No module leans on an import order set up by another import."""
    proc = subprocess.run([sys.executable, "-c", f"import ottr.{module}"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


LAYERS = ["algebra", "bigphase", "genus0", "genus1", "laxpde", "serialize", "cli"]


def test_each_module_imports_only_layers_below_it():
    """The modules form one stack, algebra < bigphase < genus0 < genus1 <
    laxpde < serialize < cli: each imports from the package only modules
    below it, so a shared job (say, the dense elimination) lives in the
    lowest module that needs it."""
    assert sorted(LAYERS) == MODULES
    upward = []
    for module in LAYERS:
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [node.module] if node.module else [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ottr"):
                names = [node.module.partition(".")[2] or "?"]
            elif isinstance(node, ast.Import):
                names = [a.name.partition(".")[2] for a in node.names if a.name.startswith("ottr")]
            else:
                continue
            upward += [f"{module} imports {name}" for name in names
                       if name not in LAYERS[:LAYERS.index(module)]]
    assert upward == []
