"""The three pillars stay independent in code: checked on the import graph."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rtq"


def _imports(module: str) -> set:
    """Every module, and every name taken from one, that `rtq.<module>`
    imports anywhere in its source, with relative imports made absolute."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["rtq" if node.level else "", node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_parser_sees_both_import_forms():
    names = _imports("cli")
    assert {"argparse", "rtq.transforms", "rtq.decomposition", "rtq.model.Erlang"} <= names


@pytest.mark.parametrize("module, banned", [
    ("simulator", {"random", "rtq.transforms", "rtq.decomposition"}),
    ("decomposition", {"rtq.transforms"}),
])
def test_pillar_does_not_import(module, banned):
    assert not _imports(module) & banned


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_no_module_imports_scipy(module):
    # numpy is the only run-time dependency
    assert not {name for name in _imports(module) if name.split(".")[0] == "scipy"}


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_no_module_imports_a_private_name(module):
    # underscore names stay inside their module; dunders such as
    # __version__ are public
    private = {
        name for name in _imports(module)
        if name.startswith("rtq.") and name.rsplit(".", 1)[1].startswith("_")
        and not name.endswith("__")
    }
    assert not private
