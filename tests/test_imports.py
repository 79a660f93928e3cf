"""Every name a package module imports is used there or exported by it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "laplace_mcp"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# imported and never used: bench/spans.py::layer_targets patches these
# attributes of dca to time the calls that go through them
PATCH_TARGETS = {("dca", "solve_l1"), ("dca", "recover_primal")}


def imported_names(tree):
    """The names that the module's import statements bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def exported_names(tree):
    """The entries of the module's ``__all__``, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported_names(tree) - used - exported_names(tree)
    unused -= {name for module, name in PATCH_TARGETS if module == path.stem}
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"
