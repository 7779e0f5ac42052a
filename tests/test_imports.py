"""Every name a module of the package imports is used in that module.

A deletion can leave behind an import that nothing reads any more: it
costs import time and misstates what the module depends on.  The check
reads the source with ``ast`` alone.  ``__init__.py`` imports names to
export them, so it is left out.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bb84sim"
MODULES = sorted(path for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")


def imported_names(tree: ast.Module):
    """(name, line) for each name an import in ``tree`` binds."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})"
              for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports but never uses {unused}"
