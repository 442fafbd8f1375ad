"""No module of the package imports a name it never uses.

``__init__.py`` is excepted, since it imports names to re-export them, and
so is ``from __future__ import annotations``, which changes how the module
compiles rather than binding a name it reads.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sheetaudit"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                imported.append(alias.asname or alias.name.partition(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name != "annotations" and name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from os import path, sep\nimport json\nimport xml.dom\nprint(sep, xml.dom)\n"
    assert unused_imports(source) == ["path", "json"]
