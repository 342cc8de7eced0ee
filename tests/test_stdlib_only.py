"""fitt depends on the Python standard library alone: every absolute import in
the package names a standard-library module.  Relative imports stay inside
the package."""

import ast
import sys
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fitt"
_MODULES = sorted(_PACKAGE.glob("*.py"))


def _absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_the_package_has_modules():
    assert {"polyring.py", "groebner.py", "cli.py"} <= {path.name for path in _MODULES}


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: path.name)
def test_every_absolute_import_is_standard_library(path):
    outside = [name for name in _absolute_imports(path) if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"{path.name} imports {outside} from outside the standard library"
