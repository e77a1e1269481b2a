"""Package-wide guards."""

import ast
import sys
from pathlib import Path

import revbcd

PACKAGE_DIR = Path(revbcd.__file__).parent


def _absolute_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library():
    """Every absolute import in the package names a standard-library
    module: the package must run on a bare CPython."""
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    foreign = [
        f"{path.name}:{line}: {module}"
        for path in sources
        for line, module in _absolute_imports(ast.parse(path.read_text("utf-8")))
        if module.split(".")[0] not in sys.stdlib_module_names
    ]
    assert not foreign, foreign
