"""Package-wide guards."""

import ast
import importlib
import importlib.util
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


def _load_bench_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_targets_resolve():
    """Every function the benchmark's traced run wraps still exists, so a
    deletion cannot break `bench/run.py --trace 1` unnoticed."""
    missing = []
    for module_name, attr, _ in _load_bench_tracer().TARGETS:
        owner = importlib.import_module(f"revbcd.{module_name}")
        for part in attr.split("."):
            owner = vars(owner).get(part)
            if owner is None:
                break
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing, missing
