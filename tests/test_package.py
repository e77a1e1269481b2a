"""Package-wide guards."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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


def _load_bench(name):
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_targets_resolve():
    """Every function the benchmark's traced run wraps still exists, so a
    deletion cannot break `bench/run.py --trace 1` unnoticed."""
    missing = []
    for module_name, attr, _ in _load_bench("tracer").TARGETS:
        owner = importlib.import_module(f"revbcd.{module_name}")
        for part in attr.split("."):
            owner = vars(owner).get(part)
            if owner is None:
                break
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing, missing


@pytest.mark.parametrize(
    "make",
    (
        lambda w: w.LedgerFold(seed=1, rows=40, groups=8),
        lambda w: w.SimulateWide(seed=1, digits=64),
    ),
    ids=("ledger-fold", "simulate-wide"),
)
def test_bench_workloads_accept_the_library(make, tmp_path):
    """The benchmark calls the library directly (ledger.encode, bcd_add and
    the CLI) in its setups and cycles; one small cycle of each must pass its
    own oracle, so an API change cannot break the benchmark unnoticed."""
    workload = make(_load_bench("workloads"))
    workload.setup(tmp_path)
    ops = list(workload.cycle())
    assert ops and all(op.ok for op in ops)
