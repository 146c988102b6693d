"""What the benchmark in ``perfbench/`` reads from the library.

``perfbench/spans.py`` wraps the functions it lists in ``WRAPPED`` by name,
and the task builders import a few public names and read the dense
``MomentSystem.matrix_a``.  Deleting or renaming any of them breaks
``perfbench/run.py --trace 1`` or the ``numeric`` reference without failing
any other test, so these tests pin them.  ``spans.py`` uses only the standard
library; it is loaded from its file, and its ``install`` is never called.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

import sdemoments
from sdemoments import Monomial, linear_functional_moment, load_benchmark

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# The names the task builders import from the package.
IMPORTED = (
    "ClosureBudget",
    "DivergenceReport",
    "Monomial",
    "linear_functional_moment",
    "load_benchmark",
    "load_model_file",
    "parse_polynomial",
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = _load_spans().WRAPPED


def _sdemoments_imports() -> set[tuple[str, str]]:
    """(module, name) of every `from sdemoments... import name` in perfbench/."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sdemoments":
                found.update((node.module, alias.name) for alias in node.names)
    return found


@pytest.mark.parametrize(
    "module_name,path", [(m, p) for m, p, _ in WRAPPED], ids=[f"{m}.{p}" for m, p, _ in WRAPPED]
)
def test_wrapped_attribute_resolves(module_name, path):
    target = importlib.import_module(f"sdemoments.{module_name}")
    for part in path.split("."):
        assert hasattr(target, part), f"sdemoments.{module_name} has no {path}"
        target = getattr(target, part)
    assert callable(target)


def test_package_exports_the_imported_names():
    for name in IMPORTED:
        assert hasattr(sdemoments, name), name


def test_every_perfbench_import_resolves():
    imports = _sdemoments_imports()
    assert {("sdemoments", name) for name in IMPORTED} <= imports
    for module_name, name in imports:
        assert hasattr(importlib.import_module(module_name), name), f"{module_name}.{name}"


def test_numeric_reference_reads_the_dense_system():
    fm = linear_functional_moment(load_benchmark("ou-env"), {Monomial((0, 2)): Fraction(1)})
    ms = fm.system
    assert len(ms.matrix_a) == ms.dimension
    assert all(len(row) == ms.dimension for row in ms.matrix_a)
    assert len(ms.vector_c) == len(ms.m0) == len(fm.weights) == ms.dimension
