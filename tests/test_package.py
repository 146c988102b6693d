"""The package's export list, a lint for leftover names in its modules, and
the scripts in scripts/, run in-process."""

import ast
import importlib
import runpy
import sys
from collections import Counter
from pathlib import Path

import sdemoments

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
MODULES = sorted(p for p in Path(sdemoments.__file__).parent.glob("*.py") if p.name != "__init__.py")


def test_every_exported_name_resolves():
    missing = [name for name in sdemoments.__all__ if not hasattr(sdemoments, name)]
    assert missing == []
    namespace: dict = {}
    exec("from sdemoments import *", namespace)
    assert set(sdemoments.__all__) <= set(namespace)


def _names_read(tree: ast.AST) -> set[str]:
    """Names a tree reads: loaded names, attribute names and the names inside
    string annotations."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        for annotation in filter(None, annotations):
            for const in ast.walk(annotation):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    used |= _names_read(ast.parse(const.value, mode="eval"))
    return used


def test_every_import_is_used():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        used = _names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_private_module_name_is_used_elsewhere():
    """A module-level _name must be read somewhere in the package other than
    its own definition (a recursive function's call to itself does not count);
    importing it into another module counts."""
    statements = [stmt for path in MODULES for stmt in ast.parse(path.read_text()).body]
    statements += ast.parse(Path(sdemoments.__file__).read_text()).body
    imported = [
        {alias.name for node in ast.walk(stmt) if isinstance(node, ast.ImportFrom) for alias in node.names}
        for stmt in statements
    ]
    used = [_names_read(stmt) | names for stmt, names in zip(statements, imported)]
    unused = [
        name
        for i, stmt in enumerate(statements)
        for name in _defined_names(stmt)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in names for j, names in enumerate(used) if j != i)
    ]
    assert unused == []


def _names_counted(tree: ast.AST) -> Counter:
    """How often a tree names each identifier: loaded names, attribute names,
    and the parts of string constants that are dotted identifiers."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def test_every_public_method_is_named_outside_its_definition():
    """A public method of a class in src/ must be named somewhere in src/,
    scripts/ or perfbench/ other than its own body, so that no library
    method lives on only for the tests.  A name counts when it is read, or
    when it is part of a dotted string such as perfbench's "Class.method",
    which the benchmark fetches with getattr.  A method that overrides one
    of a base class outside the package (`_ArgumentParser.error`) is exempt.
    Names are matched, not resolved: a method that shares its name with
    another one, as `ClosedForm.scale` did with `Polynomial.scale`, passes
    whenever the other name is used."""
    root = SCRIPTS.parent
    trees = [ast.parse(p.read_text()) for d in ("src", "scripts", "perfbench") for p in sorted((root / d).rglob("*.py"))]
    everywhere = sum(map(_names_counted, trees), Counter())
    unnamed = []
    for path in MODULES:
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            bases = getattr(importlib.import_module(f"sdemoments.{path.stem}"), cls.name).__mro__[1:]
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) or method.name.startswith("_"):
                    continue
                if any(method.name in vars(base) for base in bases if not base.__module__.startswith("sdemoments")):
                    continue
                if everywhere[method.name] <= _names_counted(method)[method.name]:
                    unnamed.append(f"{cls.name}.{method.name}")
    assert unnamed == []


def test_one_moment_chain_in_the_cli():
    """Only cli._answer closes a target, certifies it and picks its closed
    form, and only it and `check` run the structural check, so the commands
    that answer a moment question share one chain."""
    allowed = {
        "linear_functional_moment": {"_answer"},
        "best_closed_form": {"_answer"},
        "certify_closure": {"_answer"},
        "check_prosolvable": {"_answer", "_cmd_check"},
    }
    tree = ast.parse((Path(sdemoments.__file__).parent / "cli.py").read_text())
    strays = [
        f"{function.name} calls {name}"
        for function in tree.body
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        for name in [getattr(node.func, "id", getattr(node.func, "attr", None))]
        if name in allowed and function.name not in allowed[name]
    ]
    assert strays == []


def run_script(monkeypatch, capsys, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_reproduce_results_case_studies(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "reproduce_results.py", "--skip-table", "--paths", "2000")
    assert "benchmark table" not in "\n".join(lines)
    assert "closed form (float spectrum):" in lines
    assert lines.count("exact closed form:") == 1
    bounds = [line for line in lines if " bound=" in line]
    assert len(bounds) == 3 and all(line.endswith("below: True)") for line in bounds)
    checks = [line for line in lines if "standard errors)" in line]
    assert [line.split()[0] for line in checks] == ["t=1", "t=2"]


def test_mc_convergence_ladder(monkeypatch, capsys):
    lines = run_script(
        monkeypatch, capsys, "mc_convergence.py", "--paths", "20000", "--halvings", "2"
    )
    assert lines[0].startswith("exact E[x1^2](0.5) = ")
    assert [float(line.split()[0]) for line in lines[2:]] == [0.125, 0.0625]



def test_exact_scaling_table(monkeypatch, capsys):
    # One child process per target; each row is measured in its own process.
    lines = run_script(monkeypatch, capsys, "exact_scaling.py", "ou-env:0,2", "gene:1,0,0,0,1")
    header, _, *rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    assert header == ["target", "dim", "nnz", "rates", "seconds", "peak_rss_mb", "fraction_bits", "int_bits"]
    assert [row[:2] for row in rows] == [["ou-env:0,2", "8"], ["gene:1,0,0,0,1", "23"]]
    for row in rows:
        rates, seconds, rss, fraction_bits, int_bits = map(float, row[3:])
        assert rates >= 1 and seconds >= 0 and rss > 0 and min(fraction_bits, int_bits) >= 1


def test_exact_scaling_simulate_rung(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "exact_scaling.py", "--simulate", "gene:0,0,2,0,0")
    header, _, row = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    assert header == ["target", "cone", "components", "seconds", "path_steps_per_s", "peak_rss_mb"]
    assert row[:3] == ["gene:0,0,2,0,0", "3", "3/5"]
    assert float(row[4]) > 0 and float(row[5]) > 0


def test_exact_scaling_spectrum_rung(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "exact_scaling.py", "--spectrum", "6:7", "4:1000000")
    header, _, *rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    assert header == ["target", "charpoly_s", "roots_s", "verdict"]
    assert [(row[0], row[3]) for row in rows] == [("6:7", "rational"), ("4:1000000", "rational")]
    assert all(float(row[1]) >= 0 and float(row[2]) >= 0 for row in rows)


def test_exact_scaling_numeric_rung(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "exact_scaling.py", "--numeric", "ou-env:3,5")
    header, _, row = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    assert header == ["target", "dim", "live", "route", "seconds", "peak_rss_mb"]
    assert row[:4] == ["ou-env:3,5", "51", "44", "dense"]  # x1(0) = 0: the moments odd in x1 stay zero
    assert float(row[4]) >= 0 and float(row[5]) > 0


def test_exact_scaling_model_rung(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "exact_scaling.py", "--model", "gene", "double-well")
    header, _, *rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    assert header == ["target", "load_ms", "check_ms", "weights_ms", "generator_ms"]
    assert [row[0] for row in rows] == ["gene", "double-well"]
    assert rows[1][3] == "-"  # double-well is not pro-solvable: it has no block weights
    assert all(float(cell) > 0 for row in rows for cell in row[1:] if cell != "-")
