"""Import layering of the package, read from its source with ast."""

import ast
import re
import sys
from pathlib import Path

PACKAGE = "haarmoments"
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / PACKAGE
THIRD_PARTY_ALLOWED = {"numpy"}


def _imports(path: Path) -> set[str]:
    """Modules a source file imports: package modules as 'haarmoments.<name>',
    anything else by its top-level name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:
                module = f"{PACKAGE}.{module}" if module else PACKAGE
            if module == PACKAGE:
                found.update(f"{PACKAGE}.{alias.name}" for alias in node.names)
            else:
                found.add(module)
    return found


def _package_imports(module: str) -> set[str]:
    """Package modules that module imports, directly or through other package modules."""
    seen = set()
    todo = [module]
    while todo:
        path = SRC / f"{todo.pop()}.py"
        for name in _imports(path):
            if name.startswith(f"{PACKAGE}."):
                sub = name.split(".")[1]
                if (SRC / f"{sub}.py").exists() and sub not in seen:
                    seen.add(sub)
                    todo.append(sub)
    return seen


def test_mc_is_independent_of_the_analytic_route():
    # The Monte Carlo oracle cross-checks the analytic modules, so it must not
    # reach them through any chain of imports.
    assert _package_imports("mc").isdisjoint({"weingarten", "closed_forms", "ensembles"})


def test_one_ensemble_vocabulary():
    # EnsembleKind is defined once, in linalg, and re-exported by ensembles
    from haarmoments import ensembles, linalg

    defined = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef) and node.name == "EnsembleKind"
    ]
    assert defined == ["linalg.py"]
    assert ensembles.EnsembleKind is linalg.EnsembleKind


def test_package_imports_only_stdlib_and_numpy():
    for path in sorted(SRC.glob("*.py")):
        outside = {name.split(".")[0] for name in _imports(path)}
        outside -= set(sys.stdlib_module_names) | THIRD_PARTY_ALLOWED | {PACKAGE}
        assert not outside, (path.name, outside)


def test_import_reader_sees_every_form():
    assert _package_imports("validate") >= {"mc", "weingarten", "ensembles", "linalg"}
    assert "numpy" in _imports(SRC / "linalg.py")


def _module_constants(path: Path) -> set[str]:
    """UPPER_CASE names assigned at module level (a leading underscore allowed)."""
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names.update(
            t.id for t in targets
            if isinstance(t, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)
        )
    return names


def _attributes_read(path: Path) -> set[str]:
    return {
        node.attr
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _names_read(path: Path) -> set[str]:
    return _attributes_read(path) | {
        node.id
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_every_module_constant_is_read():
    read = set().union(
        *(_names_read(p) for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
    )
    for path in sorted(SRC.glob("*.py")):
        unread = _module_constants(path) - read
        assert not unread, (path.name, unread)


def _dataclass_fields(path: Path) -> set[str]:
    """Annotated field names of the @dataclass classes a source file defines."""
    fields = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.unparse(dec) for dec in node.decorator_list
        ):
            fields.update(
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            )
    return fields


def test_every_dataclass_field_is_read():
    # A field is read when some code takes it as an attribute; passing it to
    # the constructor alone does not count.
    read = set().union(
        *(
            _attributes_read(p)
            for d in ("src", "tests", "perfbench")
            for p in (ROOT / d).rglob("*.py")
        )
    )
    for path in sorted(SRC.glob("*.py")):
        unread = _dataclass_fields(path) - read
        assert not unread, (path.name, unread)


def test_no_unused_imports():
    # __init__.py is left out: its imports are the package's re-exports.
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        unused = imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not unused, (path.name, unused)


def _raised_names(path: Path) -> set[str]:
    """Names of the exceptions a source file raises, bare or called."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    return names


def test_every_error_class_is_raised():
    # An error class is live when src/ raises it or a subclass of it.
    path = SRC / "errors.py"
    bases = {
        node.name: {ast.unparse(base) for base in node.bases}
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef)
    }
    live = set().union(*(_raised_names(p) for p in SRC.glob("*.py"))) & set(bases)
    todo = list(live)
    while todo:
        new = bases[todo.pop()] & set(bases) - live
        live |= new
        todo += new
    assert set(bases) <= live, set(bases) - live
