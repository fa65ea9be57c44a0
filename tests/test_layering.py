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


def test_only_the_sampling_layers_read_sample_spectra():
    # Sampled spectral estimators live in mc, so that one estimator path
    # serves every check; applications keeps gibbs_purity_mc until it moves
    # into mc.  A re-export in __init__ imports the name without reading it.
    readers = {path.stem for path in SRC.glob("*.py") if "sample_spectra" in _names_read(path)}
    assert readers <= {"linalg", "mc", "applications"}, readers


def _module_definitions(path: Path) -> set[str]:
    """Names of the functions and classes a source file defines at module level."""
    return {
        node.name
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def _exported(path: Path) -> set[str]:
    """Names a package __init__ re-exports from its modules."""
    return {
        alias.asname or alias.name
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }


def test_every_module_function_and_class_has_a_caller():
    # code with no caller is deleted: every definition is read, as a name or
    # an attribute, in src/ or perfbench/; a test alone keeps only the
    # package's exported API alive
    read = set().union(
        *(_names_read(p) for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py"))
    )
    exported = _exported(SRC / "__init__.py")
    for path in sorted(SRC.glob("*.py")):
        uncalled = _module_definitions(path) - read - exported
        assert not uncalled, (path.name, uncalled)


def _optional_parameters(path: Path):
    """(function, parameter, position) of each defaulted parameter of a
    module-level function or method.  The position counts the arguments a
    call passes, so a method's self or cls is skipped; it is None for a
    keyword-only parameter."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        defs, bound = ([node], 0) if not isinstance(node, ast.ClassDef) else (node.body, 1)
        for f in defs:
            if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            skip = bound and "staticmethod" not in {ast.unparse(d) for d in f.decorator_list}
            pos = f.args.posonlyargs + f.args.args
            for i in range(len(pos) - len(f.args.defaults), len(pos)):
                yield f.name, pos[i].arg, i - skip
            for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
                if default is not None:
                    yield f.name, arg.arg, None


def _calls(path: Path):
    """(callee name, positional count, keyword names) of each call in a file.
    A *args counts as every position, and a **kwargs adds the keyword None,
    which stands for every name."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            yield name, float("inf") if starred else len(node.args), {k.arg for k in node.keywords}


def test_every_optional_parameter_is_set_by_a_caller():
    # an option no caller sets is dead: each defaulted parameter of a
    # module-level function or method is set, by keyword or by position, by
    # some call in src/ or perfbench/.  Nested closures are exempt: their
    # defaults bind values late, like validate's chunk(gen, count, d=d).
    calls = {}
    for p in (p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py")):
        for name, npos, keywords in _calls(p):
            calls.setdefault(name, []).append((npos, keywords))
    unset = [
        (path.name, fn, param)
        for path in sorted(SRC.glob("*.py"))
        for fn, param, pos in _optional_parameters(path)
        if not any(
            param in kw or None in kw or (pos is not None and npos > pos)
            for npos, kw in calls.get(fn, ())
        )
    ]
    assert not unset, unset


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
