"""Package surface: every exported name resolves, modules import no
private names from each other, every module-level name has a caller, the
docs name no attribute that is gone, and every program name the benchmark
harness uses exists."""
import ast
import importlib
import importlib.util
import inspect
import pathlib
import re

import topoprobe


def test_all_names_resolve():
    missing = [name for name in topoprobe.__all__ if not hasattr(topoprobe, name)]
    assert missing == []
    assert len(set(topoprobe.__all__)) == len(topoprobe.__all__)


def test_no_private_imports_across_modules():
    # a module reaches a sibling only through its public names
    package = pathlib.Path(topoprobe.__file__).parent
    crossings = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level > 0
                                                     or node.module.startswith("topoprobe")):
                crossings += [f"{path.name}: {alias.name}" for alias in node.names
                              if alias.name.startswith("_")]
    assert crossings == []


def _defined_names(statement) -> list[str]:
    """The names a module-level statement defines: a function, a class, or
    the targets of an assignment; dunder names such as ``__all__`` aside."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [node.id for target in targets for node in ast.walk(target)
                 if isinstance(node, ast.Name)]
    else:
        names = []
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def test_every_module_level_name_has_a_caller():
    # a module-level function, class or constant is read by code (a Name or
    # an Attribute node) in some statement of the package other than its own
    # definition, or is exported; test-only code belongs in tests/
    package = pathlib.Path(topoprobe.__file__).parent
    statements = [(path.stem, statement) for path in sorted(package.glob("*.py"))
                  for statement in ast.parse(path.read_text(), filename=str(path)).body]
    read = [{node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(statement)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
             or isinstance(node, ast.Attribute)} for _module, statement in statements]
    orphans = [f"{module}.{name}" for index, (module, statement) in enumerate(statements)
               for name in _defined_names(statement) if name not in topoprobe.__all__
               and not any(name in names for other, names in enumerate(read) if other != index)]
    assert orphans == []


def test_doc_references_name_module_attributes():
    # every backquoted `module.NAME` in the README and in the package's
    # docstrings names a module-level attribute (`rdm.py` is a file name)
    package = pathlib.Path(topoprobe.__file__).parent
    modules = {"topoprobe": topoprobe}
    texts = [("README.md", (package.parents[1] / "README.md").read_text())]
    for path in sorted(package.glob("*.py")):
        if path.stem != "__init__":
            modules[path.stem] = importlib.import_module(f"topoprobe.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                texts.append((path.name, ast.get_docstring(node) or ""))
    references = [(where, match.groups()) for where, text in texts
                  for span in re.findall(r"`+([^`]+)`+", text)
                  for match in [re.match(r"(?:topoprobe\.)?(\w+)\.(\w+)", span)] if match]
    stale = [f"{where}: {module}.{name}" for where, (module, name) in references
             if module in modules and name != "py" and not hasattr(modules[module], name)]
    assert references and stale == []


def _imported(module: str, name: str):
    """What ``from module import name`` binds: an attribute, else a
    submodule; ``None`` if neither exists."""
    try:
        return getattr(importlib.import_module(module), name)
    except AttributeError:
        try:
            return importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            return None


def test_benchmark_names_resolve():
    # every name a perfbench file imports from the package, every attribute
    # it reads in code on a module so imported, every method and function
    # its tracer names as a string, and every span name its metrics select
    bench = pathlib.Path(topoprobe.__file__).parents[2] / "perfbench"
    missing = []
    for path in sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "topoprobe":
                for alias in node.names:
                    value = _imported(node.module, alias.name)
                    if value is None:
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
                    elif inspect.ismodule(value):
                        modules[alias.asname or alias.name] = value
        missing += [f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
                    for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id in modules
                    and not hasattr(modules[node.value.id], node.attr)]
    spec = importlib.util.spec_from_file_location("perfbench_tracing", bench / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, cls, method in tracing.METHODS:
        if not hasattr(getattr(_imported("topoprobe", module), cls, None), method):
            missing.append(f"tracing.METHODS: {module}.{cls}.{method}")
    for name in list(tracing.HOOKS) + list(tracing.NAMERS):
        module, function = name.split(".")
        if not hasattr(_imported("topoprobe", module), function):
            missing.append(f"tracing hooks: {name}")
    assert missing == []
    # the span names the per-layer metrics select: a named("...") target or a
    # name compared with == resolves to a program attribute, and a
    # prefixed("...") one matches at least one public function of its module
    targets = set()
    for node in ast.walk(ast.parse((bench / "tracing.py").read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("named", "prefixed") \
                and isinstance(node.args[0], ast.Constant):
            targets.add((node.args[0].value, node.func.id == "prefixed"))
        elif isinstance(node, ast.Compare):
            targets |= {(side.value, False) for side in node.comparators
                        if isinstance(side, ast.Constant) and isinstance(side.value, str)}
    unresolved = set()
    for target, prefix in targets:
        module, rest = target.split(".", 1)
        value = _imported("topoprobe", module)
        if prefix:
            value = [name for name, obj in vars(value).items() if inspect.isfunction(obj)
                     and obj.__module__ == value.__name__ and not name.startswith("_")
                     and name.startswith(rest)] or None
        else:
            for attr in rest.split("."):
                value = getattr(value, attr, None)
        if value is None:
            unresolved.add(target)
    assert {("rdm.InvariantValue.__post_init__", False), ("cli.", True)} <= targets
    # the one metric whose function is gone; dropping the metric is a
    # benchmark change
    assert unresolved == {"spincore.apply_matrix_at_site"}
