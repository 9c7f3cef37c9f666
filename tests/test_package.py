"""Package surface: every exported name resolves, modules import no
private names from each other, and the docs name no attribute that is gone."""
import ast
import importlib
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
