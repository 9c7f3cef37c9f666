"""Package surface: every exported name resolves, and modules import no
private names from each other."""
import ast
import pathlib

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
