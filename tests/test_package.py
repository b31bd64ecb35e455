import ast
import sys
from pathlib import Path

import wrapsmith

PACKAGE = Path(wrapsmith.__file__).parent


def test_imports_are_package_relative_or_stdlib():
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}: {m}" for m in modules
                if m.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []


def test_every_exported_name_resolves():
    assert wrapsmith.__all__
    missing = [name for name in wrapsmith.__all__ if not hasattr(wrapsmith, name)]
    assert missing == []
