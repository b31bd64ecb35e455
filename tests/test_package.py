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


def test_only_dom_links_nodes():
    # Pruned trees are views that share their page's nodes, so no module
    # but ``dom`` may rewrite a node's links: its ``order``, its ``children``
    # and its entry in the page's ``parents`` table.
    linking = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "dom.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.Delete)):
                targets = getattr(node, "targets", None) or [node.target]
            else:
                continue
            linking += [
                f"{path.name}:{node.lineno} {ast.unparse(t)}"
                for target in targets for t in ast.walk(target)
                if (isinstance(t, ast.Attribute) and t.attr in ("order", "children"))
                or (isinstance(t, ast.Subscript) and isinstance(t.value, ast.Attribute)
                    and t.value.attr == "parents")
            ]
    assert linking == []
