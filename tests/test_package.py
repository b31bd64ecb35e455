import ast
import re
import sys
from collections import Counter
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


def test_no_class_writes_or_reads_its_own_record():
    # One codec in ``dataset`` reads and writes every artifact.
    methods = [
        f"{path.name}: {cls.name}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name in ("to_record", "from_record")
    ]
    assert methods == []


def test_only_the_codec_and_model_replies_parse_json():
    # Every file is read by ``dataset.read_record``; the gateway parses only
    # what the model and the HTTP backend send back.
    allowed = {("dataset.py", "read_record"), ("gateway.py", "extract_json_object"),
               ("gateway.py", "_send_http")}

    def json_loads(tree):
        return {
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("load", "loads")
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
        }

    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        permitted = set().union(*(
            json_loads(function) for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef) and (path.name, function.name) in allowed
        ))
        stray += [f"{path.name}:{call.lineno}" for call in json_loads(tree) - permitted]
    assert sorted(stray) == []


def test_every_top_level_name_is_used_outside_the_tests():
    # A function or class that only the tests name is dead code kept alive
    # by its tests: the package itself or the benchmark must name it too.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    sources = [*PACKAGE.glob("*.py"), *perfbench.glob("*.py")]
    words = Counter(
        word for path in sources
        for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))
    )
    unused = [
        f"{path.name}: {node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and words[node.name] < 2
    ]
    assert unused == []
