"""Independent references used by the tests.

The rendering and cleanup oracles are the recursive walkers the package
used before its walks took an explicit stack: ``_serialize``, ``_height``
and ``preprocess``'s ``rebuild``.

The parse oracle is the tree builder the package used before it cleaned
while parsing: it keeps comments, ``script``/``style`` subtrees and every
attribute (a :class:`RawElement` holds them all, duplicates included), and
picks the root among all of them; ``reference_preprocess`` then cleans that
raw tree into fresh nodes, each keeping the first ``class`` of its tag.

The subtree oracle builds a pruned tree the way the package did before
pruned trees became views of their page: fresh nodes, frozen anew.

The JSON recovery oracle is the earlier two-pass recovery: find the
balanced span first, without looking at comments, then strip comments and
trailing commas from it.

The literal-predicate oracle is the classifier the package used before
one walk listed a rule's predicates: one walk collects every predicate of
every step, a second walks each predicate's operators, and the reports of
the steps are merged.

The step-back oracle climbs by strings, the way the paper words it: append
``/..`` to the xpath and prune the whole page again, once per climb.

The sibling oracle finds a node's parent by scanning the ``parents`` table
for the element whose children hold it, and its siblings by a plain loop
over those children: no bisection and no use of ``order``.

The unparser :func:`render_xpath` writes an AST back as XPath text with no
abbreviation: every step carries its axis and every binary operation its
parentheses, so reading the text back needs none of the parser's shortcuts.

The evaluation oracle is the XPath interpreter the package used before
rules were compiled to plans, moved here unchanged: it walks the AST on
every call, dispatching on node types, and expands ``//`` to a walk over
every node. :func:`reference_evaluate` and :func:`reference_climb` stand
for ``evaluate`` and ``climb``.

The XPath oracle mirrors a document tree into ``xml.etree.ElementTree``
(wrapped in a synthetic super-root so leading ``//`` behaves like the
document node) and answers the same queries through ``findall``, a code
path entirely separate from the package's evaluator. The fuzz generators
stay inside the subset both engines define identically: well-formed
markup, one leading ``//``, class/child predicates.
"""

from __future__ import annotations

import html as htmllib
import json
import random
import re
import xml.etree.ElementTree as ET
from bisect import bisect_left
from decimal import Decimal
from html.parser import HTMLParser
from itertools import islice
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Union

from wrapsmith.dom import (
    KEEP_ATTR,
    STRIP_TAGS,
    VOID_TAGS,
    DocumentTree,
    ElementNode,
    EmptyInput,
    ParseFailure,
    TextNode,
    TreeMetrics,
    iter_nodes,
    measure,
)
from wrapsmith import xpath as xp
from wrapsmith.xpath import (
    AnyTest,
    AttributeValue,
    BinOp,
    Expr,
    FuncCall,
    Literal,
    NameTest,
    NodeTest,
    NodeTestAny,
    Number,
    Path,
    Step,
    TextTest,
    UnionExpr,
    XNode,
    XPathSyntaxError,
    parse_xpath,
)
from wrapsmith.executor import MAX_LITERAL_LEN, MIN_FRAGILE_DIGIT_RUN, prune
from wrapsmith.gateway import JudgeMode, judge_contains

TAGS = ["div", "span", "p", "b", "ul", "li", "a"]
CLASSES = ["a", "b", "c", "item", "x y"]
WORDS = ["alpha", "beta", "gamma", "delta", "42", "x1", "v-2"]


def mirror_etree(
    tree: DocumentTree,
) -> tuple[ET.Element, dict[int, ET.Element], dict[int, int]]:
    """ElementTree copy of the tree under a synthetic ``doc`` root.

    Returns the super-root, a map from package node ids to mirrored
    elements, and a document-order index for the mirrored elements
    (ElementTree node-sets come back grouped by parent, so the reference
    side gets normalized to document order before comparison).
    """
    lookup: dict[int, ET.Element] = {}
    et_order: dict[int, int] = {}

    def build(el: ElementNode) -> ET.Element:
        node = ET.Element(el.tag, dict(attribute_pairs(el)))
        lookup[id(el)] = node
        et_order[id(node)] = el.order
        last: ET.Element | None = None
        for child in el.children:
            if isinstance(child, TextNode):
                if last is None:
                    node.text = (node.text or "") + child.text
                else:
                    last.tail = (last.tail or "") + child.text
            elif isinstance(child, ElementNode):
                last = build(child)
                node.append(last)
        return node

    doc = ET.Element("doc")
    doc.append(build(tree.root))
    return doc, lookup, et_order


def et_findall(
    doc: ET.Element, xpath: str, et_order: dict[int, int]
) -> list[ET.Element]:
    """Evaluate a leading-``//`` xpath with ElementTree as the reference,
    deduplicated and in document order."""
    assert xpath.startswith("//")
    found = doc.findall("." + xpath)
    unique: dict[int, ET.Element] = {}
    for element in found:
        unique.setdefault(id(element), element)
    return sorted(unique.values(), key=lambda e: et_order[id(e)])


def random_page_html(rng: random.Random, max_depth: int = 4) -> str:
    def element(depth: int) -> str:
        tag = rng.choice(TAGS)
        attr = f' class="{rng.choice(CLASSES)}"' if rng.random() < 0.6 else ""
        width = rng.randint(0, 3) if depth < max_depth else 0
        parts: list[str] = []
        if rng.random() < 0.6:
            parts.append(rng.choice(WORDS))
        for _ in range(width):
            parts.append(element(depth + 1))
            if rng.random() < 0.4:
                parts.append(rng.choice(WORDS))
        return f"<{tag}{attr}>{''.join(parts)}</{tag}>"

    body = "".join(element(2) for _ in range(rng.randint(1, 3)))
    return f"<html><body>{body}</body></html>"


def random_messy_page_html(rng: random.Random, max_depth: int = 6) -> str:
    """Like :func:`random_page_html`, plus what cleanup and serialization
    must handle: comments, ``script``/``style``, void tags, attributes other
    than ``class``, characters that need escaping, runs of whitespace and
    unclosed tags."""
    texts = WORDS + ["a < b", "x & y", "  two  words ", "\n", 'say "hi"']

    def element(depth: int) -> str:
        roll = rng.random()
        if roll < 0.08:
            return f"<!--{rng.choice(WORDS)} -->"
        if roll < 0.14:
            tag = rng.choice(sorted(STRIP_TAGS))
            return f"<{tag}>{rng.choice(WORDS)}</{tag}>"
        if roll < 0.22:
            return f'<{rng.choice(["br", "img", "hr"])} alt="{rng.choice(WORDS)}">'
        tag = rng.choice(TAGS)
        attrs = ""
        if rng.random() < 0.6:
            attrs += f' class="{rng.choice(CLASSES)}"'
        if rng.random() < 0.3:
            attrs += f' id="{rng.choice(WORDS)}" data-x=\'a&amp;"b\''
        parts: list[str] = []
        if rng.random() < 0.6:
            parts.append(htmllib.escape(rng.choice(texts), quote=False))
        for _ in range(rng.randint(0, 3) if depth < max_depth else 0):
            parts.append(element(depth + 1))
            if rng.random() < 0.4:
                parts.append(htmllib.escape(rng.choice(texts), quote=False))
        close = f"</{tag}>" if rng.random() < 0.9 else ""
        return f"<{tag}{attrs}>{''.join(parts)}{close}"

    body = "".join(element(2) for _ in range(rng.randint(1, 3)))
    return f"<html><body>{body}</body></html>"


def reference_to_html(tree: DocumentTree) -> str:
    parts: list[str] = []
    _reference_serialize(tree.root, parts)
    return "".join(parts)


def reference_measure(tree: DocumentTree) -> TreeMetrics:
    parts: list[str] = []
    _reference_serialize(tree.root, parts)
    tokens = sum(len(part.split()) for part in parts)
    return TreeMetrics(token_count=tokens, height=_reference_height(tree.root))


def _reference_serialize(node, parts: list[str]) -> None:
    if isinstance(node, TextNode):
        parts.append(htmllib.escape(node.text, quote=False))
        return
    if isinstance(node, CommentNode):
        parts.append(f"<!--{node.text}-->")
        return
    attrs = "".join(
        f' {k}="{htmllib.escape(v, quote=True)}"' for k, v in attribute_pairs(node)
    )
    parts.append(f"<{node.tag}{attrs}>")
    for child in node.children:
        _reference_serialize(child, parts)
    if node.children or node.tag not in VOID_TAGS:
        parts.append(f"</{node.tag}>")


def _reference_height(el: ElementNode) -> int:
    best = 0
    for child in child_elements(el):
        best = max(best, _reference_height(child))
    return best + 1


def attribute_pairs(el: ElementNode) -> tuple[tuple[str, str], ...]:
    """Every attribute of a raw element; the one ``class`` of a parsed one."""
    if isinstance(el, RawElement):
        return el.attrs
    return () if el.class_attr is None else ((KEEP_ATTR, el.class_attr),)


class RawElement(ElementNode):
    """An element of a raw tree. ``attrs`` keeps every attribute of its tag,
    in order and duplicates included; ``class_attr`` stays ``None``, so only
    ``reference_preprocess`` picks the class a cleaned element keeps."""

    __slots__ = ("attrs",)

    def __init__(self, tag: str, attrs=(), children=()) -> None:
        super().__init__(tag, None, children)
        self.attrs = tuple(attrs)


class CommentNode:
    """An HTML comment of a raw tree."""

    __slots__ = ("text", "order")
    children = ()

    def __init__(self, text: str) -> None:
        self.text = text
        self.order = -1


class _RawTreeBuilder(HTMLParser):
    """Tolerant builder that keeps comments, script/style and every attribute."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self._stack: list[list] = [["", (), []]]

    def handle_starttag(self, tag, attrs):
        tag = tag.lower()
        pairs = tuple((k.lower(), v if v is not None else "") for k, v in attrs)
        if tag in VOID_TAGS:
            self._stack[-1][2].append(RawElement(tag, pairs))
        else:
            self._stack.append([tag, pairs, []])

    def handle_startendtag(self, tag, attrs):
        pairs = tuple((k.lower(), v if v is not None else "") for k, v in attrs)
        self._stack[-1][2].append(RawElement(tag.lower(), pairs))

    def handle_endtag(self, tag):
        tag = tag.lower()
        if tag in VOID_TAGS:
            return
        for i in range(len(self._stack) - 1, 0, -1):
            if self._stack[i][0] == tag:
                while len(self._stack) > i:
                    self._close_top()
                return

    def handle_data(self, data):
        if data:
            self._stack[-1][2].append(TextNode(data))

    def handle_comment(self, data):
        self._stack[-1][2].append(CommentNode(data))

    def _close_top(self):
        tag, attrs, children = self._stack.pop()
        self._stack[-1][2].append(RawElement(tag, attrs, tuple(children)))

    def finish(self) -> list:
        while len(self._stack) > 1:
            self._close_top()
        return self._stack[0][2]


def reference_parse(raw: str, source_id: str = "") -> DocumentTree:
    """The raw, uncleaned tree of ``raw``: rooted at its single top-level
    element (script/style included), else wrapped in ``html``."""
    if not raw.strip():
        raise EmptyInput("blank HTML input")
    builder = _RawTreeBuilder()
    builder.feed(raw)
    builder.close()
    top = builder.finish()
    elements = [n for n in top if isinstance(n, ElementNode)]
    if not elements:
        raise ParseFailure("no element content found")
    loose_text = any(isinstance(n, TextNode) and n.text.strip() for n in top)
    if len(elements) == 1 and not loose_text:
        return DocumentTree.from_root(elements[0], source_id)
    return DocumentTree.from_root(RawElement("html", (), tuple(top)), source_id)


def reference_preprocess(tree: DocumentTree) -> DocumentTree:
    def rebuild(el: ElementNode) -> ElementNode:
        kept = []
        for child in el.children:
            if isinstance(child, CommentNode):
                continue
            if isinstance(child, TextNode):
                kept.append(TextNode(child.text))
                continue
            if child.tag in STRIP_TAGS:
                continue
            kept.append(rebuild(child))
        classes = [v for k, v in el.attrs if k == KEEP_ATTR]
        return ElementNode(el.tag, classes[0] if classes else None, tuple(kept))

    if tree.root.tag in STRIP_TAGS:
        return DocumentTree.from_root(ElementNode("html"), tree.source_id)
    return DocumentTree.from_root(rebuild(tree.root), tree.source_id)


def random_simple_xpath(rng: random.Random) -> str:
    def segment() -> str:
        tag = rng.choice(TAGS)
        roll = rng.random()
        if roll < 0.30:
            return tag
        if roll < 0.45:
            return "*"
        if roll < 0.70:
            return f"{tag}[@class='{rng.choice(CLASSES)}']"
        if roll < 0.85:
            return f"{tag}[@class]"
        return f"{tag}[{rng.choice(TAGS)}]"

    return "//" + "/".join(segment() for _ in range(rng.randint(1, 3)))


def render_xpath(ast) -> str:
    """XPath text that parses back to ``ast``, with every axis explicit."""
    if isinstance(ast, xp.UnionExpr):
        return " | ".join(_render_path(path) for path in ast.paths)
    if isinstance(ast, xp.Path):
        # A name after a bare '/' would be read as its first step.
        return _render_path(ast) if ast.steps else "(/)"
    if isinstance(ast, xp.Literal):
        return f"'{ast.value}'" if "'" not in ast.value else f'"{ast.value}"'
    if isinstance(ast, xp.Number):
        return format(Decimal(repr(ast.value)), "f")  # no exponent
    if isinstance(ast, xp.FuncCall):
        return f"{ast.name}({', '.join(render_xpath(arg) for arg in ast.args)})"
    assert isinstance(ast, xp.BinOp), ast
    return f"({render_xpath(ast.left)} {ast.op} {render_xpath(ast.right)})"


def _render_path(path) -> str:
    steps = "/".join(
        f"{step.axis}::{_render_test(step.test)}"
        + "".join(f"[{render_xpath(p)}]" for p in step.predicates)
        for step in path.steps
    )
    return "/" + steps if path.absolute else steps


def _render_test(test) -> str:
    if isinstance(test, xp.NameTest):
        return test.name
    return {xp.AnyTest: "*", xp.TextTest: "text()", xp.NodeTestAny: "node()"}[type(test)]


def copied_subtree(tree: DocumentTree, element: ElementNode) -> DocumentTree:
    """A tree rooted at a copy of ``element`` that shares no node with ``tree``."""

    def copy(node):
        if isinstance(node, TextNode):
            return TextNode(node.text)
        return ElementNode(node.tag, node.class_attr, tuple(copy(c) for c in node.children))

    return DocumentTree.from_root(copy(element), tree.source_id)


def child_elements(node: ElementNode) -> list[ElementNode]:
    """The element children of ``node``, in document order."""
    return [c for c in node.children if isinstance(c, ElementNode)]


def elements(node: ElementNode) -> list[ElementNode]:
    """The elements of ``node``'s subtree, ``node`` first, in document order."""
    return [n for n in iter_nodes(node) if isinstance(n, ElementNode)]


def reference_siblings(tree: DocumentTree, node, axis: str) -> list:
    """``node``'s siblings on ``axis`` in ``tree``, in axis order: the
    following ones in document order, the preceding ones nearest first. The
    root has none, also when ``tree`` is a view of a larger page."""
    if node is tree.root:
        return []
    parent = next(
        p for p in tree.parents
        if p is not None and any(child is node for child in p.children)
    )
    before: list = []
    after: list = []
    seen = False
    for child in parent.children:
        if child is node:
            seen = True
        elif seen:
            after.append(child)
        else:
            before.append(child)
    if axis == "following-sibling":
        return after
    assert axis == "preceding-sibling", axis
    return before[::-1]


def positional_xpath(tree, element: ElementNode) -> str:
    """Absolute xpath that uniquely selects ``element`` of ``tree`` via positions."""
    steps: list[str] = []
    node = element
    while tree.parents[node.order] is not None:
        parent = tree.parents[node.order]
        same_tag = [c for c in child_elements(parent) if c.tag == node.tag]
        steps.append(f"{node.tag}[{same_tag.index(node) + 1}]")
        node = parent
    steps.append(node.tag)
    return "/" + "/".join(reversed(steps))


def reference_step_back(tree, proposed, value, instruction, mode, gateway=None):
    """Step back by re-pruning ``proposed/..``, ``proposed/../..``, ...

    Every climb re-evaluates the grown string and judges a copy of the
    first matched element. Climbs past the tree's height plus two go to the
    root whatever the string selects, so the loop always ends.

    Returns ``(decision, base_or_None, tree, exchanges, capped)``, where
    ``capped`` says that the cap, not the xpath, ended the climb.
    """
    exchanges = []
    cap = measure(tree).height + 2
    base = proposed
    climbs = 0
    while True:
        base += "/.."
        climbs += 1
        capped = climbs > cap
        try:
            node = prune(tree, base)
        except xp.XPathSyntaxError:
            node = tree.root
        if node is None and not capped:
            continue
        root_reached = node is None or node is tree.root or capped
        candidate = tree if root_reached else tree.subtree(node)
        verdict = judge_contains(
            candidate, value, instruction,
            gateway=gateway if mode is JudgeMode.LLM else None,
        )
        if verdict.exchange is not None:
            exchanges.append(verdict.exchange)
        if root_reached:
            return ("retry" if verdict.verdict else "give_up"), None, tree, exchanges, capped
        if verdict.verdict:
            return f"stepback({climbs})", base, candidate, exchanges, False


def _reference_predicates(expression: str):
    """Every predicate expression in the parsed location paths."""

    def walk_expr(expr):
        if isinstance(expr, (xp.Path, xp.UnionExpr)):
            paths = expr.paths if isinstance(expr, xp.UnionExpr) else (expr,)
            for path in paths:
                for step in path.steps:
                    for predicate in step.predicates:
                        yield predicate
                        yield from walk_expr(predicate)
        elif isinstance(expr, xp.BinOp):
            yield from walk_expr(expr.left)
            yield from walk_expr(expr.right)
        elif isinstance(expr, xp.FuncCall):
            for arg in expr.args:
                yield from walk_expr(arg)

    yield from walk_expr(xp.parse_xpath(expression))


def _reference_attribute_operand(expr) -> bool:
    if isinstance(expr, xp.Path):
        return any(step.axis == "attribute" for step in expr.steps)
    if isinstance(expr, xp.UnionExpr):
        return any(_reference_attribute_operand(p) for p in expr.paths)
    return False


def reference_literal_predicates(sequence) -> tuple[int, int, list[str]]:
    """``(contains_count, equal_count, fragile_kinds)`` over the steps of
    ``sequence``; a step that does not parse is skipped."""
    digits = re.compile(r"\d{%d,}" % MIN_FRAGILE_DIGIT_RUN)

    def fragile(literal: str) -> bool:
        return len(literal) > MAX_LITERAL_LEN or digits.search(literal) is not None

    counts = {"contains": 0, "equal": 0}
    kinds: list[str] = []

    def visit(expr) -> None:
        if isinstance(expr, xp.FuncCall):
            if expr.name == "contains":
                counts["contains"] += 1
                target, literal = expr.args
                if isinstance(literal, xp.Literal) and not _reference_attribute_operand(target):
                    if fragile(literal.value):
                        kinds.append("contains")
            for arg in expr.args:
                visit(arg)
        elif isinstance(expr, xp.BinOp):
            if expr.op == "=":
                counts["equal"] += 1
                for literal, other in ((expr.left, expr.right), (expr.right, expr.left)):
                    if isinstance(literal, xp.Literal) and not _reference_attribute_operand(other):
                        if fragile(literal.value):
                            kinds.append("equal")
                        break
            visit(expr.left)
            visit(expr.right)

    for step in sequence.steps:
        try:
            predicates = list(_reference_predicates(step))
        except xp.XPathSyntaxError:
            continue
        for predicate in predicates:
            visit(predicate)
    return counts["contains"], counts["equal"], kinds


_FUZZ_TAGS = ["div", "p", "b", "span"]
_FUZZ_LITERALS = [
    "'a'", "'Height:'", "'ab123'", "'ab1234'", "'703-528-7809'", '"say 12345"',
    "'" + "x" * 20 + "'", "'" + "x" * 21 + "'", "'a very long page specific sentence'",
]
_FUZZ_OPERANDS = [
    "text()", ".", "string()", "string(.)", "@class", "@id", "b/@class", "../@class",
    "b", "b/text()", "*", "following-sibling::b",
]
_FUZZ_UNPARSEABLE = [
    "//div[", "//p[substring(., 1)]", "//p[contains(text())]", "//p[normalize-space()='x']",
    "//p]", "   ", "//p[@class=]", "//p[contains(.,'a') and]",
]


def random_literal_step(rng: random.Random) -> str:
    """A random XPath step for the literal-predicate oracle: nested
    predicates, unions, attribute and ``text()``/``.``/``string()``
    operands, literals on either side of a comparison, numbers, and
    sometimes an expression that does not parse."""

    def operand(depth: int) -> str:
        roll = rng.random()
        if roll < 0.35:
            return rng.choice(_FUZZ_LITERALS)
        if roll < 0.45:
            return rng.choice(["1", "2", "0.5", "12345"])
        if roll < 0.6 and depth > 0:
            tail = rng.choice(["", "/text()", "/@class"])
            return f"{rng.choice(_FUZZ_TAGS)}[{predicate(depth - 1)}]{tail}"
        return rng.choice(_FUZZ_OPERANDS)

    def predicate(depth: int) -> str:
        roll = rng.random()
        if roll < 0.25:
            return f"contains({operand(depth)}, {operand(depth)})"
        if roll < 0.5:
            left, right = operand(depth), operand(depth)
            return f"{left} {rng.choice(['=', '=', '!=', '<'])} {right}"
        if roll < 0.6 and depth > 0:
            joiner = rng.choice(["and", "or"])
            return f"{predicate(depth - 1)} {joiner} {predicate(depth - 1)}"
        if roll < 0.7 and depth > 0:
            return f"{rng.choice(['not', 'string', 'count'])}({operand(depth)})"
        if roll < 0.8:
            return rng.choice(["1", "last()", "position()=2", f"starts-with(., {operand(0)})"])
        return operand(depth)

    def path() -> str:
        steps = []
        for _ in range(rng.randint(1, 3)):
            preds = "".join(f"[{predicate(2)}]" for _ in range(rng.randint(0, 2)))
            steps.append(rng.choice(_FUZZ_TAGS) + preds)
        return "//" + "/".join(steps) + rng.choice(["", "", "/text()", "/@class", "/.."])

    if rng.random() < 0.1:
        return rng.choice(_FUZZ_UNPARSEABLE)
    if rng.random() < 0.2:
        return " | ".join(path() for _ in range(rng.randint(2, 3)))
    return path()


def reference_json_object(text: str):
    """``(object, span)`` as the two-pass recovery finds them, else ``(None, None)``."""

    def balanced_end(start):
        depth, in_string, escaped = 0, None, False
        for i in range(start, len(text)):
            ch = text[i]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == in_string:
                    in_string = None
            elif ch in "\"'":
                in_string = ch
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    return i + 1
        return None

    def strip(span):
        out, i, in_string, escaped, comma = [], 0, None, False, -1
        while i < len(span):
            ch = span[i]
            i += 1
            if in_string:
                out.append(ch)
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == in_string:
                    in_string = None
                continue
            if ch == "#":
                while i < len(span) and span[i] != "\n":
                    i += 1
                continue
            if ch in "}]" and comma >= 0:
                del out[comma]
            if ch == ",":
                comma = len(out)
            elif not ch.isspace():
                comma = -1
            if ch in "\"'":
                in_string = ch
            out.append(ch)
        return "".join(out)

    start = text.find("{")
    while start != -1:
        end = balanced_end(start)
        if end is not None:
            span = text[start:end]
            for candidate in (span, strip(span)):
                try:
                    parsed = json.loads(candidate)
                except json.JSONDecodeError:
                    continue
                if isinstance(parsed, dict):
                    return parsed, span
                break
        start = text.find("{", start + 1)
    return None, None


# --------------------------------------------------------------------------
# The XPath interpreter the package used before rules were compiled to plans
# --------------------------------------------------------------------------

_order_key = attrgetter("order")


def string_value(node: XNode) -> str:
    if isinstance(node, TextNode):
        return node.text
    if isinstance(node, AttributeValue):
        return node.value
    return node.text_content()


def _to_string(value) -> str:
    if isinstance(value, list):
        return string_value(value[0]) if value else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value == int(value):
            return str(int(value))
        return repr(value)
    return value


def _to_bool(value) -> bool:
    if isinstance(value, list):
        return bool(value)
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value != 0
    return bool(value)


def _to_number(value) -> float:
    try:
        return float(_to_string(value) if isinstance(value, (list, bool)) else value)
    except (TypeError, ValueError):
        return float("nan")


class _Context:
    __slots__ = ("node", "position", "size", "document")

    def __init__(self, node: XNode, position: int, size: int, document: DocumentTree) -> None:
        self.node = node
        self.position = position
        self.size = size
        self.document = document


def _parent_of(node: XNode, document: DocumentTree) -> Optional[XNode]:
    if node is document:
        return None
    if node is document.root:  # a pruned view's root keeps its page parent
        return document
    if isinstance(node, AttributeValue):
        return node.owner
    return document.parents[node.order]


def _axis_candidates(node: XNode, axis: str, document: DocumentTree) -> Iterable[XNode]:
    """The nodes on ``axis`` from ``node``, in axis order, produced lazily."""
    if axis == "child":
        return node.children
    if axis == "descendant":
        return islice(iter_nodes(node), 1, None)
    if axis == "descendant-or-self":
        return iter_nodes(node)
    if axis == "self":
        return (node,)
    if axis == "parent":
        parent = _parent_of(node, document)
        return (parent,) if parent is not None else ()
    if axis in ("ancestor", "ancestor-or-self"):
        return _ancestors(node, axis == "ancestor-or-self", document)
    if axis in ("following-sibling", "preceding-sibling"):
        parent = _parent_of(node, document)
        if parent is None or isinstance(node, AttributeValue):
            return ()
        siblings = parent.children
        idx = bisect_left(siblings, node.order, key=_order_key)
        if axis == "following-sibling":
            return map(siblings.__getitem__, range(idx + 1, len(siblings)))
        return map(siblings.__getitem__, range(idx - 1, -1, -1))  # nearest first
    if axis == "attribute":
        if isinstance(node, ElementNode) and node.class_attr is not None:
            return (AttributeValue(node),)
        return ()
    raise XPathSyntaxError(f"unsupported axis {axis!r}")


def _ancestors(node: XNode, or_self: bool, document: DocumentTree) -> Iterator[XNode]:
    """Nearest first: reverse axis order."""
    cur = node if or_self else _parent_of(node, document)
    while cur is not None:
        yield cur
        cur = _parent_of(cur, document)


def _test_matches(test: NodeTest, node: XNode, axis: str) -> bool:
    if axis == "attribute":
        if not isinstance(node, AttributeValue):
            return False
        if isinstance(test, NameTest):
            return node.name == test.name.lower()
        return isinstance(test, (AnyTest, NodeTestAny))
    if isinstance(test, NameTest):
        return isinstance(node, ElementNode) and node.tag == test.name.lower()
    if isinstance(test, AnyTest):
        return isinstance(node, ElementNode)
    if isinstance(test, TextTest):
        return isinstance(node, TextNode)
    return not isinstance(node, AttributeValue)  # node(): any tree node


def _evaluate_step(
    nodes: list[XNode], step: Step, document: DocumentTree
) -> list[XNode]:
    gathered: set[XNode] = set()
    predicates = step.predicates
    nth = None
    if predicates and isinstance(predicates[0], Number):
        nth, predicates = predicates[0].value, predicates[1:]
    for node in nodes:
        if nth is None:
            candidates = [
                c for c in _axis_candidates(node, step.axis, document)
                if _test_matches(step.test, c, step.axis)
            ]
        else:
            candidates = _nth_candidate(node, step, nth, document)
        for predicate in predicates:
            size = len(candidates)
            kept = []
            for position, candidate in enumerate(candidates, start=1):
                ctx = _Context(candidate, position, size, document)
                if _predicate_holds(predicate, ctx):
                    kept.append(candidate)
            candidates = kept
        gathered.update(candidates)
    return sorted(gathered, key=_order_key)


def _nth_candidate(
    node: XNode, step: Step, nth: float, document: DocumentTree
) -> list[XNode]:
    """The ``[nth]`` node passing the step's test; the scan stops there."""
    if nth < 1 or nth != int(nth):
        return []
    matches = (
        c for c in _axis_candidates(node, step.axis, document)
        if _test_matches(step.test, c, step.axis)
    )
    return list(islice(matches, int(nth) - 1, int(nth)))


def _predicate_holds(expr: Expr, ctx: _Context) -> bool:
    value = _evaluate_expr(expr, ctx)
    if isinstance(value, float):
        return ctx.position == value
    return _to_bool(value)


def _evaluate_expr(expr: Expr, ctx: _Context):
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Number):
        return expr.value
    if isinstance(expr, (Path, UnionExpr)):
        return _evaluate_paths(expr, ctx)
    if isinstance(expr, FuncCall):
        return _evaluate_function(expr, ctx)
    if isinstance(expr, BinOp):
        if expr.op == "and":
            return _to_bool(_evaluate_expr(expr.left, ctx)) and _to_bool(
                _evaluate_expr(expr.right, ctx)
            )
        if expr.op == "or":
            return _to_bool(_evaluate_expr(expr.left, ctx)) or _to_bool(
                _evaluate_expr(expr.right, ctx)
            )
        return _compare(expr.op, _evaluate_expr(expr.left, ctx), _evaluate_expr(expr.right, ctx))
    raise XPathSyntaxError(f"cannot evaluate expression {expr!r}")


def _compare(op: str, left, right) -> bool:
    if isinstance(left, list) or isinstance(right, list):
        if isinstance(left, list) and isinstance(right, list):
            lvals = [string_value(n) for n in left]
            rvals = [string_value(n) for n in right]
            pairs = ((a, b) for a in lvals for b in rvals)
        elif isinstance(left, list):
            pairs = ((string_value(n), right) for n in left)
        else:
            pairs = ((left, string_value(n)) for n in right)
        return any(_compare_scalars(op, a, b) for a, b in pairs)
    return _compare_scalars(op, left, right)


def _compare_scalars(op: str, left, right) -> bool:
    if op in ("=", "!="):
        if isinstance(left, bool) or isinstance(right, bool):
            result = _to_bool(left) == _to_bool(right)
        elif isinstance(left, float) or isinstance(right, float):
            result = _to_number(left) == _to_number(right)
        else:
            result = _to_string(left) == _to_string(right)
        return result if op == "=" else not result
    a, b = _to_number(left), _to_number(right)
    if a != a or b != b:  # NaN never compares
        return False
    return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op]


def _evaluate_function(expr: FuncCall, ctx: _Context):
    name, args = expr.name, expr.args
    if name == "contains":
        needle = _to_string(_evaluate_expr(args[1], ctx))
        return needle in _to_string(_evaluate_expr(args[0], ctx))
    if name == "starts-with":
        return _to_string(_evaluate_expr(args[0], ctx)).startswith(
            _to_string(_evaluate_expr(args[1], ctx))
        )
    if name == "not":
        return not _to_bool(_evaluate_expr(args[0], ctx))
    if name == "position":
        return float(ctx.position)
    if name == "last":
        return float(ctx.size)
    if name == "count":
        value = _evaluate_expr(args[0], ctx)
        if not isinstance(value, list):
            raise XPathSyntaxError("count() requires a node-set argument")
        return float(len(value))
    if name == "string":
        if not args:
            return string_value(ctx.node)
        return _to_string(_evaluate_expr(args[0], ctx))
    if name == "true":
        return True
    if name == "false":
        return False
    raise XPathSyntaxError(f"unknown function {name}()")


def _evaluate_paths(expr: Union[Path, UnionExpr], ctx: _Context) -> list[XNode]:
    paths = expr.paths if isinstance(expr, UnionExpr) else (expr,)
    merged: set[XNode] = set()
    for path in paths:
        start: XNode = ctx.document if path.absolute else ctx.node
        nodes: list[XNode] = [start]
        for step in path.steps:
            nodes = _evaluate_step(nodes, step, ctx.document)
            if not nodes:
                break
        merged.update(nodes)
    return sorted(merged, key=_order_key)


def reference_evaluate(tree: DocumentTree, expression: str) -> list[XNode]:
    """Evaluate ``expression`` against ``tree`` from the document node.

    Returns the selected nodes in document order without duplicates.
    Raises :class:`XPathSyntaxError` for expressions outside the dialect.
    """
    ast = parse_xpath(expression)
    return _evaluate_paths(ast, _Context(tree, 1, 1, tree))


_PARENT_STEP = Step("parent", NodeTestAny())


def reference_climb(tree: DocumentTree, expression: str) -> Iterator[Optional[XNode]]:
    """Yield the first node of ``expression/..``, then ``expression/../..``, ...

    Appending ``/..`` extends only the last branch of a union, so the other
    branches are evaluated once and held fixed, and each climb maps the last
    branch's node set to its parents; nothing is evaluated again. ``None``
    stands for an empty selection. The climb ends once the last branch has
    no node left, which is at most one step past the document node.
    Raises :class:`XPathSyntaxError` as :func:`reference_evaluate` does.
    """
    *fixed_paths, last = parse_xpath(expression + "/..").paths
    ctx = _Context(tree, 1, 1, tree)
    fixed = _evaluate_paths(UnionExpr(tuple(fixed_paths)), ctx)[:1]
    nodes = _evaluate_paths(last, ctx)
    while True:
        yield min(fixed + nodes[:1], key=_order_key, default=None)
        if not nodes:
            return
        nodes = _evaluate_step(nodes, _PARENT_STEP, tree)

