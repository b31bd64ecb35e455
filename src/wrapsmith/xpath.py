"""A self-contained XPath 1.0 subset evaluator over :mod:`wrapsmith.dom` trees.

Covers the dialect that wrapper rules actually use: absolute and relative
location paths, the ``//`` abbreviation, the child / descendant / parent /
ancestor / self / sibling / attribute axes, ``text()`` and ``node()`` tests,
and predicates built from comparisons, positions, boolean connectives and
the ``contains`` / ``starts-with`` / ``not`` / ``position`` / ``last`` /
``count`` / ``string`` functions. String-manipulation functions such as
``substring()`` and ``normalize-space()`` are deliberately rejected.

The parser reads each token as its text. A literal keeps its quotes and an
axis its ``::``, so an operator is told apart by its text alone, and a
literal, a number or a name by its first character: a quote, a digit, or a
letter or ``_``. After a complete operand, a bare ``and`` or ``or`` is the
operator, the order that XPath 1.0 §3.7 gives. ``//`` expands to
``/descendant-or-self::node()/`` in ``_Parser.parse_path`` alone.

Every node has ``children`` (empty for a leaf) and an ``order`` that is
unique within its page, so a node-set is a set sorted by ``order``. The
:class:`~wrapsmith.dom.DocumentTree` itself is the document node, the target
of ``/`` and of the root's ``..``: its one child is the root and it sorts at
``-1``, before every node of the page. A pruned view is its own document
node, so a path on a view never leaves it. A parent's ``children`` are
sorted by ``order``, so a sibling step finds its node by bisection.
Comparisons follow XPath 1.0 semantics: a node-set compares existentially
against the other operand via node string-values.

Each expression is compiled once into a :func:`plan` of closures, so no
page pays for dispatch on the AST, which stays as the model wrote it. The
plan alone rewrites and takes short cuts:

- ``//T[p…]`` (``descendant-or-self::node()/child::T[p…]``) is planned as
  ``descendant::T[p…]`` unless some ``p`` could depend on the context
  position or size: a number, ``count()``, ``position()`` or ``last()`` at
  its top level, or ``position()``/``last()`` outside a nested path.
  ``//p[1]`` is not ``/descendant::p[1]`` (XPath 1.0 §2.5).
- ``descendant::T`` is a slice of the page's tag index (see
  :class:`~wrapsmith.dom.DocumentTree`), in document order already from one
  context node, so it needs no set and no sort.
- ``[@class='lit']`` compares ``class_attr``, the one class an element keeps.
- A leading ``[k]``, as in ``preceding-sibling::tr[1]``, stops the axis scan
  at the k-th match (reverse axes count nearest first) and later predicates
  see that one node; a k that is not a positive integer, infinities and NaN
  included, selects nothing.

Every expression's type, and so each comparison's conversions, is known
when it is compiled. Errors stay lazy: ``count()`` of a value that is not a
node-set raises only when evaluated. Numbers become strings as XPath 1.0
§4.2 says, ``Infinity`` and ``NaN`` included.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional, Union

from .dom import KEEP_ATTR, DocumentTree, ElementNode, TextNode, iter_nodes


class XPathSyntaxError(ValueError):
    """The expression is not valid (or not supported) XPath."""


@dataclass(frozen=True)
class AttributeValue:
    """The ``class`` attribute of ``owner``, selected by the ``@`` axis.

    In document order an attribute comes right after its element and before
    that element's children (XPath 1.0 §5), so it sorts at ``owner.order +
    0.5``. Equality and hashing use the owner alone.
    """

    owner: ElementNode
    name = KEEP_ATTR
    children = ()

    @property
    def value(self) -> str:
        return self.owner.class_attr

    @property
    def order(self) -> float:
        return self.owner.order + 0.5


XNode = Union[ElementNode, TextNode, DocumentTree, AttributeValue]


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NameTest:
    name: str


@dataclass(frozen=True)
class AnyTest:
    pass


@dataclass(frozen=True)
class TextTest:
    pass


@dataclass(frozen=True)
class NodeTestAny:
    pass


NodeTest = Union[NameTest, AnyTest, TextTest, NodeTestAny]


@dataclass(frozen=True)
class Step:
    axis: str
    test: NodeTest
    predicates: tuple["Expr", ...] = ()


@dataclass(frozen=True)
class Path:
    absolute: bool
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class UnionExpr:
    paths: tuple[Path, ...]


@dataclass(frozen=True)
class Literal:
    value: str


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class FuncCall:
    name: str
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class BinOp:
    op: str  # '=', '!=', '<', '<=', '>', '>=', 'and', 'or'
    left: "Expr"
    right: "Expr"


Expr = Union[Path, UnionExpr, Literal, Number, FuncCall, BinOp]


FUNCTIONS = {
    "contains": 2,
    "starts-with": 2,
    "not": 1,
    "position": 0,
    "last": 0,
    "count": 1,
    "string": -1,  # 0 or 1 args
    "true": 0,
    "false": 0,
}

_AXES = {
    "child", "descendant", "descendant-or-self", "parent", "ancestor",
    "ancestor-or-self", "self", "following-sibling", "preceding-sibling",
    "attribute",
}

# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""\s*(
        \d+(?:\.\d+)?
      | '[^']*'|"[^"]*"
      | \.\.
      | //
      | [a-zA-Z_][\w-]*\s*::
      | [a-zA-Z_][\w.-]*
      | !=|<=|>=|[/\[\]@()|=<>,.*]
    )""",
    re.VERBOSE,
)

# Binary operators from the loosest binding to the tightest.
_LEVELS = (("or",), ("and",), ("=", "!=", "<", "<=", ">", ">="))

_ANY_DESCENDANT = Step("descendant-or-self", NodeTestAny())


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens: list[str] = []
        pos, end = 0, len(text.rstrip())
        while pos < end:
            match = _TOKEN_RE.match(text, pos)
            if match is None:
                raise XPathSyntaxError(f"unexpected character at {pos}: {text[pos:]!r}")
            self.tokens.append(match.group(1))
            pos = match.end()
        self.tokens += ("", "")  # end of input; peek(1) needs no bounds check
        self.pos = 0

    def peek(self, ahead: int = 0) -> str:
        return self.tokens[self.pos + ahead]

    def accept(self, *tokens: str) -> str:
        """Consume and return the next token if it is one of ``tokens``, else ``""``."""
        token = self.tokens[self.pos]
        if token in tokens:
            self.pos += 1
            return token
        return ""

    def expect(self, token: str) -> None:
        if not self.accept(token):
            raise XPathSyntaxError(f"expected {token!r} at token {self.pos} in {self.text!r}")

    def at_step(self) -> bool:
        """Does a location step start at the next token? Names and axes do."""
        token = self.peek()
        return token in ("..", ".", "@", "*") or token[:1].isidentifier()

    # -- entry point -------------------------------------------------------
    def parse(self) -> UnionExpr:
        paths = [self.parse_path()]
        while self.accept("|"):
            paths.append(self.parse_path())
        if self.peek():
            raise XPathSyntaxError(f"trailing tokens in {self.text!r}")
        return UnionExpr(tuple(paths))

    # -- location paths ------------------------------------------------------
    def parse_path(self) -> Path:
        """Steps joined by ``/``; ``//`` abbreviates ``/descendant-or-self::node()/``."""
        separator = self.accept("/", "//")
        if separator == "/" and not self.at_step():
            return Path(True, ())  # bare '/' selects the document
        absolute = bool(separator)
        steps: list[Step] = []
        while True:
            if separator == "//":
                steps.append(_ANY_DESCENDANT)
            steps.append(self.parse_step())
            separator = self.accept("/", "//")
            if not separator:
                return Path(absolute, tuple(steps))

    def parse_step(self) -> Step:
        if self.accept(".."):
            return Step("parent", NodeTestAny())
        if self.accept("."):
            return Step("self", NodeTestAny())
        axis = "child"
        if self.accept("@"):
            axis = "attribute"
        elif self.peek().endswith("::"):
            axis = self.peek()[:-2].rstrip()
            self.pos += 1
            if axis not in _AXES:
                raise XPathSyntaxError(f"unsupported axis {axis!r}")
        test = self.parse_node_test()
        predicates: list[Expr] = []
        while self.accept("["):
            predicates.append(self.parse_expr())
            self.expect("]")
        return Step(axis, test, tuple(predicates))

    def parse_node_test(self) -> NodeTest:
        if self.accept("*"):
            return AnyTest()
        name = self.peek()
        if not name[:1].isidentifier() or name.endswith("::"):
            raise XPathSyntaxError(f"expected a node test at token {self.pos} in {self.text!r}")
        self.pos += 1
        if self.accept("("):
            self.expect(")")
            if name == "text":
                return TextTest()
            if name == "node":
                return NodeTestAny()
            raise XPathSyntaxError(f"unsupported node test {name}()")
        return NameTest(name)

    # -- predicate expressions ----------------------------------------------
    def parse_expr(self, level: int = 0) -> Expr:
        """``or``, then ``and``, then at most one comparison: ``a = b = c``
        is an error. After a complete operand, a bare ``and``/``or`` is the
        operator (XPath 1.0 §3.7)."""
        if level == len(_LEVELS):
            return self.parse_primary()
        left = self.parse_expr(level + 1)
        while op := self.accept(*_LEVELS[level]):
            left = BinOp(op, left, self.parse_expr(level + 1))
            if level == len(_LEVELS) - 1:
                break
        return left

    def parse_primary(self) -> Expr:
        token = self.peek()
        if token[:1] in ("'", '"'):
            self.pos += 1
            return Literal(token[1:-1])
        if token[:1].isdigit():
            self.pos += 1
            return Number(float(token))
        if self.accept("("):
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if token[:1].isidentifier() and self.peek(1) == "(" and token not in ("text", "node"):
            return self.parse_function()
        if self.at_step() or token in ("/", "//"):
            return self.parse_path()
        raise XPathSyntaxError(f"unexpected {token or 'end'!r} in {self.text!r}")

    def parse_function(self) -> Expr:
        name = self.peek()
        if name not in FUNCTIONS:
            raise XPathSyntaxError(f"unknown function {name}()")
        self.pos += 2  # the name and its '('
        args: list[Expr] = []
        while not self.accept(")"):
            if args:
                self.expect(",")
            args.append(self.parse_expr())
        arity = FUNCTIONS[name]
        if arity >= 0 and len(args) != arity:
            raise XPathSyntaxError(f"{name}() takes {arity} argument(s), got {len(args)}")
        if arity == -1 and len(args) > 1:
            raise XPathSyntaxError(f"{name}() takes at most one argument")
        return FuncCall(name, tuple(args))


@lru_cache(maxsize=1024)
def parse_xpath(expression: str) -> UnionExpr:
    """Parse an expression to its AST; raises :class:`XPathSyntaxError`.

    An expression nested too deeply for Python's stack is a syntax error
    too. The parser recurses deeper per level of nesting than the plan
    compiler and the plans it builds, so no AST it returns is too deep to
    compile or evaluate.
    """
    if not expression or not expression.strip():
        raise XPathSyntaxError("empty expression")
    try:
        return _Parser(expression).parse()
    except RecursionError:
        raise XPathSyntaxError("expression nested too deeply") from None


# --------------------------------------------------------------------------
# Plans: a compiled expression is a function of (node, position, size,
# document), written ``n, p, s, d``; a path or step, of node(s) and document
# --------------------------------------------------------------------------

_order_key = attrgetter("order")

#: The functions whose value is not a boolean.
_FUNCTION_KINDS = {"position": float, "last": float, "count": float, "string": str}

_RELATIONS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
              ">": operator.gt, ">=": operator.ge}

#: What ``[@class='lit']`` compares with its literal.
_CLASS_ATTRIBUTE = Path(False, (Step("attribute", NameTest(KEEP_ATTR)),))

#: The axes whose order runs against document order, nearest first.
_REVERSE_AXES = frozenset({"ancestor", "ancestor-or-self", "preceding-sibling"})


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
    if isinstance(value, float):  # XPath 1.0 §4.2
        if not math.isfinite(value):
            return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
        return str(int(value)) if value.is_integer() else repr(value)
    return value


def _to_number(value) -> float:
    try:
        return float(_to_string(value) if isinstance(value, (list, bool)) else value)
    except (TypeError, ValueError):
        return float("nan")


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


def _kind(expr: Expr) -> type:
    """The type of ``expr``'s value, known before it is evaluated: ``list``
    for a node-set, else ``str``, ``float`` or ``bool``."""
    if isinstance(expr, FuncCall):
        return _FUNCTION_KINDS.get(expr.name, bool)
    return {Path: list, UnionExpr: list, Literal: str, Number: float}.get(type(expr), bool)


def _uses_position(expr: Expr) -> bool:
    """Does ``expr`` call ``position()`` or ``last()`` outside a nested path?"""
    if isinstance(expr, FuncCall):
        return expr.name in ("position", "last") or any(map(_uses_position, expr.args))
    if isinstance(expr, BinOp):
        return _uses_position(expr.left) or _uses_position(expr.right)
    return False


def _rewritten(steps: tuple[Step, ...]) -> list[Step]:
    """``steps`` with ``descendant-or-self::node()/child::T[p…]`` planned as
    ``descendant::T[p…]``, unless some ``p`` could depend on the context
    position or size: ``//p[1]`` is not ``/descendant::p[1]`` (XPath 1.0
    §2.5)."""
    planned: list[Step] = []
    for step in steps:
        if planned and planned[-1] == _ANY_DESCENDANT and step.axis == "child" and not any(
            _kind(p) is float or _uses_position(p) for p in step.predicates
        ):
            planned[-1] = Step("descendant", step.test, step.predicates)
        else:
            planned.append(step)
    return planned


def _candidates(axis: str, test: NodeTest) -> Callable[[XNode, DocumentTree], Iterable[XNode]]:
    """The nodes on ``axis`` from a context node that pass ``test``, in axis
    order. ``descendant::T`` is a slice of the document's tag index."""
    match: Optional[Callable[[XNode], bool]] = None  # None: every node passes
    if axis == "attribute":  # the axis yields the element's one attribute
        if isinstance(test, TextTest) or isinstance(test, NameTest) and test.name.lower() != KEEP_ATTR:
            return lambda node, document: ()
    elif isinstance(test, NameTest):
        name = test.name.lower()
        if axis == "descendant":
            return lambda node, document: document.descendants(node, name)
        match = lambda node: isinstance(node, ElementNode) and node.tag == name
    elif isinstance(test, AnyTest):
        match = lambda node: isinstance(node, ElementNode)
    elif isinstance(test, TextTest):
        match = lambda node: isinstance(node, TextNode)
    else:  # node(): any node but an attribute, which only a context node can be
        match = lambda node: not isinstance(node, AttributeValue)
    if match is None:
        return lambda node, document: _axis_candidates(node, axis, document)
    return lambda node, document: filter(match, _axis_candidates(node, axis, document))


def _compile_step(step: Step) -> Callable[[list[XNode], DocumentTree], list[XNode]]:
    """``step`` as a function from a node-set to a node-set."""
    candidates = _candidates(step.axis, step.test)
    predicates = step.predicates
    if predicates and isinstance(predicates[0], Number):
        # A leading [k] stops the scan at the k-th match; a k that is not a
        # positive integer, or is more than any axis holds, selects nothing.
        k = predicates[0].value
        if not (1 <= k <= sys.maxsize and k.is_integer()):
            return lambda nodes, document: []
        k, scan = int(k), candidates
        candidates = lambda node, document: islice(scan(node, document), k - 1, k)
        predicates = predicates[1:]
    filters = [_compile_predicate(p) for p in predicates]
    forward = step.axis not in _REVERSE_AXES

    def select(node: XNode, document: DocumentTree) -> list[XNode]:
        found = list(candidates(node, document))
        for keep in filters:
            size = len(found)
            found = [c for i, c in enumerate(found, 1) if keep(c, i, size, document)]
        return found

    def run(nodes: list[XNode], document: DocumentTree) -> list[XNode]:
        if len(nodes) == 1 and forward:  # in document order already: no set, no sort
            return select(nodes[0], document)
        gathered: set[XNode] = set()
        for node in nodes:
            gathered.update(select(node, document))
        return sorted(gathered, key=_order_key)

    return run


def _compile_predicate(expr: Expr):
    """A number tests the candidate's position (XPath 1.0 §2.4); any other
    value is tested for truth by the caller."""
    value = _compile_expr(expr)
    if _kind(expr) is float:
        return lambda n, p, s, d: value(n, p, s, d) == p
    return value


def _compile_expr(expr: Expr):
    if isinstance(expr, (Literal, Number)):
        constant = expr.value
        return lambda n, p, s, d: constant
    if isinstance(expr, (Path, UnionExpr)):
        paths = tuple(map(_compile_path, expr.paths if isinstance(expr, UnionExpr) else (expr,)))
        return lambda n, p, s, d: _union(paths, n, d)
    if isinstance(expr, FuncCall):
        return _compile_function(expr)
    left, right = _compile_expr(expr.left), _compile_expr(expr.right)
    if expr.op == "and":
        return lambda n, p, s, d: bool(left(n, p, s, d) and right(n, p, s, d))
    if expr.op == "or":
        return lambda n, p, s, d: bool(left(n, p, s, d) or right(n, p, s, d))
    return _compile_comparison(expr, left, right)


def _compile_comparison(expr: BinOp, left, right):
    """A comparison holds when it holds for some string-value of a node-set
    operand (XPath 1.0 §3.4). Both sides become booleans when one is a
    boolean, else numbers for an order or when one is a number, else they
    are strings already."""
    for attribute, literal in ((expr.left, expr.right), (expr.right, expr.left)):
        if expr.op == "=" and attribute == _CLASS_ATTRIBUTE and isinstance(literal, Literal):
            value = literal.value  # an element keeps one class, the one @class selects
            return lambda n, p, s, d: getattr(n, "class_attr", None) == value
    relation = _RELATIONS[expr.op]
    left_nodes, right_nodes = _kind(expr.left) is list, _kind(expr.right) is list
    scalars = {str if k is list else k for k in (_kind(expr.left), _kind(expr.right))}
    if bool in scalars and expr.op in ("=", "!="):
        convert = bool
    elif float in scalars or expr.op not in ("=", "!="):
        convert = _to_number
    else:
        convert = str

    def compare(n, p, s, d):
        a, b = left(n, p, s, d), right(n, p, s, d)
        a = [convert(string_value(x)) for x in a] if left_nodes else (convert(a),)
        b = [convert(string_value(y)) for y in b] if right_nodes else (convert(b),)
        return any(relation(x, y) for x in a for y in b)

    return compare


def _compile_function(expr: FuncCall):
    name = expr.name
    if name == "count" and _kind(expr.args[0]) is not list:
        def fail(n, p, s, d):  # only if evaluated: not in ``false() and count('x')``
            raise XPathSyntaxError("count() requires a node-set argument")
        return fail
    if name in ("true", "false"):
        constant = name == "true"
        return lambda n, p, s, d: constant
    if name == "position":
        return lambda n, p, s, d: float(p)
    if name == "last":
        return lambda n, p, s, d: float(s)
    if name == "string" and not expr.args:
        return lambda n, p, s, d: string_value(n)
    a, *rest = map(_compile_expr, expr.args)
    if name == "count":
        return lambda n, p, s, d: float(len(a(n, p, s, d)))
    if name == "string":
        return lambda n, p, s, d: _to_string(a(n, p, s, d))
    if name == "not":
        return lambda n, p, s, d: not a(n, p, s, d)
    (b,) = rest
    if name == "contains":
        return lambda n, p, s, d: _to_string(b(n, p, s, d)) in _to_string(a(n, p, s, d))
    return lambda n, p, s, d: _to_string(a(n, p, s, d)).startswith(_to_string(b(n, p, s, d)))


def _compile_path(path: Path) -> Callable[[XNode, DocumentTree], list[XNode]]:
    steps = [_compile_step(step) for step in _rewritten(path.steps)]
    absolute = path.absolute

    def run(node: XNode, document: DocumentTree) -> list[XNode]:
        nodes = [document if absolute else node]
        for step in steps:
            nodes = step(nodes, document)
            if not nodes:
                break
        return nodes

    return run


def _union(paths, node: XNode, document: DocumentTree) -> list[XNode]:
    """The nodes that ``paths`` select from ``node``, in document order."""
    if len(paths) == 1:
        return paths[0](node, document)
    merged: set[XNode] = set()
    for path in paths:
        merged.update(path(node, document))
    return sorted(merged, key=_order_key)


@lru_cache(maxsize=1024)
def plan(expression: str) -> tuple[Callable[[XNode, DocumentTree], list[XNode]], ...]:
    """Compile ``expression`` once: one function per branch of its union,
    from a context node and the document to the nodes selected, in
    document order. Raises :class:`XPathSyntaxError` as :func:`parse_xpath`
    does."""
    return tuple(map(_compile_path, parse_xpath(expression).paths))


def evaluate(tree: DocumentTree, expression: str) -> list[XNode]:
    """Evaluate ``expression`` against ``tree`` from the document node.

    Returns the selected nodes in document order without duplicates.
    Raises :class:`XPathSyntaxError` for expressions outside the dialect.
    """
    return _union(plan(expression), tree, tree)


_PARENTS = _compile_step(Step("parent", NodeTestAny()))


def climb(tree: DocumentTree, expression: str) -> Iterator[Optional[XNode]]:
    """Yield the first node of ``expression/..``, then ``expression/../..``, ...

    Appending ``/..`` extends only the last branch of a union, so the other
    branches are evaluated once and held fixed, and each climb maps the last
    branch's node set to its parents; nothing is evaluated again. ``None``
    stands for an empty selection. The climb ends once the last branch has
    no node left, which is at most one step past the document node.
    Raises :class:`XPathSyntaxError` as :func:`evaluate` does.
    """
    *fixed_paths, last = plan(expression + "/..")
    fixed = _union(fixed_paths, tree, tree)[:1]
    nodes = last(tree, tree)
    while True:
        yield min(fixed + nodes[:1], key=_order_key, default=None)
        if not nodes:
            return
        nodes = _PARENTS(nodes, tree)
