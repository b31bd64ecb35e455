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

A step whose first predicate is a number, as in ``preceding-sibling::tr[1]``,
stops scanning its axis at the k-th node that passes the node test (reverse
axes count nearest first); a fractional or non-positive k selects nothing.
Any further predicates see that single node. Other steps, including
``[last()]`` and ``[position()=k]``, test every node on the axis.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Union

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
    too. The parser recurses deeper per level of nesting than the
    evaluator, so no AST it returns is too deep to evaluate.
    """
    if not expression or not expression.strip():
        raise XPathSyntaxError("empty expression")
    try:
        return _Parser(expression).parse()
    except RecursionError:
        raise XPathSyntaxError("expression nested too deeply") from None


# --------------------------------------------------------------------------
# Evaluation
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


def evaluate(tree: DocumentTree, expression: str) -> list[XNode]:
    """Evaluate ``expression`` against ``tree`` from the document node.

    Returns the selected nodes in document order without duplicates.
    Raises :class:`XPathSyntaxError` for expressions outside the dialect.
    """
    ast = parse_xpath(expression)
    return _evaluate_paths(ast, _Context(tree, 1, 1, tree))


_PARENT_STEP = Step("parent", NodeTestAny())


def climb(tree: DocumentTree, expression: str) -> Iterator[Optional[XNode]]:
    """Yield the first node of ``expression/..``, then ``expression/../..``, ...

    Appending ``/..`` extends only the last branch of a union, so the other
    branches are evaluated once and held fixed, and each climb maps the last
    branch's node set to its parents; nothing is evaluated again. ``None``
    stands for an empty selection. The climb ends once the last branch has
    no node left, which is at most one step past the document node.
    Raises :class:`XPathSyntaxError` as :func:`evaluate` does.
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

