"""Run XPath action sequences against document trees.

An action sequence is an ordered list of XPath expressions: every step but
the last prunes the tree down to the first matched element, and the final
step extracts text values from whatever remains. :func:`prune` returns
that element, or ``None``; the document node, which is the tree itself and
which ``/..`` selects at the root, counts as the root. :func:`extract` runs
a whole sequence: each pruning step narrows the tree to a view rooted at
the pruned element (nothing is copied), a failing step reports its index,
and the empty sequence means "attribute absent", which extracts nothing.
Extracted values are normalized (whitespace collapsed, empties dropped) so
that downstream comparisons tolerate markup padding.

:func:`literal_predicates` lists a rule's ``contains()`` and ``=``
predicates and flags the ones that match a page-specific text literal;
synthesis ranks candidates by that count and ``analyze`` tallies it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from . import xpath as xp
from .dataset import OPTIONAL
from .dom import DocumentTree, ElementNode


class ExtractionStatus(str, Enum):
    OK = "ok"
    NO_MATCH = "no_match"
    INVALID_XPATH = "invalid_xpath"


@dataclass(frozen=True)
class ExtractionResult:
    """Values pulled out of a page plus how the attempt ended.

    ``failed_step`` is the index of the offending step when a sequence run
    fails; single-expression evaluations leave it unset.
    """

    values: tuple[str, ...]
    status: ExtractionStatus
    failed_step: Optional[int] = field(default=None, metadata=OPTIONAL)

    @property
    def ok(self) -> bool:
        return self.status is ExtractionStatus.OK


@dataclass(frozen=True)
class Provenance:
    seed_page: str
    strategy: str


@dataclass(frozen=True)
class ActionSequence:
    """Ordered XPath steps; prefix prunes, final step extracts.

    The empty sequence is reserved for "attribute absent": executing it
    extracts nothing, on purpose.
    """

    steps: tuple[str, ...]
    provenance: Provenance

    @property
    def pruning_steps(self) -> tuple[str, ...]:
        return self.steps[:-1]


def normalize_value(value: str) -> str:
    """Collapse whitespace runs and strip the ends."""
    return " ".join(value.split())


def normalize_values(values: Iterable[str]) -> tuple[str, ...]:
    """Normalize each value and drop the ones that come out empty."""
    out = []
    for value in values:
        norm = normalize_value(value)
        if norm:
            out.append(norm)
    return tuple(out)


def eval_text(tree: DocumentTree, expression: str) -> ExtractionResult:
    """Extract normalized text for every node the expression selects."""
    try:
        matches = xp.evaluate(tree, expression)
    except xp.XPathSyntaxError:
        return ExtractionResult((), ExtractionStatus.INVALID_XPATH)
    if not matches:
        return ExtractionResult((), ExtractionStatus.NO_MATCH)
    values = normalize_values(xp.string_value(node) for node in matches)
    return ExtractionResult(values, ExtractionStatus.OK)


def prune(tree: DocumentTree, expression: str) -> Optional[ElementNode]:
    """First element the expression selects in ``tree``.

    ``None`` when the selection is empty or starts with a text or attribute
    node, which cannot root a subtree. The document node, which is ``tree``
    itself (the target of ``/..`` applied at the root), maps to
    ``tree.root``, so a climb past the root stays there. Raises
    :class:`~wrapsmith.xpath.XPathSyntaxError` for an invalid expression.
    """
    matches = xp.evaluate(tree, expression)
    first = matches[0] if matches else None
    if first is tree:
        return tree.root
    return first if isinstance(first, ElementNode) else None


def extract(page: DocumentTree, sequence: ActionSequence) -> ExtractionResult:
    """Fold the pruning steps over the page, then extract with the last step.

    The empty sequence predicts absence: it succeeds with no values.
    """
    if not sequence.steps:
        return ExtractionResult((), ExtractionStatus.OK)
    tree = page
    for index, step in enumerate(sequence.pruning_steps):
        try:
            node = prune(tree, step)
        except xp.XPathSyntaxError:
            return ExtractionResult((), ExtractionStatus.INVALID_XPATH, failed_step=index)
        if node is None:
            return ExtractionResult((), ExtractionStatus.NO_MATCH, failed_step=index)
        tree = tree.subtree(node)
    result = eval_text(tree, sequence.steps[-1])
    if not result.ok:
        return ExtractionResult((), result.status, failed_step=len(sequence.steps) - 1)
    return result


# --------------------------------------------------------------------------
# Literal predicates
# --------------------------------------------------------------------------

#: A text literal is fragile when it looks page-specific: a digit run this
#: long (phone numbers, ids) or a string longer than the length limit.
MIN_FRAGILE_DIGIT_RUN = 4
MAX_LITERAL_LEN = 20

_FRAGILE_DIGITS = re.compile(r"\d{%d,}" % MIN_FRAGILE_DIGIT_RUN)


def _is_fragile(literal: xp.Expr, operand: xp.Expr) -> bool:
    """Is ``literal`` a page-specific text literal matched against ``operand``?

    Literals compared against attribute values (``@class`` and friends) are
    never fragile: attributes are the stable handle on template pages, while
    literals matched against text content travel badly between pages.
    """
    if not isinstance(literal, xp.Literal) or _is_attribute_operand(operand):
        return False
    return len(literal.value) > MAX_LITERAL_LEN or _FRAGILE_DIGITS.search(literal.value) is not None


def _is_attribute_operand(expr: xp.Expr) -> bool:
    if isinstance(expr, xp.Path):
        return any(step.axis == "attribute" for step in expr.steps)
    return False


def literal_predicates(sequence: ActionSequence) -> list[tuple[str, bool]]:
    """``("contains", fragile)`` for each ``contains()`` and ``("equal",
    fragile)`` for each ``=`` in the predicates of ``sequence``'s steps,
    nested predicates included. ``fragile`` says that the call's second
    argument, or either side of the ``=`` (the left one first), is a
    fragile text literal. A step that does not parse is skipped.
    """
    found: list[tuple[str, bool]] = []
    stack: list[xp.Expr] = []
    for step in sequence.steps:
        try:
            stack.append(xp.parse_xpath(step))
        except xp.XPathSyntaxError:
            continue
        while stack:
            expr = stack.pop()
            if isinstance(expr, (xp.Path, xp.UnionExpr)):
                paths = expr.paths if isinstance(expr, xp.UnionExpr) else (expr,)
                stack += [p for path in paths for part in path.steps for p in part.predicates]
            elif isinstance(expr, xp.FuncCall):
                if expr.name == "contains":
                    found.append(("contains", _is_fragile(expr.args[1], expr.args[0])))
                stack += expr.args
            elif isinstance(expr, xp.BinOp):
                if expr.op == "=":
                    literal, other = expr.left, expr.right
                    if not isinstance(literal, xp.Literal):
                        literal, other = other, literal
                    found.append(("equal", _is_fragile(literal, other)))
                stack += (expr.left, expr.right)
    return found
