"""Immutable HTML document trees: tolerant, cleaning parsing and size metrics.

Pages arrive as messy real-world HTML, so parsing is forgiving: unclosed
tags, stray end tags and character references are all absorbed. Parsing
also cleans, in the same pass: ``script``/``style`` subtrees, comments,
declarations and every attribute except ``class`` never enter the tree, so
each page is built and frozen once. An element keeps its first ``class``, as
a browser does, so the prompt shows the same class that XPath sees. The
result is an immutable tree that downstream stages can share freely across
threads, and a pruned tree is a view that shares its page's nodes. Nodes
link only to their children; a page's ``parents`` table links them back, so
a page holds no reference cycle and is freed as soon as it is dropped. Size
metrics (token count, tree height) are taken over the serialization's parts,
in which each tag is its own whitespace-delimited token, which keeps both
measures monotone under pruning. Every walk over a tree uses an explicit
stack, so no nesting depth reaches the interpreter's recursion limit;
:func:`iter_nodes` is the one pre-order walk that the evaluator and
``text_content`` share.
"""

from __future__ import annotations

import html as _htmllib
from bisect import bisect_left
from dataclasses import dataclass
from html.parser import HTMLParser
from typing import Iterator, Optional, Union


class DomError(Exception):
    """Base class for document tree failures."""


class EmptyInput(DomError):
    """Parse input was blank."""


class ParseFailure(DomError):
    """Parse input contained no recoverable element content."""


#: Tags that never take a closing tag in HTML.
VOID_TAGS = frozenset({
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
})

#: Subtrees the parser drops wholesale.
STRIP_TAGS = frozenset({"script", "style"})

#: The single attribute the parser keeps.
KEEP_ATTR = "class"


class TextNode:
    """A run of character data inside an element."""

    __slots__ = ("text", "order")
    children: tuple = ()

    def __init__(self, text: str) -> None:
        self.text = text
        self.order = -1

    def __repr__(self) -> str:
        return f"TextNode({self.text!r})"


class ElementNode:
    """An element with ordered children and its ``class`` attribute
    (``None`` when the tag has none).

    Nodes are frozen once, when their page's :class:`DocumentTree` is built,
    and pruned views share them.
    """

    __slots__ = ("tag", "class_attr", "children", "order")

    def __init__(
        self,
        tag: str,
        class_attr: Optional[str] = None,
        children: tuple["Node", ...] = (),
    ) -> None:
        self.tag = tag
        self.class_attr = class_attr
        self.children = tuple(children)
        self.order = -1

    def text_content(self) -> str:
        """Concatenated character data of the whole subtree, in order."""
        return "".join([n.text for n in iter_nodes(self) if isinstance(n, TextNode)])

    def __repr__(self) -> str:
        cls = f" class={self.class_attr!r}" if self.class_attr else ""
        return f"<ElementNode {self.tag}{cls} children={len(self.children)}>"


Node = Union[ElementNode, TextNode]


def iter_nodes(node) -> Iterator[Node]:
    """Pre-order walk over ``node`` and all its descendants; ``node`` is
    anything with ``children``, a :class:`DocumentTree` included."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if node.children:
            stack.extend(reversed(node.children))


@dataclass(frozen=True)
class TreeMetrics:
    """Size of a tree: whitespace tokens of its serialization, each tag
    counted as its own token, and element-only height (root alone counts as
    height 1)."""

    token_count: int
    height: int


class DocumentTree:
    """A parsed page, or a pruned view of one: a root element, an opaque
    source identifier and the page's ``parents`` table, in which
    ``parents[node.order]`` is a node's parent (``None`` for the page root,
    the node of order 0). Its nodes never change, so it renders once and
    every caller of :meth:`to_html` and :func:`measure` shares that.

    ``tags`` is the page's tag index: each tag maps to its elements and
    their orders, two lists in document order. A node's descendants hold
    the orders from its own plus one up to its last descendant's, so
    :meth:`descendants` bisects the index for them. Views share their
    page's ``parents`` and ``tags``, as they share its nodes.

    The tree is also XPath's document node: the parent of its root, which
    sorts before every node of the page. A view is its own document node.
    """

    __slots__ = ("root", "source_id", "parents", "tags", "_rendered")
    order = -1

    def __init__(self, root: ElementNode, source_id: str, parents: list, tags: dict) -> None:
        self.root = root
        self.source_id = source_id
        self.parents = parents
        self.tags = tags
        self._rendered: Optional[tuple[str, TreeMetrics]] = None

    @property
    def children(self) -> tuple[ElementNode]:
        return (self.root,)

    @classmethod
    def from_root(cls, root: ElementNode, source_id: str) -> "DocumentTree":
        return cls(root, source_id, *_freeze(root))

    def to_html(self) -> str:
        return self._rendering()[0]

    def _rendering(self) -> tuple[str, TreeMetrics]:
        """The serialization and its metrics, rendered on first use: the tree
        is immutable, so every caller shares one rendering. Two threads that
        race here both render and store equal results."""
        if self._rendered is None:
            self._rendered = _render(self.root)
        return self._rendered

    def text_content(self) -> str:
        return self.root.text_content()

    def descendants(self, node, tag: str) -> list[ElementNode]:
        """The ``tag`` elements below ``node``, in document order: a slice of
        the tag index. ``node`` is a node of this tree, or the tree itself."""
        entry = self.tags.get(tag)
        if entry is None:
            return []
        elements, orders = entry
        last = node
        while last.children:
            last = last.children[-1]
        lo = bisect_left(orders, self.root.order if node is self else node.order + 1)
        return elements[lo:bisect_left(orders, last.order + 1, lo)]

    def subtree(self, element: ElementNode) -> "DocumentTree":
        """A view rooted at ``element`` that shares this tree's nodes."""
        return DocumentTree(element, self.source_id, self.parents, self.tags)

    def __repr__(self) -> str:
        return f"<DocumentTree {self.source_id!r} root={self.root.tag!r}>"


def _freeze(root: ElementNode) -> tuple[list[Optional[ElementNode]], dict]:
    """Number the nodes in document order; return their parents table and
    the tag index (see :class:`DocumentTree`), both built in this one walk."""
    parents: list[Optional[ElementNode]] = []
    tags: dict[str, tuple[list[ElementNode], list[int]]] = {}
    stack: list[tuple[Node, Optional[ElementNode]]] = [(root, None)]
    while stack:
        node, parent = stack.pop()
        node.order = order = len(parents)
        parents.append(parent)
        if isinstance(node, ElementNode):
            elements, orders = tags.setdefault(node.tag, ([], []))
            elements.append(node)
            orders.append(order)
        if node.children:
            stack.extend((child, node) for child in reversed(node.children))
    return parents, tags


def _open_tag(el: ElementNode) -> str:
    if el.class_attr is None:
        return f"<{el.tag}>"
    return f'<{el.tag} {KEEP_ATTR}="{_htmllib.escape(el.class_attr)}">'


def _render(root: ElementNode) -> tuple[str, TreeMetrics]:
    """Serialize a tree and measure it in one walk."""
    parts: list[str] = []
    height = depth = 0  # depth: elements open at this point of the walk
    stack: list[Union[Node, str]] = [root]  # a str is a pending closing tag
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
            depth -= 1
        elif isinstance(node, TextNode):
            parts.append(_htmllib.escape(node.text, quote=False))
        else:
            parts.append(_open_tag(node))
            height = max(height, depth + 1)
            if node.children or node.tag not in VOID_TAGS:
                depth += 1
                stack.append(f"</{node.tag}>")
            stack.extend(reversed(node.children))
    tokens = sum(len(part.split()) for part in parts)
    return "".join(parts), TreeMetrics(token_count=tokens, height=height)


def measure(tree: DocumentTree) -> TreeMetrics:
    """Token count over the serialization's parts plus element height."""
    return tree._rendering()[1]


def normalize_escapes(value: str) -> str:
    """Resolve character references to literal characters.

    Applied to annotation values so they compare equal to page text, which
    the parser already unescapes.
    """
    return _htmllib.unescape(value)


class _TreeBuilder(HTMLParser):
    """Tolerant, cleaning tree builder: auto-closes at EOF, absorbs stray end
    tags, closes mis-nested elements up to the nearest matching open tag.
    Comments and declarations fall through to the base class's no-op
    handlers, and a self-closing tag to its start-then-end default."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        # Sentinel frame collects finished top-level nodes.
        self._stack: list[list] = [["", None, []]]
        #: Top-level script/style elements dropped; they count for the root choice.
        self.dropped_top = 0

    def handle_starttag(self, tag: str, attrs) -> None:
        # The first ``class`` wins, as in a browser; ``html.parser`` has
        # already lowercased the names.
        tag = tag.lower()
        class_attr = next((v or "" for k, v in attrs if k == KEEP_ATTR), None)
        if tag in VOID_TAGS:
            self._append(tag, class_attr, ())
        else:
            self._stack.append([tag, class_attr, []])

    def handle_endtag(self, tag: str) -> None:
        tag = tag.lower()
        if tag in VOID_TAGS:
            return
        for i in range(len(self._stack) - 1, 0, -1):
            if self._stack[i][0] == tag:
                while len(self._stack) > i:
                    self._close_top()
                return
        # No matching open tag: stray end tag, ignore.

    def handle_data(self, data: str) -> None:
        if data:
            self._stack[-1][2].append(TextNode(data))

    def _close_top(self) -> None:
        self._append(*self._stack.pop())

    def _append(self, tag: str, class_attr: Optional[str], children) -> None:
        """Add a finished element to the open one, unless it is a script/style."""
        if tag not in STRIP_TAGS:
            self._stack[-1][2].append(ElementNode(tag, class_attr, children))
        elif len(self._stack) == 1:
            self.dropped_top += 1

    def finish(self) -> list[Node]:
        while len(self._stack) > 1:
            self._close_top()
        return list(self._stack[0][2])


def parse_html(raw: str, source_id: str = "") -> DocumentTree:
    """Parse possibly-malformed HTML into a cleaned :class:`DocumentTree`.

    Raises :class:`EmptyInput` for blank input and :class:`ParseFailure`
    when no element content can be recovered at all. A document with a
    single top-level element is rooted there; fragments with several
    top-level nodes are wrapped in a synthetic ``html`` element. A dropped
    top-level ``script``/``style`` still counts as a top-level element, and
    a page whose only element is one gets an empty ``html`` root.
    """
    if not raw or not raw.strip():
        raise EmptyInput("blank HTML input")
    builder = _TreeBuilder()
    builder.feed(raw)
    builder.close()
    top = builder.finish()
    elements = [n for n in top if isinstance(n, ElementNode)]
    if not elements and not builder.dropped_top:
        raise ParseFailure("no element content found")
    loose_text = any(
        isinstance(n, TextNode) and n.text.strip() for n in top
    )
    if len(elements) + builder.dropped_top == 1 and not loose_text:
        root = elements[0] if elements else ElementNode("html")
    else:
        root = ElementNode("html", None, tuple(top))
    return DocumentTree.from_root(root, source_id)


def preprocess(tree: DocumentTree) -> DocumentTree:
    """Return ``tree`` as it is: :func:`parse_html` already cleans.

    Kept as an identity because the benchmark harness in ``perfbench/``
    still calls and traces it.
    """
    return tree
