import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import child_elements, elements
from wrapsmith import dom
from wrapsmith.dom import (
    DomError,
    ElementNode,
    EmptyInput,
    ParseFailure,
    TextNode,
    iter_nodes,
    measure,
    normalize_escapes,
    parse_html,
)
from wrapsmith.xpath import evaluate


def shape(tree):
    """Pre-order ``(type, tag, class, text, child count)`` of every node.

    Unlike ``to_html()``, this tells one text node from two adjacent ones.
    """
    return [
        (type(n).__name__, n.tag, n.class_attr, None, len(n.children))
        if isinstance(n, ElementNode)
        else (type(n).__name__, None, None, n.text, 0)
        for n in iter_nodes(tree.root)
    ]


def parents(tree):
    """The ``parents`` table as the orders of the parents."""
    return [None if p is None else p.order for p in tree.parents]


def parsed_or_error(parse, raw):
    """Shape, parents table and rendering of ``parse(raw)``, or the error it raises."""
    try:
        tree = parse(raw, "t")
    except DomError as exc:
        return type(exc).__name__
    return shape(tree), parents(tree), tree.to_html()


def reference_parse_html(raw, source_id):
    return oracles.reference_preprocess(oracles.reference_parse(raw, source_id))


class TestParse:
    def test_single_paragraph(self):
        tree = parse_html("<html><body><p>x</p></body></html>", "t")
        body = child_elements(tree.root)[0]
        p = child_elements(body)[0]
        assert tree.root.tag == "html"
        assert p.tag == "p"
        assert p.children == p.children and p.text_content() == "x"

    def test_unclosed_div_recovers_nesting(self):
        tree = parse_html('<div class="a"><div>y</div>', "t")
        assert tree.root.tag == "div"
        assert tree.root.class_attr == "a"
        inner = child_elements(tree.root)[0]
        assert inner.tag == "div"
        assert inner.text_content() == "y"

    def test_blank_input_rejected(self):
        with pytest.raises(EmptyInput):
            parse_html("", "t")
        with pytest.raises(EmptyInput):
            parse_html("   \n\t ", "t")

    def test_text_only_input_rejected(self):
        with pytest.raises(ParseFailure):
            parse_html("just words, no markup", "t")

    def test_multiple_top_level_elements_get_wrapped(self):
        tree = parse_html("<p>a</p><p>b</p>", "t")
        assert tree.root.tag == "html"
        assert [el.tag for el in child_elements(tree.root)] == ["p", "p"]

    def test_stray_end_tag_ignored(self):
        tree = parse_html("<div><p>a</p></span></div>", "t")
        assert tree.root.tag == "div"
        assert tree.root.text_content() == "a"

    def test_mis_nested_end_tag_closes_up_to_match(self):
        tree = parse_html("<div><b>x</div>tail", "t")
        assert tree.root.tag == "html"  # div plus loose tail text
        div = child_elements(tree.root)[0]
        assert child_elements(div)[0].tag == "b"

    def test_entities_resolved_at_parse(self):
        tree = parse_html("<p>a &amp; b</p>", "t")
        assert tree.root.text_content() == "a & b"

    def test_void_elements_do_not_swallow_siblings(self):
        tree = parse_html("<p>a<br>b</p>", "t")
        assert tree.root.text_content() == "ab"
        assert [el.tag for el in child_elements(tree.root)] == ["br"]

    def test_round_trip_same_structure(self):
        raw = '<div class="a">x<span>y</span>z</div>'
        tree = parse_html(raw, "t")
        again = parse_html(tree.to_html(), "t")
        assert shape(tree) == shape(again)


class TestPreprocess:
    """Preprocessing happens while parsing: the parser builds the cleaned tree."""

    def test_script_and_style_removed(self):
        clean = parse_html(
            "<html><head><style>.x{}</style></head>"
            "<body><script>var a=1;</script><p>x</p></body></html>",
            "t",
        )
        assert all(el.tag not in ("script", "style") for el in elements(clean.root))
        assert clean.text_content() == "x"

    def test_only_class_attribute_kept(self):
        clean = parse_html('<div id="a" class="b" style="c"><p title="q">x</p></div>', "t")
        assert clean.root.class_attr == "b"
        assert child_elements(clean.root)[0].class_attr is None

    def test_multi_class_string_kept_verbatim(self):
        clean = parse_html('<div class="a b  c">x</div>', "t")
        assert clean.root.class_attr == "a b  c"

    def test_comments_dropped(self):
        clean = parse_html("<div><!-- note --><p>x</p></div>", "t")
        assert all(isinstance(n, (ElementNode, TextNode)) for n in iter_nodes(clean.root))
        assert clean.to_html() == "<div><p>x</p></div>"

    def test_idempotent(self):
        once = parse_html(
            '<div id="i" class="c"><script>s</script><p>a &amp; b<!--x--></p></div>', "t"
        )
        assert shape(once) == shape(parse_html(once.to_html(), "t"))

    def test_never_grows_metrics(self):
        raw = (
            '<div id="i" class="c"><script>var long = "script body";</script>'
            "<p>a</p><style>.q{}</style></div>"
        )
        before = oracles.reference_measure(oracles.reference_parse(raw))
        after = measure(parse_html(raw, "t"))
        assert after.token_count <= before.token_count
        assert after.height <= before.height


class TestMeasure:
    def test_single_element_tokens_and_height(self):
        tree = parse_html("<p>hi</p>", "t")
        metrics = measure(tree)
        assert metrics.token_count == 3
        assert metrics.height == 1

    def test_empty_body_document(self):
        metrics = measure(parse_html("<body></body>", "t"))
        assert metrics.height == 1
        assert metrics.token_count == 2  # <body> </body>

    def test_height_counts_elements_only(self):
        tree = parse_html("<div><p>deep text here</p></div>", "t")
        assert measure(tree).height == 2

    def test_subtree_never_larger(self):
        tree = parse_html(
            '<html><body><div class="x"><p>v</p><p>w</p></div><p>t</p></body></html>', "t"
        )
        whole = measure(tree)
        for el in elements(tree.root):
            sub = measure(tree.subtree(el))
            assert sub.token_count <= whole.token_count
            assert sub.height <= whole.height

    def test_multiclass_attribute_tokens(self):
        # class="a b" splits on whitespace: <div + class="a + b"> = 3 tokens.
        assert measure(parse_html('<div class="a b">x</div>', "t")).token_count == 5


class TestSubtree:
    def test_subtree_is_a_view(self):
        tree = parse_html('<div><p>a</p><span class="s">x</span></div>', "t")
        span = next(el for el in elements(tree.root) if el.tag == "span")
        sub = tree.subtree(span)
        assert sub.root is span and sub.source_id == "t"
        assert sub.to_html() == '<span class="s">x</span>'
        # The view ends at its root although the page's parent of ``span`` is the div.
        assert sub.parents[span.order] is tree.root
        [document] = evaluate(sub, "/span/..")
        assert document is sub
        assert evaluate(sub, "//span/../..") == []
        assert evaluate(sub, "//span/ancestor::*") == []
        assert evaluate(sub, "//span/preceding-sibling::*") == []
        assert evaluate(sub, "//*") == [span]

    def test_subtree_nodes_subset_of_source(self):
        tree = parse_html("<div><p>a</p><p>b</p></div>", "t")
        source_ids = {id(n) for n in iter_nodes(tree.root)}
        p = child_elements(tree.root)[0]
        for node in iter_nodes(tree.subtree(p).root):
            assert id(node) in source_ids  # shared, not copied


class TestTagIndex:
    def test_a_view_shares_its_pages_index(self):
        page = parse_html("<div><p>a</p><p>b<b>c</b></p></div>", "t")
        view = page.subtree(child_elements(page.root)[1])
        assert view.tags is page.tags and view.subtree(view.root).tags is page.tags
        assert [e.tag for e in page.tags["p"][0]] == ["p", "p"]
        assert view.descendants(view, "p") == [view.root]
        assert view.descendants(view, "b") == page.descendants(view.root, "b")
        assert page.descendants(page, "table") == []

    @pytest.mark.parametrize("seed", range(3))
    def test_slices_match_a_filtered_scan(self, seed):
        # 3 x 60 random messy pages, whole and as views: every tag below
        # every node (text nodes too) and below the document node.
        rng = random.Random(seed)
        for index in range(60):
            page = parse_html(oracles.random_messy_page_html(rng), f"index-{index}")
            below_root = elements(page.root)[1:]
            views = [page.subtree(e) for e in rng.sample(below_root, min(2, len(below_root)))]
            for tree in [page, *views]:
                tags = {e.tag for e in elements(tree.root)} | {"table"}
                for node in [tree, *iter_nodes(tree.root)]:
                    below = list(iter_nodes(node))[1:] if node is not tree else elements(tree.root)
                    for tag in tags:
                        expected = [n for n in below if isinstance(n, ElementNode) and n.tag == tag]
                        assert tree.descendants(node, tag) == expected, (tree, node, tag)


def test_normalize_escapes():
    assert normalize_escapes("a &amp; b") == "a & b"
    assert normalize_escapes("6&#45;9") == "6-9"
    assert normalize_escapes("plain") == "plain"


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_preprocess_idempotent_and_monotone_on_random_pages(seed):
    rng = random.Random(seed)
    raw = oracles.random_messy_page_html(rng)
    once = parse_html(raw, f"fuzz-{seed}")
    assert parse_html(once.to_html(), "again").to_html() == once.to_html()
    before, after = oracles.reference_measure(oracles.reference_parse(raw)), measure(once)
    assert after.token_count <= before.token_count
    assert after.height <= before.height


@pytest.mark.parametrize("seed", range(3))
def test_walkers_match_the_recursive_reference(seed):
    # 3 x 120 random messy pages, parsed and cleaned, and a view of each.
    rng = random.Random(seed)
    for index in range(120):
        raw = oracles.random_messy_page_html(rng)
        tree = parse_html(raw, f"page-{index}")
        assert parsed_or_error(parse_html, raw) == parsed_or_error(reference_parse_html, raw)
        view = tree.subtree(rng.choice(elements(tree.root)))
        for t in (tree, view):
            assert t.to_html() == oracles.reference_to_html(t)
            assert measure(t) == oracles.reference_measure(t)


@pytest.mark.parametrize("raw", [
    # Top-level script, style and comments still count for the root choice.
    "<script>x</script>",
    " <style>a{}</style>\n",
    "<script>x</script><p>a</p>",
    "<p>a</p><style>b{}</style>",
    "loose <script>x</script>",
    "<!-- c -->",
    "<!-- c --><div>x</div>",
    "<div>x</div><!-- c -->tail",
    "<script>x</script><!-- c -->",
    "<div>a<!-- c -->b<script>s</script>c</div>",
    "<div><script>var a = '<p>';",
    # Self-closing script/style.
    "<script/>",
    "<style/><p>a</p>",
    "<div><script/>a</div>",
    # Uppercase, duplicate and valueless class attributes.
    '<DIV CLASS="a" ID="b">x</DIV>',
    '<div class="a" class="b" id="c">x</div>',
    '<p Class="x" title="t" CLASS="y">z</p>',
    "<div class>x</div>",
    # Declarations, processing instructions and CDATA sections.
    "<!DOCTYPE html><html><body>x</body></html>",
    "<?xml version='1.0'?><div>x</div>",
    "<div><![CDATA[x]]></div>",
    "<![CDATA[x]]><p>a</p>",
    "<!DOCTYPE html>",
])
def test_parse_matches_the_reference_on_edge_cases(raw):
    assert parsed_or_error(parse_html, raw) == parsed_or_error(reference_parse_html, raw)


class TestRenderOnce:
    @pytest.fixture
    def renders(self, monkeypatch):
        roots = []
        original = dom._render

        def counting(root):
            roots.append(root)
            return original(root)

        monkeypatch.setattr(dom, "_render", counting)
        return roots

    def test_measure_and_to_html_share_one_rendering(self, renders):
        tree = parse_html("<div><p>a b</p><p>c</p></div>", "t")
        for _ in range(3):
            assert measure(tree).token_count == 9
            assert tree.to_html() == "<div><p>a b</p><p>c</p></div>"
        assert renders == [tree.root]

    def test_a_view_renders_its_own_subtree(self, renders):
        tree = parse_html("<div><p>a b</p><p>c</p></div>", "t")
        view = tree.subtree(tree.root.children[1])
        assert view.to_html() == "<p>c</p>" and measure(view).height == 1
        assert tree.to_html() == "<div><p>a b</p><p>c</p></div>"
        assert renders == [view.root, tree.root]
