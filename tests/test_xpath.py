import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    TAGS,
    copied_subtree,
    elements,
    et_findall,
    mirror_etree,
    positional_xpath,
    random_literal_step,
    random_page_html,
    random_simple_xpath,
    reference_climb,
    reference_evaluate,
    reference_siblings,
    render_xpath,
)
from wrapsmith import xpath as xpath_module
from wrapsmith.dom import DocumentTree, ElementNode, TextNode, iter_nodes, parse_html
from wrapsmith.executor import normalize_values
from wrapsmith.xpath import (
    FUNCTIONS,
    AnyTest,
    AttributeValue,
    BinOp,
    FuncCall,
    Literal,
    NameTest,
    NodeTestAny,
    Number,
    Path,
    Step,
    TextTest,
    UnionExpr,
    XPathSyntaxError,
    climb,
    evaluate,
    parse_xpath,
    string_value,
)


def tree_of(html):
    return parse_html(html, "t")


def describe(node):
    """An element as its tag, an attribute as ``@value``, text as its repr."""
    if isinstance(node, AttributeValue):
        return f"@{node.value}"
    if isinstance(node, TextNode):
        return repr(node.text)
    return node.tag


class TestSelection:
    def test_descendant_by_tag(self):
        tree = tree_of("<html><body><div><p>a</p></div><p>b</p></body></html>")
        assert [string_value(n) for n in evaluate(tree, "//p")] == ["a", "b"]

    def test_class_predicate(self):
        tree = tree_of('<div><p class="x">a</p><p class="y">b</p></div>')
        assert [string_value(n) for n in evaluate(tree, "//p[@class='x']")] == ["a"]

    def test_document_order_and_dedup(self):
        tree = tree_of("<div><div><p>one</p></div><p>two</p></div>")
        values = [string_value(n) for n in evaluate(tree, "//div//p | //p")]
        assert values == ["one", "two"]

    def test_absolute_path_from_root(self):
        tree = tree_of("<html><body><p>x</p></body></html>")
        assert [n.tag for n in evaluate(tree, "/html/body/p")] == ["p"]
        assert evaluate(tree, "/body") == []

    def test_text_nodes(self):
        tree = tree_of("<div><b>Height:</b> 6-9 </div>")
        values = [string_value(n) for n in evaluate(tree, "//div/text()")]
        assert values == [" 6-9 "]

    def test_following_sibling_text(self):
        tree = tree_of("<div class='a'><b>Height:</b> 6-9 </div>")
        nodes = evaluate(tree, "//div[@class='a']/b/following-sibling::text()")
        assert normalize_values(string_value(n) for n in nodes) == ("6-9",)

    def test_preceding_sibling(self):
        tree = tree_of("<div><i>a</i><b>x</b><i>c</i></div>")
        nodes = evaluate(tree, "//b/preceding-sibling::i")
        assert [string_value(n) for n in nodes] == ["a"]

    def test_parent_step(self):
        tree = tree_of("<div><span>v</span></div>")
        assert [n.tag for n in evaluate(tree, "//div/span/..")] == ["div"]

    def test_parent_of_root_is_document(self):
        tree = tree_of("<div><span>v</span></div>")
        matches = evaluate(tree, "//div/..")
        assert len(matches) == 1
        assert matches[0] is tree

    def test_attribute_axis(self):
        tree = tree_of('<div class="a b"><p class="c">x</p></div>')
        values = [n.value for n in evaluate(tree, "//div/@class")]
        assert values == ["a b"]
        assert all(isinstance(n, AttributeValue) for n in evaluate(tree, "//p/@class"))

    def test_repeated_attribute_counts_once(self):
        tree = tree_of('<div><a class="x" class="y">v</a></div>')
        assert [n.value for n in evaluate(tree, "//a/@class")] == ["x"]
        assert evaluate(tree, "//a[@class='y']") == []
        assert tree.to_html() == '<div><a class="x">v</a></div>'

    def test_union_across_node_kinds_is_in_document_order(self):
        # Each attribute comes right after its element, before its children.
        tree = tree_of('<div class="d"><p class="q">a</p><div class="e"><p>b</p></div></div>')
        found = evaluate(tree, "//p | //div/@class | //div | //p/text()")
        assert [describe(n) for n in found] == [
            "div", "@d", "p", "'a'", "div", "@e", "p", "'b'",
        ]

    def test_wildcard(self):
        tree = tree_of("<div><p>a</p><span>b</span></div>")
        assert [n.tag for n in evaluate(tree, "//div/*")] == ["p", "span"]

    def test_positional_predicate(self):
        tree = tree_of("<ul><li>1</li><li>2</li><li>3</li></ul>")
        assert [string_value(n) for n in evaluate(tree, "//ul/li[2]")] == ["2"]
        assert [string_value(n) for n in evaluate(tree, "//ul/li[last()]")] == ["3"]

    def test_child_existence_predicate(self):
        tree = tree_of("<div><section><p>a</p></section><section>b</section></div>")
        assert [string_value(n) for n in evaluate(tree, "//section[p]")] == ["a"]

    def test_ancestor_axis(self):
        tree = tree_of('<div class="outer"><div class="inner"><p>x</p></div></div>')
        tags = [n.class_attr for n in evaluate(tree, "//p/ancestor::div")]
        assert tags == ["outer", "inner"]  # returned in document order


class TestPredicates:
    def test_contains_on_text(self):
        tree = tree_of("<div><b>Height: tall</b><b>Weight</b></div>")
        nodes = evaluate(tree, "//b[contains(text(),'Height:')]")
        assert [string_value(n) for n in nodes] == ["Height: tall"]

    def test_contains_on_attribute(self):
        tree = tree_of('<div class="row hrow">x</div><div class="row">y</div>')
        nodes = evaluate(tree, "//div[contains(@class,'hrow')]")
        assert [string_value(n) for n in nodes] == ["x"]

    def test_starts_with(self):
        tree = tree_of("<div><p>abc</p><p>xbc</p></div>")
        assert [string_value(n) for n in evaluate(tree, "//p[starts-with(text(),'a')]")] == ["abc"]

    def test_equality_existential_over_text_nodes(self):
        tree = tree_of("<div><p>a</p><p>b</p></div>")
        assert [string_value(n) for n in evaluate(tree, "//p[text()='b']")] == ["b"]

    def test_dot_string_value(self):
        tree = tree_of("<div><p><b>a</b>b</p><p>c</p></div>")
        assert [string_value(n) for n in evaluate(tree, "//p[.='ab']")] == ["ab"]

    def test_not_function(self):
        tree = tree_of('<div><p class="x">a</p><p>b</p></div>')
        assert [string_value(n) for n in evaluate(tree, "//p[not(@class)]")] == ["b"]

    def test_and_or(self):
        tree = tree_of(
            '<div><p class="x">a</p><p class="y">b</p><p class="z">c</p></div>'
        )
        values = [
            string_value(n)
            for n in evaluate(tree, "//p[@class='x' or @class='z']")
        ]
        assert values == ["a", "c"]
        values = [
            string_value(n)
            for n in evaluate(tree, "//p[@class and contains(text(),'b')]")
        ]
        assert values == ["b"]

    def test_count_and_position(self):
        tree = tree_of("<ul><li>1</li><li>2</li><li>3</li></ul>")
        assert [string_value(n) for n in evaluate(tree, "//ul[count(li)=3]/li[position()<3]")] == [
            "1",
            "2",
        ]


SPEC_TABLE = (
    "<table>"
    "<tr><th>A</th><td>a1</td><td>a2</td></tr>"
    "<tr><th>B</th><td>b1</td></tr>"
    "<tr><th>C</th><td class='x'>c1</td><td>c2</td><td class='x'>c3</td></tr>"
    "</table>"
)


class TestLeadingPosition:
    """A step whose first predicate is ``[k]`` stops at its k-th match."""

    def values(self, html, expression):
        return [string_value(n) for n in evaluate(tree_of(html), expression)]

    def test_following_sibling_first(self):
        assert self.values(SPEC_TABLE, "//th/following-sibling::td[1]") == ["a1", "b1", "c1"]

    def test_preceding_sibling_counts_nearest_first(self):
        assert self.values(SPEC_TABLE, "//tr[3]/preceding-sibling::tr[1]/th") == ["B"]
        assert self.values(SPEC_TABLE, "//tr[3]/preceding-sibling::tr[2]/th") == ["A"]
        assert self.values(SPEC_TABLE, "//tr[preceding-sibling::tr[1]/th='B']/th") == ["C"]

    def test_ancestor_counts_nearest_first(self):
        html = "<div class='a'><div class='b'><div class='c'><p>x</p></div></div></div>"
        nodes = evaluate(tree_of(html), "//p/ancestor::div[2]")
        assert [n.class_attr for n in nodes] == ["b"]

    @pytest.mark.parametrize("k", ["0", "1.5", "99"])
    def test_out_of_range_or_fractional_is_empty(self, k):
        assert self.values(SPEC_TABLE, f"//tr/td[{k}]") == []

    def test_repeated_first(self):
        assert self.values(SPEC_TABLE, "//tr[3]/td[1][1]") == ["c1"]
        assert self.values(SPEC_TABLE, "//tr/td[2][1]") == ["a2", "c2"]

    def test_later_predicates_see_the_single_node(self):
        assert self.values(SPEC_TABLE, "//tr[3]/td[2][@class='x']") == []
        assert self.values(SPEC_TABLE, "//tr[3]/td[@class='x'][2]") == ["c3"]
        assert self.values(SPEC_TABLE, "//tr[3]/td[3][@class='x']") == ["c3"]

    def test_last_and_position_stay_on_the_general_path(self, monkeypatch):
        # On a view of the third row, ``/tr`` scans one node, then the row's
        # ``th, td, td, td``: all four, or up to the second ``td`` for [2].
        scanned = []
        original = xpath_module._axis_candidates

        def counting(node, axis, document):
            for candidate in original(node, axis, document):
                scanned.append(candidate)
                yield candidate

        monkeypatch.setattr(xpath_module, "_axis_candidates", counting)
        tree = tree_of(SPEC_TABLE)
        row = tree.subtree(tree.root.children[2])
        for predicate, value, count in [("last()", "c3", 5), ("position()=2", "c2", 5), ("2", "c2", 4)]:
            scanned.clear()
            assert [string_value(n) for n in evaluate(row, f"/tr/td[{predicate}]")] == [value]
            assert len(scanned) == count, predicate


class TestErrors:
    @pytest.mark.parametrize(
        "expression",
        ["//div[", "", "   ", "//div]__", "//div[@class=]", "//p/substring(1)",
         "//p[normalize-space(text())='x']", "//p[unknownfn(text())]"],
    )
    def test_invalid_expressions_raise(self, expression):
        with pytest.raises(XPathSyntaxError):
            parse_xpath(expression)

    def test_rejected_dialect_functions(self):
        with pytest.raises(XPathSyntaxError):
            parse_xpath("//p[substring(text(),1,2)='ab']")

    def test_empty_selection_is_empty_list(self):
        tree = tree_of("<div><p>a</p></div>")
        assert evaluate(tree, "//*[@class='nonexistent']") == []


ANY_DESCENDANT = Step("descendant-or-self", NodeTestAny())


def child(name, *predicates):
    return Step("child", NameTest(name), predicates)


def relative(*steps):
    return Path(False, steps)


class TestParser:
    @pytest.mark.parametrize(
        "expression, paths",
        [
            ("//a", (Path(True, (ANY_DESCENDANT, child("a"))),)),
            ("a//b/c", (relative(child("a"), ANY_DESCENDANT, child("b"), child("c")),)),
            ("/", (Path(True, ()),)),
            ("/ | //*", (Path(True, ()), Path(True, (ANY_DESCENDANT, Step("child", AnyTest()))))),
            ("../.", (relative(Step("parent", NodeTestAny()), Step("self", NodeTestAny())),)),
            ("@class", (relative(Step("attribute", NameTest("class"))),)),
            ("following-sibling :: text()",
             (relative(Step("following-sibling", TextTest())),)),
        ],
    )
    def test_paths(self, expression, paths):
        assert parse_xpath(expression) == UnionExpr(paths)

    @pytest.mark.parametrize(
        "predicate, expected",
        [
            # 'and' binds tighter than 'or', a comparison tighter than 'and'.
            ("a or b and c = 'x'",
             BinOp("or", relative(child("a")),
                   BinOp("and", relative(child("b")), BinOp("=", relative(child("c")), Literal("x"))))),
            ("(a or b) and 1", BinOp("and", BinOp("or", relative(child("a")), relative(child("b"))),
                                     Number(1.0))),
            ("a and b and c", BinOp("and", BinOp("and", relative(child("a")), relative(child("b"))),
                                    relative(child("c")))),
            # A bare 'and' in operand position is a name test.
            ("and and or", BinOp("and", relative(child("and")), relative(child("or")))),
            ("contains(., \"it's\")",
             FuncCall("contains", (relative(Step("self", NodeTestAny())), Literal("it's")))),
            ("string() != 2.5", BinOp("!=", FuncCall("string", ()), Number(2.5))),
            ("text", relative(child("text"))),
        ],
    )
    def test_predicates(self, predicate, expected):
        (path,) = parse_xpath(f"p[{predicate}]").paths
        assert path == relative(child("p", expected))

    @pytest.mark.parametrize(
        "expression",
        ["p[a = b = c]", "p[a and]", "p[count()]", "p[string(a, b)]", "p[f(a)]", "bogus::p",
         "child::child::p", "@child::p", "p[a,]", "p[(a]", "p | ", "p/", "comment()", "p[1.]"],
    )
    def test_rejected(self, expression):
        with pytest.raises(XPathSyntaxError):
            parse_xpath(expression)


def _functions(children):
    def call(name):
        arity = FUNCTIONS[name]
        sizes = st.integers(0, 1) if arity < 0 else st.just(arity)
        return sizes.flatmap(
            lambda n: st.lists(children, min_size=n, max_size=n)
        ).map(lambda args: FuncCall(name, tuple(args)))

    return st.sampled_from(sorted(FUNCTIONS)).flatmap(call)


def _paths(predicates):
    """Paths whose steps draw their predicate tuples from ``predicates``."""
    names = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_.-]{0,5}", fullmatch=True)
    tests = st.one_of(names.map(NameTest), st.sampled_from([AnyTest(), TextTest(), NodeTestAny()]))
    step = st.builds(
        Step,
        st.sampled_from(sorted(xpath_module._AXES)),
        tests,
        predicates,
    )
    return st.one_of(
        st.just(Path(True, ())),
        st.builds(Path, st.booleans(), st.lists(step, min_size=1, max_size=3).map(tuple)),
    )


_SCALARS = st.one_of(
    st.text("ab' \"]|/:", max_size=6).filter(lambda v: not ("'" in v and '"' in v)).map(Literal),
    st.integers(0, 10**6).map(lambda n: Number(n / 100)),
)
_EXPRESSIONS = st.recursive(
    st.one_of(_SCALARS, _paths(st.just(()))),
    lambda children: st.one_of(
        _functions(children),
        st.builds(BinOp, st.sampled_from(["or", "and", "=", "!=", "<", "<=", ">", ">="]),
                  children, children),
        _paths(st.lists(children, max_size=2).map(tuple)),
    ),
    max_leaves=12,
)
_UNIONS = st.lists(_paths(st.lists(_EXPRESSIONS, max_size=2).map(tuple)), min_size=1, max_size=3).map(
    lambda paths: UnionExpr(tuple(paths))
)


@settings(max_examples=300, deadline=None)
@given(_UNIONS)
def test_parse_reads_back_the_unparsed_ast(ast):
    assert parse_xpath(render_xpath(ast)) == ast


_VOCABULARY = [
    "/", "//", "..", ".", "@", "*", "[", "]", "(", ")", "|", ",", "=", "!=", "<", "<=", ">",
    ">=", " and ", " or ", "and", "child::", "attribute ::", "bogus::", "p", "a.b", "text",
    "node", "contains", "count", "string", "not", "last", "'a'", '"b"', "1", "2.5", " ",
    "text()", "$", "'",
]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_VOCABULARY), max_size=12).map("".join))
def test_token_soup_parses_or_raises_a_syntax_error(expression):
    try:
        ast = parse_xpath(expression)
    except XPathSyntaxError:
        return
    assert parse_xpath(render_xpath(ast)) == ast


class TestOracleEquivalence:
    def test_against_elementtree_small_batch(self):
        rng = random.Random(20)
        for round_ in range(25):
            tree = parse_html(random_page_html(rng), f"fuzz-{round_}")
            doc, lookup, et_order = mirror_etree(tree)
            for _ in range(8):
                expression = random_simple_xpath(rng)
                mine = evaluate(tree, expression)
                mirrored = [lookup[id(node)] for node in mine]
                assert mirrored == et_findall(doc, expression, et_order), expression


@pytest.mark.parametrize("seed", range(3))
def test_unions_across_node_kinds_match_a_walk(seed):
    # 3 x 60 random pages x 10 unions of ``//T``, ``//T/@class`` and
    # ``//T/text()`` branches, against a filter over the pre-order walk in
    # which each element's attribute follows the element itself.
    rng = random.Random(seed)
    for index in range(60):
        tree = parse_html(random_page_html(rng), f"kinds-{index}")
        nodes = list(iter_nodes(tree.root))
        parent_of = {id(child): node for node in nodes for child in node.children}
        for _ in range(10):
            branches = {
                (rng.choice(["", "/@class", "/text()"]), rng.choice(TAGS + ["body"]))
                for _ in range(rng.randint(1, 4))
            }
            expected = []
            for node in nodes:
                if isinstance(node, ElementNode):
                    if ("", node.tag) in branches:
                        expected.append(node)
                    if ("/@class", node.tag) in branches and node.class_attr is not None:
                        expected.append(("@", node))
                elif ("/text()", parent_of[id(node)].tag) in branches:
                    expected.append(node)
            expression = " | ".join(f"//{tag}{tail}" for tail, tag in sorted(branches))
            found = [
                ("@", n.owner) if isinstance(n, AttributeValue) else n
                for n in evaluate(tree, expression)
            ]
            assert found == expected, expression


SIBLING_STEPS = [
    "following-sibling::{u}", "following-sibling::{u}[{k}]",
    "preceding-sibling::{u}[{k}]", "preceding-sibling::node()[{k}]",
]


@pytest.mark.parametrize("seed", range(3))
def test_sibling_steps_match_a_scan_of_the_parents_children(seed):
    # 3 x 60 random pages, each whole and as up to 3 views, x 8 random
    # ``//T/<sibling step>`` expressions, against the reference scan.
    rng = random.Random(seed)
    for index in range(60):
        page = parse_html(random_page_html(rng), f"siblings-{index}")
        below_root = elements(page.root)[1:]
        views = [page.subtree(e) for e in rng.sample(below_root, min(3, len(below_root)))]
        for tree in [page, *views]:
            walk = list(iter_nodes(tree.root))
            rank = {id(node): i for i, node in enumerate(walk)}
            for _ in range(8):
                step = rng.choice(SIBLING_STEPS)
                t, u, k = rng.choice(TAGS), rng.choice(TAGS + ["*"]), rng.randint(1, 3)
                axis = step.split("::")[0]
                expected = {}
                for context in walk:
                    if not (isinstance(context, ElementNode) and context.tag == t):
                        continue
                    found = [
                        n for n in reference_siblings(tree, context, axis)
                        if "node()" in step
                        or isinstance(n, ElementNode) and u in ("*", n.tag)
                    ]
                    if "[" in step:
                        found = found[k - 1:k]
                    expected.update((id(n), n) for n in found)
                expression = f"//{t}/" + step.format(u=u, k=k)
                mine = [id(n) for n in evaluate(tree, expression)]
                assert mine == sorted(expected, key=rank.__getitem__), expression


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_parent_append_selects_parent(seed):
    rng = random.Random(seed)
    tree = parse_html(random_page_html(rng), f"fuzz-{seed}")
    below_root = elements(tree.root)[1:]
    if not below_root:
        return
    target = rng.choice(below_root)
    expression = positional_xpath(tree, target)
    matches = evaluate(tree, expression)
    assert matches == [target]
    parents = evaluate(tree, expression + "/..")
    assert parents == [tree.parents[target.order]]


# Expressions that reach the edge of a pruned tree: its root's parent, its
# ancestors and siblings, and the whole-tree scans.
VIEW_EXPRESSIONS = [
    "/", "/..", "/*", "/*/..", "/*/../..", ".", "..",
    "//*", "//text()", "//node()", "//*/..", "//*/../..", "//p/..", "//text()/..",
    "//*/ancestor::*", "//*/ancestor-or-self::*", "//div/ancestor::*[1]",
    "//text()/ancestor::*[2]", "//*/preceding-sibling::*", "//*/following-sibling::*",
    "//*/following-sibling::node()", "//li/preceding-sibling::*[1]",
    "/*/preceding-sibling::node()", "/*/following-sibling::*", "//*[not(..)]",
    "//*[../..]", "//*[count(ancestor::*)=0]", "//*[ancestor::div]/text()",
    "//*[last()]/..", "//*[@class]/@class", "//*[@class='a']/../*",
    "//p[contains(., 'alpha')]/..", "//b | //*/..", "//span/../../..",
    "/descendant::*[1]/parent::node()",
]


def _view_differences(rng, pages, per_page):
    """Evaluate every expression on a view and on a copy of the same subtree;
    return the mismatches and the number of evaluations."""
    differences, evaluations = [], 0
    for index in range(pages):
        page = parse_html(random_page_html(rng), f"view-{index}")
        candidates = elements(page.root)
        for element in rng.sample(candidates, min(per_page, len(candidates))):
            view, copy = page.subtree(element), copied_subtree(page, element)
            to_view = dict(zip(map(id, iter_nodes(copy.root)), iter_nodes(view.root)))

            def key(node, node_of=lambda n: n):
                """A node of either tree as the view's node it stands for."""
                if node is None:
                    return None
                if isinstance(node, DocumentTree):
                    return "document"
                if isinstance(node, AttributeValue):
                    return (node_of(node.owner), node.name, node.value)
                return node_of(node)

            def from_copy(node):
                return key(node, lambda n: to_view[id(n)])

            for expression in VIEW_EXPRESSIONS:
                evaluations += 1
                mine = [key(n) for n in evaluate(view, expression)]
                mine += ["climb"] + [key(n) for n in climb(view, expression)]
                reference = [from_copy(n) for n in evaluate(copy, expression)]
                reference += ["climb"] + [from_copy(n) for n in climb(copy, expression)]
                if mine != reference:
                    differences.append((page.source_id, element.tag, expression))
    return differences, evaluations


def test_pruned_views_evaluate_like_copies():
    # Each (page, element, expression) evaluates and climbs on both trees.
    differences, evaluations = _view_differences(random.Random(9), pages=140, per_page=8)
    assert evaluations >= 30_000
    assert differences == []


# Forms the ``//T`` rewrite must leave alone or get right: positions and
# sizes at a predicate's top level or inside a function, a nested path's
# own positions, non-element tests, and ``//`` from text and attributes.
PLAN_FORMS = [
    "//li[2]", "//*[last()]", "//p[count(b)]", "//p[position()=1]", "//p[not(position()=1)]",
    "//text()[1]", "//@class", "//..", "//div//span[1]", "//div//span", "//div//span/..",
    "//text()//b", "//@class//b", "//p/text()//b", "//*[@class]//b", "//p[.//b]",
    "//*[@class='']", "//*['' = @class]", "//p[@class='a'][1]", "//p[1][@class='a']",
    "//div[b[1]]", "//div[b[last()]]", "//div[string(last())='1']", "//b[position()]",
    "//node()", "//node()[2]", "//*[2]/@class", "//div//*[2]", "//ul[li][2]", "//a//text()[2]",
    "//*[count(../*)=2]", "//@*", "//text()", "/descendant::p[2]", "/descendant::*[last()]",
    "//p | //p[1]", "//span/..//b", "//*[../b]", "//*[ancestor::div][1]", "//p[starts-with(., 'a')]",
    "//li[@class='x y']/following-sibling::*[1]", "//*[@CLASS='a']", "//*[@class=1]",
    "//b[. = ../b]", "//div[b = true()]", "//div[count(b) > 1]", "//*[last() > 1 and @class]",
]


def _plan_differences(rng, pages):
    """Evaluate and climb with plans and with the reference interpreter on
    random pages and views; return the mismatches and the number of
    (tree, expression) pairs compared."""

    def outcome(function, tree, expression):
        try:
            return [
                ("@", id(n.owner)) if isinstance(n, AttributeValue) else id(n)
                for n in function(tree, expression)
            ]
        except XPathSyntaxError:
            return "XPathSyntaxError"

    def climbed(climb_function):
        return lambda tree, expression: list(climb_function(tree, expression))

    differences, compared = [], 0
    for index in range(pages):
        page = parse_html(random_page_html(rng), f"plan-{index}")
        below_root = elements(page.root)[1:]
        views = [page.subtree(e) for e in rng.sample(below_root, min(2, len(below_root)))]
        expressions = PLAN_FORMS + [random_simple_xpath(rng) for _ in range(10)]
        expressions += [random_literal_step(rng) for _ in range(25)]
        for tree in [page, *views]:
            for expression in expressions:
                compared += 1
                for mine, reference in ((evaluate, reference_evaluate),
                                        (climbed(climb), climbed(reference_climb))):
                    if outcome(mine, tree, expression) != outcome(reference, tree, expression):
                        differences.append((page.source_id, tree.root.tag, expression))
    return differences, compared


def test_plans_select_what_the_interpreter_did():
    # Node identity against the interpreter that plans replaced, on whole
    # pages and on views, for evaluate and climb alike.
    differences, compared = _plan_differences(random.Random(26), pages=130)
    assert compared >= 30_000
    assert differences == []


class TestLazyErrors:
    TREE = "<div><p>a</p><p>b</p></div>"

    def test_count_of_a_string_raises_only_when_evaluated(self):
        tree = tree_of(self.TREE)
        assert evaluate(tree, "//p[false() and count('x')]") == []
        assert [string_value(n) for n in evaluate(tree, "//p[true() or count('x')]")] == ["a", "b"]
        assert evaluate(tree, "//b[count('x')]") == []  # no candidate, no evaluation
        with pytest.raises(XPathSyntaxError, match="node-set"):
            evaluate(tree, "//p[true() and count('x')]")


HUGE = "9" * 309  # more than a float holds: the literal reads as inf


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("expression", [
        f"//p[{HUGE}]", f"//p[@class][{HUGE}]", f"//div/p[{HUGE}]", f"//p[contains(., {HUGE})]",
        f"//p[string({HUGE}) = 'x']", f"//p[. = {HUGE}]", f"//p[{'1' * 309}]",
    ])
    def test_select_nothing(self, expression):
        tree = tree_of("<div><p class='c'>a</p><p>1</p></div>")
        assert evaluate(tree, expression) == []

    def test_infinity_as_a_string(self):
        tree = tree_of("<div><p>Infinity</p><p>1</p></div>")
        assert [string_value(n) for n in evaluate(tree, f"//p[string({HUGE}) = .]")] == ["Infinity"]
        assert [string_value(n) for n in evaluate(tree, f"//p[contains('-Infinity!', string({HUGE}))]")] == [
            "Infinity", "1",
        ]

    @pytest.mark.parametrize("value, text", [
        (float("inf"), "Infinity"), (float("-inf"), "-Infinity"), (float("nan"), "NaN"),
        (3.0, "3"), (2.5, "2.5"), (-0.0, "0"),
    ])
    def test_number_to_string(self, value, text):
        assert xpath_module._to_string(value) == text
