import random
from collections import Counter

import pytest

from oracles import child_elements, random_literal_step, reference_literal_predicates
from wrapsmith.dataset import from_record, to_record
from wrapsmith.dom import measure, parse_html
from wrapsmith.xpath import XPathSyntaxError
from wrapsmith.executor import (
    ActionSequence,
    ExtractionStatus,
    Provenance,
    eval_text,
    extract,
    literal_predicates,
    normalize_value,
    normalize_values,
    prune,
)

PROV = Provenance("seed-1", "progressive")


def seq(*steps):
    return ActionSequence(tuple(steps), PROV)


class TestEvalText:
    def test_following_sibling_value(self):
        tree = parse_html("<div class='a'><b>Height:</b> 6-9 </div>", "t")
        result = eval_text(tree, "//div[@class='a']/b/following-sibling::text()")
        assert result.ok and result.values == ("6-9",)

    def test_no_match(self):
        tree = parse_html("<div><p>x</p></div>", "t")
        assert eval_text(tree, "//*[@class='nonexistent']").status is ExtractionStatus.NO_MATCH

    def test_invalid_xpath(self):
        tree = parse_html("<div><p>x</p></div>", "t")
        assert eval_text(tree, "//div[").status is ExtractionStatus.INVALID_XPATH

    @pytest.mark.parametrize(
        "expression",
        ["//p[" + "(" * 1000 + "1" + ")" * 1000 + "]", "//p" + "[p" * 1000 + "]" * 1000],
        ids=["parentheses", "predicates"],
    )
    def test_too_deeply_nested_is_invalid(self, expression):
        tree = parse_html("<div><p>x</p></div>", "t")
        assert eval_text(tree, expression).status is ExtractionStatus.INVALID_XPATH

    def test_moderate_nesting_evaluates(self):
        tree = parse_html("<div><p>x</p><p>y</p></div>", "t")
        assert eval_text(tree, "//p[" + "(" * 50 + "2" + ")" * 50 + "]").values == ("y",)
        deep = eval_text(tree, "//div" + "[p" * 30 + "]" * 30)
        assert deep.status is ExtractionStatus.NO_MATCH

    def test_element_match_uses_string_value(self):
        tree = parse_html("<div><p>a <b>b</b> c</p></div>", "t")
        assert eval_text(tree, "//p").values == ("a b c",)

    def test_matched_empty_node_gives_ok_and_no_values(self):
        tree = parse_html("<div><p></p></div>", "t")
        result = eval_text(tree, "//p")
        assert result.ok and result.values == ()

    def test_attribute_values(self):
        tree = parse_html('<div class="a"><p class="b">x</p></div>', "t")
        assert eval_text(tree, "//p/@class").values == ("b",)


class TestEvalNode:
    def test_selects_first_element_subtree(self):
        tree = parse_html(
            "<body><div class='x'><p>v</p></div><div class='x'><p>w</p></div></body>", "t"
        )
        node = prune(tree, "//div[@class='x']")
        assert node is child_elements(tree.root)[0]
        assert tree.subtree(node).to_html() == '<div class="x"><p>v</p></div>'

    def test_parent_step(self):
        tree = parse_html("<div><span>v</span></div>", "t")
        assert prune(tree, "//div/span/..") is tree.root

    def test_no_match_is_none(self):
        tree = parse_html("<div><p>x</p></div>", "t")
        assert prune(tree, "//section") is None

    def test_text_match_is_none(self):
        tree = parse_html("<div><p>x</p></div>", "t")
        assert prune(tree, "//p/text()") is None

    def test_invalid_raises(self):
        tree = parse_html("<div><p>x</p></div>", "t")
        with pytest.raises(XPathSyntaxError):
            prune(tree, "//div[")

    def test_root_parent_is_noop_with_signal(self):
        tree = parse_html("<div><p>x</p></div>", "t")
        assert prune(tree, "//div/..") is tree.root
        assert prune(tree, "/") is tree.root

    def test_metrics_shrink_along_pruning(self):
        tree = parse_html(
            "<html><body><div class='x'><p>v</p></div><p>junk</p></body></html>", "t"
        )
        sub = tree.subtree(prune(tree, "//div[@class='x']"))
        assert measure(sub).token_count < measure(tree).token_count


class TestRunSequence:
    def test_single_step_equals_eval_text(self, player_page):
        expression = "//span[@class='val']/text()"
        assert extract(player_page, seq(expression)) == eval_text(player_page, expression)

    def test_prune_then_extract_matches_compound(self, player_page):
        split = extract(
            player_page, seq("//div[@class='hrow']", "//span[@class='val']/text()")
        )
        compound = eval_text(player_page, "//div[@class='hrow']//span[@class='val']/text()")
        assert split.values == compound.values == ("6-9",)
        # Steps that keep the root, including a climb past it, change nothing.
        kept = extract(player_page, seq("/html", "//body/..", "//div[@class='hrow']",
                                        "//span[@class='val']/text()"))
        assert kept == split

    def test_failing_prune_reports_step_index(self, player_page):
        result = extract(player_page, seq("//section", "//p/text()"))
        assert result.status is ExtractionStatus.NO_MATCH
        assert result.failed_step == 0

    def test_invalid_step_reports_index(self, player_page):
        result = extract(player_page, seq("//div[@class='hrow']", "//p["))
        assert result.status is ExtractionStatus.INVALID_XPATH
        assert result.failed_step == 1

    def test_pruning_step_failures_report_index(self, player_page):
        invalid = extract(player_page, seq("//div[@class='hrow']", "//p[", "//b/text()"))
        assert (invalid.status, invalid.failed_step) == (ExtractionStatus.INVALID_XPATH, 1)
        text = extract(player_page, seq("//b/text()", "//b/text()"))
        assert (text.status, text.failed_step) == (ExtractionStatus.NO_MATCH, 0)

    def test_extract_treats_empty_sequence_as_absence(self, player_page):
        result = extract(player_page, seq())
        assert result.ok and result.values == ()

    def test_prefix_trees_shrink_monotonically(self, player_page):
        sequence = seq("//div[@class='stats']", "//div[@class='hrow']", "//span/text()")
        tree = player_page
        tokens = [measure(tree).token_count]
        for step in sequence.pruning_steps:
            tree = tree.subtree(prune(tree, step))
            tokens.append(measure(tree).token_count)
        assert tokens == sorted(tokens, reverse=True)
        assert extract(player_page, sequence).values == ("6-9",)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        import json

        sequence = seq("//div[@class='x']", "//p/text()")
        record = json.dumps(to_record(sequence), sort_keys=True)
        rebuilt = from_record(ActionSequence, json.loads(record))
        assert rebuilt == sequence
        assert json.dumps(to_record(rebuilt), sort_keys=True) == record

    def test_unicode_steps_survive(self):
        sequence = seq("//b[contains(text(),'身長')]")
        rebuilt = from_record(ActionSequence, to_record(sequence))
        assert rebuilt.steps == sequence.steps


class TestClassifyPredicates:
    def test_contains_only(self):
        assert literal_predicates(seq("//b[contains(text(),'Height:')]")) == [("contains", False)]

    def test_fragile_phone_literal(self):
        pairs = literal_predicates(seq("//h5[contains(text(), '703-528-7809')]"))
        assert pairs == [("contains", True)]

    def test_attribute_equality(self):
        assert literal_predicates(seq("//div[@class='a']")) == [("equal", False)]

    def test_attribute_literals_never_fragile(self):
        pairs = literal_predicates(seq("//div[@class='gray200B-dyContent-360004']"))
        assert pairs == [("equal", False)]

    def test_fragile_equal_on_text(self):
        assert literal_predicates(seq("//p[text()='order 123456789']")) == [("equal", True)]

    def test_long_literal_flagged(self):
        pairs = literal_predicates(seq("//p[contains(text(),'a very long page specific sentence')]"))
        assert pairs == [("contains", True)]

    def test_fragility_thresholds(self):
        def fragile(literal):
            [(_, flag)] = literal_predicates(seq(f"//p[contains(text(), '{literal}')]"))
            return flag

        assert not fragile("ab123") and fragile("ab1234")
        assert not fragile("x" * 20) and fragile("x" * 21)

    def test_unparseable_step_is_skipped(self):
        assert literal_predicates(seq("//div[")) == []
        sequence = seq("//div[", "//div[@class='a']", "//p[substring(., 1)]")
        assert literal_predicates(sequence) == [("equal", False)]

    def test_sequence_merge(self):
        sequence = seq("//div[@class='a']", "//b[contains(text(),'Height:')]/text()")
        assert sorted(literal_predicates(sequence)) == [("contains", False), ("equal", False)]

    def test_matches_the_two_walk_reference_on_random_sequences(self):
        rng = random.Random(16)
        seen = Counter()
        for _ in range(3000):
            sequence = seq(*(random_literal_step(rng) for _ in range(rng.randint(1, 3))))
            contains, equal, kinds = reference_literal_predicates(sequence)
            pairs = literal_predicates(sequence)
            assert sum(kind == "contains" for kind, _ in pairs) == contains, sequence.steps
            assert sum(kind == "equal" for kind, _ in pairs) == equal, sequence.steps
            assert sorted(kind for kind, fragile in pairs if fragile) == sorted(kinds), sequence.steps
            seen["with predicates"] += bool(contains or equal)
            seen.update(kinds)
        assert seen["with predicates"] > 2000 and min(seen["contains"], seen["equal"]) > 400, seen


def test_normalization():
    assert normalize_value("  6-9 \n") == "6-9"
    assert normalize_value("a   b\tc") == "a b c"
    assert normalize_values(["", " ", "x ", "x"]) == ("x", "x")
