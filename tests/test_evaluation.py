import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrapsmith.evaluation import (
    EmptyCase,
    Label,
    aggregate,
    classify_case,
)


def score_page(extracted, gold):
    """Precision and recall of the one page of a one-page case."""
    page = classify_case("case", [(extracted, gold)]).pages[0]
    return page.precision, page.recall


class TestScorePage:
    def test_exact_match(self):
        assert score_page(["a"], ["a"]) == (1.0, 1.0)

    def test_extra_extraction(self):
        assert score_page(["a", "b"], ["a"]) == (0.5, 1.0)

    def test_empty_extraction(self):
        assert score_page([], ["a"]) == (None, 0.0)

    def test_empty_gold(self):
        assert score_page(["a"], []) == (0.0, None)

    def test_both_empty(self):
        assert score_page([], []) == (None, None)

    def test_set_semantics_ignore_duplicates_and_labels(self):
        assert score_page(["a", "a"], ["a"]) == (1.0, 1.0)
        p1 = score_page(["x", "y"], ["y", "z"])
        p2 = score_page(["y", "x"], ["z", "y"])
        assert p1 == p2

    def test_normalization_applies(self):
        assert score_page(["  a  b "], ["a b"]) == (1.0, 1.0)


def case(*pages):
    return classify_case("case", list(pages))


class TestClassifyCase:
    def test_all_pages_exact_is_correct(self):
        outcome = case((["a"], ["a"]), (["b"], ["b"]))
        assert outcome.label is Label.CORRECT
        assert outcome.precision == outcome.recall == 1.0

    def test_superset_extraction_is_reca(self):
        outcome = case((["a", "x"], ["a"]), (["b", "y"], ["b"]))
        assert outcome.label is Label.RECA
        assert outcome.recall == 1.0 and outcome.precision < 1.0

    def test_subset_extraction_is_prec(self):
        outcome = case((["a"], ["a", "x"]),)
        assert outcome.label is Label.PREC
        assert outcome.precision == 1.0 and outcome.recall < 1.0

    def test_nothing_found_is_unex(self):
        outcome = case(([], ["a"]), ([], ["b"]))
        assert outcome.label is Label.UNEX
        assert outcome.recall == 0.0

    def test_wrong_values_everywhere_is_unex(self):
        outcome = case((["x"], ["a"]),)
        assert outcome.label is Label.UNEX

    def test_extraction_with_empty_gold_is_over(self):
        outcome = case((["a"], []), (["b"], []))
        assert outcome.label is Label.OVER
        assert outcome.precision == 0.0 and outcome.recall is None

    def test_absence_predicted_everywhere_is_correct(self):
        outcome = case(([], []), ([], []))
        assert outcome.label is Label.CORRECT
        assert outcome.precision == outcome.recall == 1.0

    def test_partial_overlap_is_else(self):
        outcome = case((["a", "x"], ["a", "b"]),)
        assert outcome.label is Label.ELSE

    def test_page_order_invariant(self):
        pages = [(["a"], ["a"]), (["x"], ["b"]), ([], ["c"])]
        a = classify_case("c", pages)
        b = classify_case("c", list(reversed(pages)))
        assert a.label is b.label
        assert a.precision == b.precision and a.recall == b.recall

    def test_micro_aggregation_across_pages(self):
        # 3 hits out of 4 extracted and 3 gold -> P=0.75, R=1.
        outcome = case((["a", "x"], ["a"]), (["b"], ["b"]), (["c"], ["c"]))
        assert outcome.label is Label.RECA
        assert outcome.precision == pytest.approx(0.75)

    def test_empty_case_rejected(self):
        with pytest.raises(EmptyCase):
            classify_case("c", [])

    def test_both_empty_pages_do_not_poison_other_pages(self):
        outcome = case(([], []), (["a"], ["a"]))
        assert outcome.label is Label.CORRECT


class TestAggregate:
    def outcome_with(self, label_pages, case_id="c"):
        return classify_case(case_id, label_pages)

    def test_ratio_counting(self):
        outcomes = [
            self.outcome_with([(["a"], ["a"])]),          # Correct
            self.outcome_with([(["b"], ["b"])]),          # Correct
            self.outcome_with([([], ["a"])]),             # Unex
            self.outcome_with([(["a", "x"], ["a", "b"])]),  # Else
        ]
        report = aggregate(outcomes)
        assert report.ratios[Label.CORRECT] == 0.5
        assert report.ratios[Label.UNEX] == 0.25
        assert report.ratios[Label.ELSE] == 0.25
        assert report.ratios[Label.PREC] == 0.0

    def test_all_correct_macro_f1(self):
        outcomes = [self.outcome_with([(["a"], ["a"])]) for _ in range(3)]
        report = aggregate(outcomes)
        assert report.macro_f1 == 1.0

    def test_ratios_sum_to_one(self):
        outcomes = [
            self.outcome_with([(["a"], ["a"])]),
            self.outcome_with([(["b"], [])]),
            self.outcome_with([([], ["c"])]),
        ]
        report = aggregate(outcomes)
        assert abs(sum(report.ratios.values()) - 1.0) < 1e-9

    def test_undefined_metrics_skipped_and_counted(self):
        over = self.outcome_with([(["a"], [])])    # recall undefined
        unex_empty = self.outcome_with([([], ["a"])])  # precision undefined
        report = aggregate([over, unex_empty])
        assert report.skipped_recall == 1
        assert report.skipped_precision == 1

    def test_tsv_row_layout(self):
        outcomes = [self.outcome_with([(["a"], ["a"])])]
        report = aggregate(outcomes)
        row = report.to_tsv_row("gpt-test", "progressive")
        cells = row.split("\t")
        assert cells[0] == "gpt-test" and cells[1] == "progressive"
        assert cells[2] == "100.00"  # Correct ratio as a percentage
        assert len(cells) == 11

    def test_empty_rejected(self):
        with pytest.raises(EmptyCase):
            aggregate([])


VALUE_POOL = ["a", "b", "c", "d", "e"]


def random_case(rng):
    pages = []
    for _ in range(rng.randint(1, 4)):
        extracted = rng.sample(VALUE_POOL, rng.randint(0, 3))
        gold = rng.sample(VALUE_POOL, rng.randint(0, 3))
        pages.append((extracted, gold))
    return pages


def test_partition_fuzz_exactly_one_label_each():
    rng = random.Random(99)
    counts = {label: 0 for label in Label}
    for index in range(1000):
        outcome = classify_case(f"case-{index}", random_case(rng))
        counts[outcome.label] += 1
        if outcome.label is Label.CORRECT:
            assert outcome.precision == 1.0 and outcome.recall == 1.0
    assert sum(counts.values()) == 1000


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from(VALUE_POOL), max_size=3),
            st.lists(st.sampled_from(VALUE_POOL), max_size=3),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_partition_property(pages):
    outcome = classify_case("case", pages)
    assert outcome.label in Label
    # Correct if and only if micro precision and recall are both 1.
    is_correct = outcome.label is Label.CORRECT
    both_one = outcome.precision == 1.0 and outcome.recall == 1.0
    assert is_correct == both_one
