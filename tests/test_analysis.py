import pytest

from wrapsmith.analysis import (
    CostModelParams,
    NoBreakeven,
    ZeroOrigin,
    breakeven_pages,
    compression_curve,
    compression_ratios,
    fragility_report,
    histogram_mean,
    sequence_length_histogram,
)
from wrapsmith.dom import parse_html
from wrapsmith.executor import ActionSequence, Provenance
from wrapsmith.generation import GenerationTrace


def sequence(*steps):
    return ActionSequence(tuple(steps), Provenance("s", "progressive"))


class TestCompression:
    def test_identical_trees_ratio_one(self):
        tree = parse_html("<div><p>x</p></div>", "t")
        assert compression_ratios(tree, tree) == (1.0, 1.0)

    def test_arithmetic(self):
        page = parse_html(
            "<html><body><div class='x'><p>v</p></div>"
            "<div class='y'><p>a</p><p>b</p><p>c</p></div></body></html>",
            "t",
        )
        from wrapsmith.dom import measure
        from wrapsmith.executor import prune

        pruned = page.subtree(prune(page, "//div[@class='x']"))
        token_ratio, height_ratio = compression_ratios(page, pruned)
        assert token_ratio == measure(pruned).token_count / measure(page).token_count
        assert height_ratio == measure(pruned).height / measure(page).height
        assert 0 < token_ratio <= 1 and 0 < height_ratio <= 1

    def test_curve_monotone_nonincreasing(self, player_page):
        chain = sequence(
            "//div[@class='stats']", "//div[@class='hrow']", "//span/text()"
        )
        curve = compression_curve(player_page, chain)
        assert len(curve) == 2
        tokens = [ratio for ratio, _ in curve]
        heights = [ratio for _, ratio in curve]
        assert tokens == sorted(tokens, reverse=True)
        assert heights == sorted(heights, reverse=True)
        assert all(0 < r <= 1 for r in tokens + heights)

    def test_no_pruning_curve_empty(self, player_page):
        assert compression_curve(player_page, sequence("//span/text()")) == []


class TestHistogram:
    def test_small_counts(self):
        traces = [
            self._trace(("//a",)),
            self._trace(("//a",)),
            self._trace(("//a", "//b")),
            self._trace(None),
        ]
        histogram = sequence_length_histogram(traces)
        assert histogram.counts == {1: 2, 2: 1}
        assert histogram.mean == pytest.approx(4 / 3, abs=1e-9)

    def test_all_failures_mean_undefined(self):
        histogram = sequence_length_histogram([self._trace(None)])
        assert histogram.counts == {} and histogram.mean is None

    def test_reported_distribution_mean(self):
        counts = {1: 214, 2: 61, 3: 13, 4: 18, 5: 10}
        assert histogram_mean(counts) == pytest.approx(1.57, abs=0.01)

    def test_tsv_layout(self):
        histogram = sequence_length_histogram([self._trace(("//a",))])
        lines = histogram.to_tsv().splitlines()
        assert lines[0].split("\t") == ["1", "2", "3", "4", "5", "Avg."]
        assert lines[1].split("\t")[0] == "1"

    @staticmethod
    def _trace(steps):
        trace = GenerationTrace("p", "i", "progressive")
        if steps is not None:
            trace.sequence = sequence(*steps)
        return trace


class TestBreakeven:
    def test_reported_configuration(self):
        params = CostModelParams(
            n_seeds=3, t_generate=5.0, t_synthesize=1.0, t_execute=0.0, t_direct=1.0
        )
        assert breakeven_pages(params) == 16

    def test_degenerate_single_seed(self):
        params = CostModelParams(
            n_seeds=1, t_generate=1.0, t_synthesize=0.0, t_execute=0.0, t_direct=1.0
        )
        assert breakeven_pages(params) == 1

    def test_no_breakeven_when_execution_not_cheaper(self):
        params = CostModelParams(
            n_seeds=3, t_generate=5.0, t_synthesize=1.0, t_execute=1.0, t_direct=1.0
        )
        with pytest.raises(NoBreakeven):
            breakeven_pages(params)

    def test_monotonicity(self):
        base = CostModelParams(
            n_seeds=3, t_generate=5.0, t_synthesize=1.0, t_execute=0.0, t_direct=1.0
        )
        more_seeds = CostModelParams(
            n_seeds=4, t_generate=5.0, t_synthesize=1.0, t_execute=0.0, t_direct=1.0
        )
        slower_generation = CostModelParams(
            n_seeds=3, t_generate=6.0, t_synthesize=1.0, t_execute=0.0, t_direct=1.0
        )
        narrower_gap = CostModelParams(
            n_seeds=3, t_generate=5.0, t_synthesize=1.0, t_execute=0.5, t_direct=1.0
        )
        assert breakeven_pages(more_seeds) >= breakeven_pages(base)
        assert breakeven_pages(slower_generation) >= breakeven_pages(base)
        assert breakeven_pages(narrower_gap) >= breakeven_pages(base)


class TestFragility:
    def test_all_class_equality_zero_ratio(self):
        report = fragility_report([sequence("//div[@class='a']", "//p[@class='b']/text()")])
        assert report.equal_total == 2 and report.equal_fragile == 0
        assert report.equal_ratio == 0.0
        assert report.contains_ratio is None

    def test_one_phone_literal_in_ten(self):
        sequences = [sequence("//b[contains(text(),'Height:')]/text()") for _ in range(9)]
        sequences.append(sequence("//h5[contains(text(),'703-528-7809')]/text()"))
        report = fragility_report(sequences)
        assert report.contains_total == 10
        assert report.contains_fragile == 1
        assert report.contains_ratio == pytest.approx(0.1)

    def test_ratios_bounded(self):
        report = fragility_report([
            sequence("//p[text()='order 12345678']"),
            sequence("//div[@class='a']"),
            sequence("//b[contains(text(),'x')]"),
        ])
        for ratio in (report.contains_ratio, report.equal_ratio):
            assert ratio is None or 0.0 <= ratio <= 1.0

    def test_tsv_shape(self):
        report = fragility_report([sequence("//div[@class='a']")])
        lines = report.to_tsv().splitlines()
        assert lines[0].startswith("predicate")
        assert lines[1].startswith("contains") and lines[2].startswith("equal")


def test_zero_origin_guard():
    # A tree with no tokens cannot be built by the parser, so exercise the
    # guard through a degenerate handmade tree.
    import wrapsmith.analysis as analysis_module

    tree = parse_html("<p>x</p>", "t")

    class FakeMetrics:
        token_count = 0
        height = 1

    original_measure = analysis_module.measure
    analysis_module.measure = lambda t: FakeMetrics()
    try:
        with pytest.raises(ZeroOrigin):
            compression_ratios(tree, tree)
    finally:
        analysis_module.measure = original_measure
