import pytest

from conftest import json_answer, make_gateway
from wrapsmith.analysis import (
    CostModelParams,
    NoBreakeven,
    breakeven_pages,
    fragility_report,
    histogram_mean,
    sequence_length_histogram,
)
from wrapsmith.cli import main
from wrapsmith.dataset import dump_json, to_record
from wrapsmith.dom import TreeMetrics
from wrapsmith.executor import ActionSequence, Provenance
from wrapsmith.generation import GenerationTrace, StepRecord, StrategyConfig, generate


def sequence(*steps):
    return ActionSequence(tuple(steps), Provenance("s", "progressive"))


def sized_trace(page_id, *sizes, succeeded=True):
    """A trace whose steps saw trees of the given (tokens, height) sizes."""
    steps = tuple(
        StepRecord(i, TreeMetrics(*size), (), (), "//a", None, "stepback(1)")
        for i, size in enumerate(sizes)
    )
    trace = GenerationTrace(page_id, "i", "progressive", steps=steps)
    if succeeded:
        trace.sequence = sequence("//a")
    return trace


def compression_rows(tmp_path, traces):
    """Rows under the header of the compression table ``analyze`` writes."""
    traces_dir = tmp_path / "traces"
    traces_dir.mkdir()
    for index, trace in enumerate(traces):
        dump_json(to_record(trace), traces_dir / f"t{index}.json")
    stats = tmp_path / "stats"
    argv = ["analyze", "--traces", traces_dir, "--sequences", tmp_path, "--out", stats]
    assert main([str(a) for a in argv]) == 0
    lines = (stats / "compression.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "case\ttoken_ratio\theight_ratio"
    return [line.split("\t") for line in lines[1:]]


class TestCompression:
    """The compression table ``analyze`` reads from the sizes traces record."""

    def test_identical_trees_ratio_one(self, tmp_path):
        rows = compression_rows(tmp_path, [sized_trace("p", (30, 5), (30, 5))])
        assert rows == [["p", "1.0000", "1.0000"], ["mean", "1.0000", "1.0000"]]

    def test_arithmetic(self, tmp_path):
        rows = compression_rows(tmp_path, [
            sized_trace("p", (40, 8), (25, 6), (10, 2)),
            sized_trace("q", (50, 5), (20, 4)),
        ])
        assert rows == [
            ["p", "0.2500", "0.2500"],
            ["q", "0.4000", "0.8000"],
            ["mean", "0.3250", "0.5250"],
        ]

    def test_curve_monotone_nonincreasing(self, tmp_path, player_page):
        def transport(template, prompt):
            if 'class="profile"' in prompt:
                return json_answer("6-9", "//div[@class='stats']/div/b/text()")
            return json_answer("6-9", "//span[@class='val']/text()")

        _, trace = generate(player_page, "height", make_gateway(transport), StrategyConfig())
        sizes = [(s.metrics_before.token_count, s.metrics_before.height) for s in trace.steps]
        assert len(sizes) == 2 and sizes == sorted(sizes, reverse=True)
        [(_, token_ratio, height_ratio), _] = compression_rows(tmp_path, [trace])
        assert 0 < float(token_ratio) < 1 and 0 < float(height_ratio) < 1

    def test_no_pruning_curve_empty(self, tmp_path):
        rows = compression_rows(tmp_path, [
            sized_trace("failed", (30, 5), (10, 2), succeeded=False),
            sized_trace("absent"),
        ])
        assert rows == []
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


def test_zero_origin_guard(tmp_path):
    # Ratios against a tree without tokens are undefined: no row.
    rows = compression_rows(tmp_path, [sized_trace("p", (0, 1), (0, 1))])
    assert rows == []
