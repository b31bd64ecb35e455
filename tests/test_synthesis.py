import pytest

from conftest import make_gateway
from wrapsmith import synthesis
from wrapsmith.dom import parse_html
from wrapsmith.executor import ActionSequence, ExtractionStatus, Provenance
from wrapsmith.synthesis import (
    NoCandidates,
    TooFewPages,
    cross_execute,
    select_seeds,
    synthesize,
)


def page(height, cls="val"):
    html = (
        f'<html><body><div class="stats">'
        f'<div class="hrow"><b>Height:</b><span class="{cls}"> {height} </span></div>'
        f"</div></body></html>"
    )
    return parse_html(html, f"page-{height}")


def sequence(*steps, seed="s"):
    return ActionSequence(tuple(steps), Provenance(seed, "progressive"))


class TestSelectSeeds:
    def test_deterministic_subset(self):
        ids = [f"p{i:03d}" for i in range(100)]
        first = select_seeds(ids, 3, rng_seed=42)
        second = select_seeds(ids, 3, rng_seed=42)
        assert first == second
        assert len(first) == 3 and len(set(first)) == 3
        assert all(p in ids for p in first)

    def test_different_seeds_differ(self):
        ids = [f"p{i:03d}" for i in range(100)]
        assert select_seeds(ids, 3, 1) != select_seeds(ids, 3, 2)

    def test_too_few_pages(self):
        with pytest.raises(TooFewPages):
            select_seeds(["a", "b"], 3, 0)

    def test_preserves_input_order(self):
        ids = [f"p{i:03d}" for i in range(50)]
        chosen = select_seeds(ids, 5, 7)
        assert chosen == sorted(chosen)


class TestCrossExecute:
    def test_matrix_shape(self):
        seeds = [page("6-1"), page("6-2"), page("6-3")]
        candidates = [
            sequence("//span/text()"),
            sequence("//div[@class='hrow']", "//span/text()"),
            sequence("//b/text()"),
        ]
        matrix = cross_execute(candidates, seeds)
        assert len(matrix) == 3 and all(len(row) == 3 for row in matrix)

    def test_identical_candidates_identical_rows(self):
        seeds = [page("6-1"), page("6-2")]
        candidates = [sequence("//span/text()"), sequence("//span/text()")]
        matrix = cross_execute(candidates, seeds)
        assert matrix[0] == matrix[1]

    def test_duplicate_steps_execute_once(self, monkeypatch):
        calls = []
        original = synthesis.extract

        def counting(tree, candidate):
            calls.append(candidate.steps)
            return original(tree, candidate)

        monkeypatch.setattr(synthesis, "extract", counting)
        seeds = [page("6-1"), page("6-2")]
        candidates = [
            sequence("//span/text()", seed="a"),
            sequence("//b/text()", seed="b"),
            sequence("//span/text()", seed="c"),
        ]
        matrix = cross_execute(candidates, seeds)
        assert len(calls) == 4
        assert [[r.values for r in row] for row in matrix] == [
            [("6-1",), ("6-2",)], [("Height:",), ("Height:",)], [("6-1",), ("6-2",)],
        ]

    def test_invalid_candidate_recorded_not_raised(self):
        matrix = cross_execute([sequence("//div[")], [page("6-1")])
        assert matrix[0][0].status is ExtractionStatus.INVALID_XPATH

    def test_empty_candidate_predicts_absence(self):
        matrix = cross_execute([sequence()], [page("6-1")])
        assert matrix[0][0].ok and matrix[0][0].values == ()


class TestSynthesize:
    def seeds_and_values(self):
        heights = ["6-1", "6-2", "6-3"]
        return [page(h) for h in heights], [[h] for h in heights]

    def test_dominant_coverage_wins(self):
        seeds, values = self.seeds_and_values()
        good = sequence("//span[@class='val']/text()")
        brittle = sequence("//span[contains(text(),'6-1')]/text()")
        matrix = cross_execute([brittle, good], seeds)
        choice = synthesize([brittle, good], matrix, values)
        assert choice.index == 1
        assert choice.sequence is good

    def test_fragile_literal_breaks_coverage_ties(self):
        tree = page("6-1")
        stable = sequence("//span[@class='val']/text()")
        fragile = sequence("//span[contains(text(),'555-123-4567')]/text() | //span[@class='val']/text()")
        matrix = cross_execute([fragile, stable], [tree])
        choice = synthesize([fragile, stable], matrix, [["6-1"]])
        assert choice.sequence is stable

    def test_shorter_sequence_breaks_remaining_ties(self):
        tree = page("6-1")
        short = sequence("//span[@class='val']/text()")
        long = sequence("//div[@class='hrow']", "//span[@class='val']/text()")
        matrix = cross_execute([long, short], [tree])
        choice = synthesize([long, short], matrix, [["6-1"]])
        assert choice.sequence is short

    def test_lowest_index_is_final_tiebreak(self):
        tree = page("6-1")
        twin_a = sequence("//span[@class='val']/text()")
        twin_b = sequence("//span[@class='val']/text()")
        matrix = cross_execute([twin_a, twin_b], [tree])
        assert synthesize([twin_a, twin_b], matrix, [["6-1"]]).index == 0

    def test_choice_is_always_a_member(self):
        seeds, values = self.seeds_and_values()
        candidates = [
            sequence("//b/text()"),
            sequence("//span/text()"),
            sequence("//div["),
        ]
        matrix = cross_execute(candidates, seeds)
        choice = synthesize(candidates, matrix, values)
        assert choice.sequence in candidates

    def test_coverage_rank_is_permutation_invariant(self):
        seeds, values = self.seeds_and_values()
        good = sequence("//span[@class='val']/text()")
        bad = sequence("//b/text()")
        for order in ([good, bad], [bad, good]):
            matrix = cross_execute(order, seeds)
            choice = synthesize(order, matrix, values)
            assert choice.sequence is good

    def test_single_candidate_degenerate(self):
        tree = page("6-1")
        only = sequence("//b/text()")
        matrix = cross_execute([only], [tree])
        assert synthesize([only], matrix, [["6-1"]]).sequence is only

    def test_no_candidates(self):
        with pytest.raises(NoCandidates):
            synthesize([], [], [])

    def test_gold_override_changes_ranking(self):
        # Proposed values are wrong; gold knows better.
        tree = page("6-1")
        label_seq = sequence("//b/text()")          # extracts "Height:"
        value_seq = sequence("//span[@class='val']/text()")  # extracts "6-1"
        matrix = cross_execute([label_seq, value_seq], [tree])
        by_proposed = synthesize([label_seq, value_seq], matrix, [["Height:"]])
        assert by_proposed.sequence is label_seq
        by_gold = synthesize(
            [label_seq, value_seq], matrix, [["Height:"]], gold_values=[["6-1"]]
        )
        assert by_gold.sequence is value_seq

    def test_llm_mode_scripted_number(self):
        tree = page("6-1")
        candidates = [sequence("//b/text()"), sequence("//span/text()")]
        matrix = cross_execute(candidates, [tree])
        gateway = make_gateway(lambda t, p: '{"thought": "t", "number": "1"}')
        choice = synthesize(
            candidates, matrix, [["6-1"]], gateway=gateway, instruction="i"
        )
        assert choice.index == 1
        assert choice.exchange is not None

    def test_llm_mode_clamps_out_of_range(self):
        tree = page("6-1")
        candidates = [sequence("//b/text()"), sequence("//span/text()")]
        matrix = cross_execute(candidates, [tree])
        gateway = make_gateway(lambda t, p: '{"number": "7"}')
        assert synthesize(
            candidates, matrix, [["6-1"]], gateway=gateway
        ).index == 1
        gateway = make_gateway(lambda t, p: '{"number": "junk"}')
        assert synthesize(
            candidates, matrix, [["6-1"]], gateway=gateway
        ).index == 0

    def test_llm_prompt_lists_candidates_and_results(self):
        tree = page("6-1")
        candidates = [sequence("//span[@class='val']/text()")]
        matrix = cross_execute(candidates, [tree])
        prompts = []

        def transport(template, prompt):
            prompts.append((template, prompt))
            return '{"number": "0"}'

        synthesize(
            candidates, matrix, [["6-1"]],
            gateway=make_gateway(transport), instruction="get the height",
            seed_ids=["page-6-1"],
        )
        template, prompt = prompts[0]
        assert template == "synthesis"
        assert "Candidate 0" in prompt
        assert "6-1" in prompt and "get the height" in prompt
