import json

import pytest

from conftest import json_answer, make_gateway
from wrapsmith.dom import measure
from wrapsmith.executor import run_sequence
from wrapsmith.gateway import JudgeMode
from wrapsmith.generation import (
    GenerationTrace,
    Strategy,
    StrategyConfig,
    format_history,
    generate,
)


def progressive_cfg(**kwargs):
    return StrategyConfig(strategy=Strategy.PROGRESSIVE, **kwargs)


class TestProgressive:
    def test_correct_first_try_is_single_step(self, player_page):
        gateway = make_gateway(
            lambda t, p: json_answer("6-9", "//div[@class='hrow']/span/text()")
        )
        sequence, trace = generate(
            player_page, "height", gateway, progressive_cfg()
        )
        assert sequence.steps == ("//div[@class='hrow']/span/text()",)
        assert [s.decision for s in trace.steps] == ["accept"]
        assert trace.final_values == ("6-9",)

    def test_wrong_then_right_builds_prune_step(self, player_page):
        def transport(template, prompt):
            if 'class="profile"' in prompt:
                return json_answer("6-9", "//div[@class='stats']/div/b/text()")
            return json_answer("6-9", "//span[@class='val']/text()")

        gateway = make_gateway(transport)
        sequence, trace = generate(
            player_page, "height", gateway, progressive_cfg()
        )
        assert len(sequence.steps) == 2
        assert sequence.steps[0].endswith("/../..")
        assert [s.decision for s in trace.steps] == ["stepback(2)", "accept"]
        # Replaying the sequence on the original page reproduces the value.
        assert run_sequence(player_page, sequence).values == ("6-9",)

    def test_always_wrong_fails_after_exactly_dmax(self, player_page):
        calls = []

        def transport(template, prompt):
            calls.append(template)
            return json_answer("6-9", "//div[@class='nav']/ul/li/text()")

        gateway = make_gateway(transport)
        sequence, trace = generate(
            player_page, "height", gateway, progressive_cfg(d_max=5)
        )
        assert sequence is None
        assert len(trace.steps) == 5
        assert "d_max=5" in trace.failure_reason

    def test_blank_xpath_is_attribute_absent(self, player_page):
        gateway = make_gateway(lambda t, p: json_answer("", ""))
        sequence, trace = generate(
            player_page, "height", gateway, progressive_cfg()
        )
        assert sequence is not None and sequence.steps == ()
        assert trace.succeeded

    def test_value_absent_gives_up_each_iteration(self, player_page):
        gateway = make_gateway(lambda t, p: json_answer("7-0", "//div[@class='hrow']/b/text()"))
        sequence, trace = generate(
            player_page, "height", gateway, progressive_cfg(d_max=3)
        )
        assert sequence is None
        assert [s.decision for s in trace.steps] == ["give_up"] * 3

    def test_unanchorable_xpath_retries_on_same_tree(self, player_page):
        # Matches nothing anywhere, but the value exists in the page.
        gateway = make_gateway(lambda t, p: json_answer("6-9", "//section[@class='zzz']"))
        sequence, trace = generate(
            player_page, "height", gateway, progressive_cfg(d_max=2)
        )
        assert sequence is None
        assert [s.decision for s in trace.steps] == ["retry", "retry"]

    def test_malformed_output_fails_generation(self, player_page):
        gateway = make_gateway(lambda t, p: "never json", max_retries=1)
        sequence, trace = generate(
            player_page, "height", gateway, progressive_cfg()
        )
        assert sequence is None
        assert "malformed" in trace.failure_reason

    def test_pruned_tree_strictly_shrinks_when_step_appended(self, player_page):
        def transport(template, prompt):
            if 'class="profile"' in prompt:
                return json_answer("6-9", "//div[@class='stats']/div/b/text()")
            return json_answer("6-9", "//span[@class='val']/text()")

        gateway = make_gateway(transport)
        _, trace = generate(player_page, "height", gateway, progressive_cfg())
        tokens = [s.metrics_before.token_count for s in trace.steps]
        assert tokens == sorted(tokens, reverse=True)
        assert tokens[1] < tokens[0]

    def test_iterations_never_exceed_dmax(self, player_page):
        for d_max in (1, 2, 4):
            gateway = make_gateway(lambda t, p: json_answer("6-9", "//li/text()"))
            _, trace = generate(
                player_page, "height", gateway, progressive_cfg(d_max=d_max)
            )
            assert len(trace.steps) <= d_max

    def test_value_list_answers_accepted(self, player_page):
        gateway = make_gateway(
            lambda t, p: json.dumps({
                "thought": "t",
                "value": ["6-9"],
                "xpath": "//div[@class='hrow']/span/text()",
            })
        )
        sequence, trace = generate(
            player_page, "height", gateway, progressive_cfg()
        )
        assert sequence is not None and trace.final_values == ("6-9",)

    def test_llm_judge_exchanges_recorded(self, player_page):
        def transport(template, prompt):
            if template == "crawler":
                return json_answer("6-9", "//div[@class='hrow']/span/text()")
            if template == "judgement":
                return '{"judgement": "yes"}'
            raise AssertionError(template)

        gateway = make_gateway(transport)
        _, trace = generate(
            player_page, "height", gateway, progressive_cfg(judge_mode=JudgeMode.LLM)
        )
        templates = [e.template for e in trace.steps[0].exchanges]
        assert templates == ["crawler", "judgement"]


class TestCot:
    def test_single_call_single_step(self, player_page):
        calls = []

        def transport(template, prompt):
            calls.append(template)
            return json_answer("6-9", "//p")

        sequence, trace = generate(
            player_page, "height", make_gateway(transport), StrategyConfig(strategy=Strategy.COT)
        )
        assert calls == ["crawler"]
        assert sequence.steps == ("//p",)
        assert len(trace.steps) == 1

    def test_blank_xpath_gives_empty_sequence(self, player_page):
        sequence, _ = generate(
            player_page, "height", make_gateway(lambda t, p: json_answer("", "")),
            StrategyConfig(strategy=Strategy.COT),
        )
        assert sequence.steps == ()

    def test_malformed_fails(self, player_page):
        sequence, trace = generate(
            player_page, "height", make_gateway(lambda t, p: "nope", max_retries=0),
            StrategyConfig(strategy=Strategy.COT),
        )
        assert sequence is None and "malformed" in trace.failure_reason


class TestReflexion:
    def reflexion_cfg(self, **kwargs):
        return StrategyConfig(strategy=Strategy.REFLEXION, **kwargs)

    def test_second_attempt_fix(self, player_page):
        def transport(template, prompt):
            if template == "crawler":
                return json_answer("6-9", "//div[@class='trow']/span/text()")
            assert template == "reflexion"
            assert "history" in prompt or "1." in prompt
            return json_answer(
                "6-9", "//div[@class='hrow']/span/text()", consistent="no"
            )

        sequence, trace = generate(
            player_page, "height", make_gateway(transport), self.reflexion_cfg()
        )
        assert sequence.steps == ("//div[@class='hrow']/span/text()",)
        assert len(trace.steps) == 2
        assert [s.decision for s in trace.steps] == ["retry", "accept"]

    def test_never_prunes(self, player_page):
        def transport(template, prompt):
            if template == "reflexion":
                return json_answer("6-9", "//div[@class='hrow']/span/text()", consistent="no")
            return json_answer("6-9", "//li/text()")

        _, trace = generate(
            player_page, "height", make_gateway(transport), self.reflexion_cfg()
        )
        sizes = {s.metrics_before.token_count for s in trace.steps}
        assert sizes == {measure(player_page).token_count}

    def test_dmax_exhausted_keeps_history(self, player_page):
        def transport(template, prompt):
            return json_answer("6-9", "//li/text()", consistent="no")

        sequence, trace = generate(
            player_page, "height", make_gateway(transport), self.reflexion_cfg(d_max=3)
        )
        assert sequence is None
        assert len(trace.steps) == 3
        assert all(s.decision == "retry" for s in trace.steps)

    def test_llm_consistent_yes_keeps_previous_xpath(self, player_page):
        def transport(template, prompt):
            if template == "crawler":
                return json_answer("6-9", "//div[@class='hrow']/span/text()")
            if template == "judgement":
                # First judgement says no, forcing a reflexion round.
                return '{"judgement": "no"}'
            assert template == "reflexion"
            return json_answer("6-9", "//ignored", consistent="yes")

        sequence, trace = generate(
            player_page, "height",
            make_gateway(transport),
            self.reflexion_cfg(judge_mode=JudgeMode.LLM),
        )
        assert sequence.steps == ("//div[@class='hrow']/span/text()",)

    def test_history_format_golden(self):
        history = [
            ("look at the stats block", "//div/b/text()", ("Height:", "Team:")),
            ("narrow to the value span", "//span/text()", ("6-9",)),
        ]
        assert format_history(history) == (
            "1. thought: look at the stats block\n"
            '   xpath: //div/b/text()\n'
            '   result: ["Height:", "Team:"]\n'
            "2. thought: narrow to the value span\n"
            '   xpath: //span/text()\n'
            '   result: ["6-9"]'
        )

    def test_history_embedded_in_prompt(self, player_page):
        prompts = []

        def transport(template, prompt):
            prompts.append((template, prompt))
            if template == "reflexion":
                return json_answer("6-9", "//div[@class='hrow']/span/text()", consistent="no")
            return json_answer("6-9", "//li/text()")

        generate(
            player_page, "height", make_gateway(transport), self.reflexion_cfg()
        )
        reflexion_prompts = [p for t, p in prompts if t == "reflexion"]
        assert reflexion_prompts
        assert "1. thought:" in reflexion_prompts[0]
        assert "//li/text()" in reflexion_prompts[0]


class TestTraces:
    def staged_transport(self, template, prompt):
        if 'class="profile"' in prompt:
            return json_answer("6-9", "//div[@class='stats']/div/b/text()")
        return json_answer("6-9", "//span[@class='val']/text()")

    def test_round_trip(self, player_page):
        gateway = make_gateway(self.staged_transport)
        _, trace = generate(player_page, "height", gateway, progressive_cfg())
        record = trace.to_record()
        rebuilt = GenerationTrace.from_record(json.loads(json.dumps(record)))
        assert rebuilt.to_record() == record

    def test_identical_inputs_identical_traces(self, player_page):
        def run():
            gateway = make_gateway(self.staged_transport)
            _, trace = generate(
                player_page, "height", gateway, progressive_cfg()
            )
            return json.dumps(trace.to_record(), sort_keys=True)

        assert run() == run()

    def test_dispatch_by_strategy(self, player_page):
        gateway = make_gateway(lambda t, p: json_answer("6-9", "//div[@class='hrow']/span/text()"))
        for strategy in Strategy:
            sequence, trace = generate(
                player_page, "height", gateway, StrategyConfig(strategy=strategy)
            )
            assert trace.strategy == strategy.value
            assert sequence is not None

    def test_dmax_validation(self):
        with pytest.raises(ValueError):
            StrategyConfig(d_max=0)
