import hashlib
import json
import random

import pytest

from conftest import json_answer, make_gateway
from oracles import elements, random_page_html, random_simple_xpath, reference_step_back
from wrapsmith.dataset import from_record, to_record
from wrapsmith.dom import measure, parse_html
from wrapsmith.executor import ExtractionStatus, extract
from wrapsmith.gateway import JudgeMode
from wrapsmith.generation import (
    GenerationTrace,
    Strategy,
    StrategyConfig,
    _step_back,
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
        assert extract(player_page, sequence).values == ("6-9",)

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

    def test_too_deeply_nested_xpath_is_an_invalid_answer(self, player_page):
        nested = "//p[" + "(" * 1000 + "1" + ")" * 1000 + "]"
        gateway = make_gateway(lambda t, p: json_answer("6-9", nested))
        sequence, trace = generate(
            player_page, "height", gateway, progressive_cfg(d_max=2)
        )
        assert sequence is None
        assert [s.parser_result.status for s in trace.steps] == [
            ExtractionStatus.INVALID_XPATH
        ] * 2
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


class TestStepBackUnions:
    def test_union_climbs_only_its_last_branch(self):
        # <a> comes first and never moves; only //b climbs, so the first
        # node is <a> until the fourth climb reaches <body>, which holds the
        # value. Climbing both branches would accept <div> at the first.
        page = parse_html(
            "<html><body><div><span>6-9</span><a>x</a></div>"
            "<section><ul><li><b>y</b></li></ul></section></body></html>", "u",
        )

        def transport(template, prompt):
            if "<html>" in prompt:
                return json_answer("6-9", "//a | //b")
            return json_answer("6-9", "//span/text()")

        sequence, trace = generate(page, "height", make_gateway(transport), progressive_cfg())
        assert [s.decision for s in trace.steps] == ["stepback(4)", "accept"]
        assert sequence.steps == ("//a | //b/../../../..", "//span/text()")
        assert extract(page, sequence).values == ("6-9",)

    def test_union_with_a_fixed_wrong_node_ends_at_the_root(self):
        # //nosuch/.. never climbs, and the first <p> does not hold the
        # value, so nothing can move: the climb ends at the root.
        page = parse_html("<div><p>a</p><span>6-9</span></div>", "u")
        gateway = make_gateway(lambda t, p: json_answer("6-9", "//p | //nosuch"))
        sequence, trace = generate(page, "height", gateway, progressive_cfg(d_max=3))
        assert sequence is None
        assert len(trace.steps) == 3
        assert {s.decision for s in trace.steps} <= {"retry", "give_up"}


_STEP_BACK_TAILS = ["", "", "/text()", "//text()", "/@class", "/.."]
_STEP_BACK_ODD = ["//div/", "/", ".", "..", "//node()", "//div[", "//nosuch", "//p | //nosuch"]


def _step_back_cases(rng, pages):
    """(tree, proposed, value) over random pages: plain paths with text and
    attribute tails, unions, odd and invalid expressions, empty selections
    and values the page does not hold."""
    for index in range(pages):
        tree = parse_html(random_page_html(rng), f"page-{index}")
        words = tree.text_content().split() or ["x"]
        page_elements = elements(tree.root)

        def path():
            if rng.random() < 0.3:
                return random_simple_xpath(rng) + rng.choice(_STEP_BACK_TAILS)
            element = rng.choice(page_elements)  # a path that selects something
            step = element.tag
            if element.class_attr and rng.random() < 0.5:
                step += f"[@class='{element.class_attr}']"
            parent = tree.parents[element.order]
            if parent is not None and rng.random() < 0.3:
                step = f"{parent.tag}/{step}"
            return "//" + step + rng.choice(_STEP_BACK_TAILS)

        proposals = [path() for _ in range(4)]
        proposals.append(" | ".join(path() for _ in range(rng.randint(2, 3))))
        proposals.append(f"{path()} | //nosuch")
        proposals.append(rng.choice(_STEP_BACK_ODD))
        for proposed in proposals:
            value = rng.choice([
                (rng.choice(words),),
                (rng.choice(words), rng.choice(words)),
                ("missing-value",),
            ])
            yield tree, proposed, value


def _hashed_judge(template, prompt):
    """A scripted step-back judge: a fixed yes or no for each prompt."""
    assert template == "stepback"
    yes = hashlib.sha256(prompt.encode("utf-8")).digest()[0] % 2
    return json.dumps({"judgement": "yes" if yes else "no"})


@pytest.mark.parametrize("mode", list(JudgeMode))
def test_step_back_matches_the_by_string_reference(mode):
    rng = random.Random(6 if mode is JudgeMode.DETERMINISTIC else 7)
    gateway = make_gateway(_hashed_judge)
    judge = gateway if mode is JudgeMode.LLM else None
    compared = stepbacks = 0
    for tree, proposed, value in _step_back_cases(rng, pages=300):
        decision, base, pruned, exchanges, capped = reference_step_back(
            tree, proposed, value, "instr", mode, gateway
        )
        (got_decision, got_base), got_tree, got_exchanges = _step_back(
            tree, proposed, value, "instr", judge
        )
        case = (tree.to_html(), proposed, value)
        assert got_decision == decision, case
        if capped:
            continue  # the reference ran into its cap, not into the root
        compared += 1
        stepbacks += decision.startswith("stepback")
        assert got_base == base, case
        assert got_tree.to_html() == pruned.to_html(), case
        assert to_record(got_exchanges) == to_record(exchanges), case
    assert compared > 1000 and stepbacks > 400


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
        record = to_record(trace)
        rebuilt = from_record(GenerationTrace, json.loads(json.dumps(record)))
        assert to_record(rebuilt) == record

    def test_identical_inputs_identical_traces(self, player_page):
        def run():
            gateway = make_gateway(self.staged_transport)
            _, trace = generate(
                player_page, "height", gateway, progressive_cfg()
            )
            return json.dumps(to_record(trace), sort_keys=True)

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
