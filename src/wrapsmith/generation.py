"""One loop that turns a seed page plus an instruction into a rule.

Every strategy runs the same loop: ask the model for a value and an XPath,
evaluate the XPath on the current tree and judge its extraction against the
claimed value. A consistent answer is accepted. The strategies differ only in
what a mismatch does:

* ``progressive`` - the top-down/step-back policy. It climbs from the
  proposed node until the subtree demonstrably contains the value, records
  the climb as a pruning step (the xpath with one ``/..`` per climb), and
  continues on the smaller tree. The proposed xpath is evaluated once; each
  climb maps its node set to the parents, and a union climbs only its last
  branch, exactly as the appended ``/..`` reads. The climb ends at the root
  at the latest.
* ``reflexion`` - adds the failed attempt to a history and asks again with
  that history, always on the full page; it never prunes. In LLM-judge mode
  the model may answer that its previous attempt was consistent, which
  accepts that attempt.
* ``cot`` - one shot: the first answer is accepted without judging, so its
  XPath becomes the whole rule.

A blank XPath from the model is the reserved "attribute absent" answer and
yields the empty sequence. Exhausting the iteration budget yields no
sequence and a failure reason; the full trace is kept either way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from . import executor
from .dom import DocumentTree, ElementNode, TreeMetrics, measure
from .executor import ActionSequence, ExtractionResult, Provenance, eval_text
from .executor import prune  # noqa: F401 - the benchmark's tracer test looks it up here
from .gateway import JudgeMode, JudgeResult, LlmExchange, LlmGateway, MalformedOutput
from .gateway import judge_consistent, judge_contains
from .xpath import XPathSyntaxError, climb


class Strategy(str, Enum):
    PROGRESSIVE = "progressive"
    COT = "cot"
    REFLEXION = "reflexion"


@dataclass
class StrategyConfig:
    strategy: Strategy = Strategy.PROGRESSIVE
    d_max: int = 5
    judge_mode: JudgeMode = JudgeMode.DETERMINISTIC

    def __post_init__(self) -> None:
        if self.d_max < 1:
            raise ValueError("d_max must be >= 1")


@dataclass(frozen=True)
class StepRecord:
    """One iteration of a strategy: what the model proposed, what the parser
    saw, and what the loop decided (accept / stepback(n) / retry / give_up)."""

    iteration: int
    metrics_before: TreeMetrics
    exchanges: tuple[LlmExchange, ...]
    proposed_value: tuple[str, ...]
    proposed_xpath: str
    parser_result: Optional[ExtractionResult]
    decision: str


@dataclass
class GenerationTrace:
    page_id: str
    instruction: str
    strategy: str
    steps: tuple[StepRecord, ...] = ()
    sequence: Optional[ActionSequence] = None
    failure_reason: Optional[str] = None
    final_values: tuple[str, ...] = ()
    html_path: str = ""

    @property
    def succeeded(self) -> bool:
        return self.sequence is not None


def _value_list(raw) -> tuple[str, ...]:
    """Model answers carry the value as a string or a list; accept both."""
    if raw is None:
        return ()
    if isinstance(raw, (list, tuple)):
        return executor.normalize_values(str(v) for v in raw)
    return executor.normalize_values([str(raw)])


def generate(
    page: DocumentTree,
    instruction: str,
    gateway: LlmGateway,
    cfg: StrategyConfig,
) -> tuple[Optional[ActionSequence], GenerationTrace]:
    """Run the configured strategy's loop on one seed page."""
    strategy = cfg.strategy
    trace = GenerationTrace(page.source_id, instruction, strategy.value)
    provenance = Provenance(page.source_id, strategy.value)
    steps: list[StepRecord] = []
    pruning: list[str] = []
    history: list[tuple[str, str, tuple[str, ...]]] = []
    tree = page
    judge = gateway if cfg.judge_mode is JudgeMode.LLM else None

    for iteration in range(cfg.d_max):
        # A tree renders once; a page's rendering is shared by every case on it.
        metrics, html = measure(tree), tree.to_html()
        if history:
            template, slots = "reflexion", [instruction, format_history(history), html]
        else:
            template, slots = "crawler", [instruction, html]
        try:
            exchange = gateway.complete(template, slots)
        except MalformedOutput as exc:
            trace.failure_reason = f"malformed model output: {exc}"
            break
        exchanges = [exchange]
        value = _value_list(exchange.parsed.get("value") if exchange.parsed else None)
        proposed = (exchange.parsed_str("xpath") or "").strip()
        result: Optional[ExtractionResult] = None
        accepted = True

        if (
            history
            and judge is not None
            and exchange.parsed_str("consistent").strip().lower().startswith("yes")
        ):
            # The model judged its previous attempt consistent: keep it.
            proposed = history[-1][1]
            result = eval_text(tree, proposed)
        elif proposed:
            result = eval_text(tree, proposed)
            if strategy is not Strategy.COT:
                verdict = (
                    judge_consistent(result.values, value, gateway=judge)
                    if result.ok else JudgeResult(False)
                )
                if verdict.exchange is not None:
                    exchanges.append(verdict.exchange)
                accepted = verdict.verdict
        # A blank xpath is the reserved answer: the attribute is absent.

        if accepted:
            decision = "accept"
        elif strategy is Strategy.PROGRESSIVE:
            # Step-back: climb from the proposed node until the subtree
            # contains the value, then record the climb as a pruning step.
            (decision, climb), pruned, climb_exchanges = _step_back(
                tree, proposed, value, instruction, judge
            )
            exchanges.extend(climb_exchanges)
            if climb is not None:
                pruning.append(climb)
                tree = pruned
        else:
            decision = "retry"
            history.append((exchange.parsed_str("thought"), proposed, result.values))
        steps.append(StepRecord(
            iteration, metrics, tuple(exchanges), value, proposed, result, decision,
        ))
        if accepted:
            trace.sequence = ActionSequence((*pruning, proposed) if proposed else (), provenance)
            trace.final_values = result.values if result is not None else ()
            break
    else:
        trace.failure_reason = f"no consistent xpath within d_max={cfg.d_max} iterations"

    trace.steps = tuple(steps)
    return trace.sequence, trace


def _step_back(
    tree: DocumentTree,
    proposed: str,
    value: tuple[str, ...],
    instruction: str,
    judge: Optional[LlmGateway],
) -> tuple[tuple[str, Optional[str]], DocumentTree, list[LlmExchange]]:
    """Climb from the proposed node until its subtree holds the value.

    Climb ``k`` judges the first node of ``proposed`` followed by ``k``
    times ``/..``. Returns ``((decision, appended_step_or_None), new_tree,
    judge_exchanges)``. ``appended_step`` is set only when a strictly
    smaller subtree passed the containment check; reaching the root yields
    ``retry`` (value present somewhere, xpath unanchorable) or ``give_up``
    (value absent entirely). ``judge`` is the gateway that judges
    containment, or ``None`` for the deterministic check.
    """
    exchanges: list[LlmExchange] = []

    def contains(candidate: DocumentTree) -> bool:
        result = judge_contains(candidate, value, instruction, gateway=judge)
        if result.exchange is not None:
            exchanges.append(result.exchange)
        return result.verdict

    try:
        for climbs, node in enumerate(climb(tree, proposed), start=1):
            if node is tree or node is tree.root:
                break
            if not isinstance(node, ElementNode):
                continue  # nothing here can root a subtree: climb on
            candidate = tree.subtree(node)
            if contains(candidate):
                step = proposed + "/.." * climbs
                return (f"stepback({climbs})", step), candidate, exchanges
    except XPathSyntaxError:
        pass  # unanchorable expression: straight to the root
    if contains(tree):
        # The page holds the value but this xpath cannot be anchored to a
        # smaller subtree; retry top-down on the same tree.
        return ("retry", None), tree, exchanges
    return ("give_up", None), tree, exchanges


def format_history(history: list[tuple[str, str, tuple[str, ...]]]) -> str:
    """Render prior attempts as numbered thought/xpath/result blocks."""
    blocks = []
    for index, (thought, xpath, values) in enumerate(history, start=1):
        result = json.dumps(list(values), ensure_ascii=False)
        blocks.append(f"{index}. thought: {thought}\n   xpath: {xpath}\n   result: {result}")
    return "\n".join(blocks)
