"""Pick the candidate rule that generalizes across seed pages.

Each seed page yields its own candidate sequence; all candidates are then
executed on all seeds. Deterministic selection ranks candidates by how many
seeds they reproduce (judged against each seed's own generation-time
values, since gold labels are not available at deployment), then by fewer
fragile text literals, then by shorter sequence, then by lowest index. The
LLM mode, chosen by passing a gateway, instead shows all candidates and
results to the model and takes the index it names.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .dom import DocumentTree
from .executor import (
    ActionSequence,
    ExtractionResult,
    extract,
    literal_predicates,
    normalize_values,
)
from .gateway import LlmExchange, LlmGateway


class TooFewPages(ValueError):
    """The case does not have enough pages to draw seeds from."""


class NoCandidates(ValueError):
    """Synthesis was called with an empty candidate list."""


def select_seeds(page_ids: Sequence[str], n_seeds: int, rng_seed: int) -> list[str]:
    """Uniform sample of ``n_seeds`` page ids without replacement.

    Reproducible from the seed; the returned ids keep their original order
    so downstream artifacts are stable.
    """
    if len(page_ids) < n_seeds:
        raise TooFewPages(f"need {n_seeds} pages, case has {len(page_ids)}")
    rng = random.Random(rng_seed)
    chosen = set(rng.sample(range(len(page_ids)), n_seeds))
    return [pid for index, pid in enumerate(page_ids) if index in chosen]


def cross_execute(
    candidates: Sequence[ActionSequence],
    seeds: Sequence[DocumentTree],
) -> list[list[ExtractionResult]]:
    """``matrix[i][j]``: result of candidate ``i`` on seed ``j``.

    Failures are recorded in the matrix, never raised. Candidates with the
    same steps share one row: execution does not depend on provenance.
    """
    rows: dict[tuple[str, ...], list[ExtractionResult]] = {}
    for candidate in candidates:
        if candidate.steps not in rows:
            rows[candidate.steps] = [extract(seed, candidate) for seed in seeds]
    return [list(rows[candidate.steps]) for candidate in candidates]


@dataclass(frozen=True)
class SynthesisChoice:
    index: int
    sequence: ActionSequence
    exchange: Optional[LlmExchange] = None


def _coverage(
    row: Sequence[ExtractionResult],
    targets: Sequence[Sequence[str]],
) -> int:
    count = 0
    for result, target in zip(row, targets):
        if result.status.value != "ok":
            continue
        if set(normalize_values(result.values)) == set(normalize_values(target)):
            count += 1
    return count


def format_candidates(
    candidates: Sequence[ActionSequence],
    matrix: Sequence[Sequence[ExtractionResult]],
    seed_ids: Sequence[str],
) -> str:
    """Candidate listing shown to the model in LLM mode."""
    blocks = []
    for index, (candidate, row) in enumerate(zip(candidates, matrix)):
        lines = [f"Candidate {index}:", f"  steps: {json.dumps(list(candidate.steps), ensure_ascii=False)}"]
        for seed_id, result in zip(seed_ids, row):
            values = json.dumps(list(result.values), ensure_ascii=False)
            lines.append(f"  result on {seed_id}: {values} ({result.status.value})")
        blocks.append("\n".join(lines))
    return "\n".join(blocks)


def synthesize(
    candidates: Sequence[ActionSequence],
    matrix: Sequence[Sequence[ExtractionResult]],
    seed_values: Sequence[Sequence[str]],
    *,
    gateway: Optional[LlmGateway] = None,
    instruction: str = "",
    seed_ids: Optional[Sequence[str]] = None,
    gold_values: Optional[Sequence[Sequence[str]]] = None,
) -> SynthesisChoice:
    """Choose one of ``candidates``; the result is always a member.

    With a ``gateway`` the model chooses; without one the ranking does.
    ``seed_values[j]`` holds seed ``j``'s generation-time value set.
    Passing ``gold_values`` ranks against gold labels instead (useful when
    reproducing benchmark runs that generate with labels available).
    """
    if not candidates:
        raise NoCandidates("no candidate sequences to choose from")
    if gateway is not None:
        ids = list(seed_ids) if seed_ids else [f"seed-{j}" for j in range(len(matrix[0]))]
        exchange = gateway.complete(
            "synthesis", [instruction, format_candidates(candidates, matrix, ids)]
        )
        try:
            index = int(str(exchange.parsed.get("number", 0)).strip() or 0)
        except (ValueError, AttributeError):
            index = 0
        index = max(0, min(index, len(candidates) - 1))
        return SynthesisChoice(index, candidates[index], exchange)

    targets = gold_values if gold_values is not None else seed_values

    def rank(index: int) -> tuple:
        candidate = candidates[index]
        return (
            -_coverage(matrix[index], targets),
            sum(fragile for _, fragile in literal_predicates(candidate)),
            len(candidate.steps),
            index,
        )

    best = min(range(len(candidates)), key=rank)
    return SynthesisChoice(best, candidates[best])
