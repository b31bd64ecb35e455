"""Diagnostics over finished runs: sequence length statistics, predicate
fragility tallies, and the break-even page count at which generating a rule
beats asking the model page by page. Pruning compression needs no replay:
``analyze`` reads it from the tree size each trace step records."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .executor import ActionSequence, literal_predicates
from .generation import GenerationTrace


class NoBreakeven(ValueError):
    """Direct extraction is at least as fast per page; no finite threshold."""


@dataclass(frozen=True)
class LengthHistogram:
    counts: dict[int, int]
    mean: Optional[float]

    def to_tsv(self, d_max: int = 5) -> str:
        header = "\t".join([*(str(i) for i in range(1, d_max + 1)), "Avg."])
        row = "\t".join(
            [*(str(self.counts.get(i, 0)) for i in range(1, d_max + 1)),
             "-" if self.mean is None else f"{self.mean:.2f}"]
        )
        return f"{header}\n{row}"


def histogram_mean(counts: Mapping[int, int]) -> Optional[float]:
    total = sum(counts.values())
    if total == 0:
        return None
    return sum(length * count for length, count in counts.items()) / total


def sequence_length_histogram(traces: Iterable[GenerationTrace]) -> LengthHistogram:
    """Distribution of final sequence lengths over successful traces."""
    counts: dict[int, int] = {}
    for trace in traces:
        if trace.sequence is None or not trace.sequence.steps:
            continue
        length = len(trace.sequence.steps)
        counts[length] = counts.get(length, 0) + 1
    return LengthHistogram(counts, histogram_mean(counts))


@dataclass(frozen=True)
class CostModelParams:
    """Timing model for the break-even analysis.

    ``t_generate`` covers one seed's rule generation, ``t_synthesize`` the
    selection pass, ``t_execute`` running the finished rule on one page, and
    ``t_direct`` asking the model to extract from one page directly.
    """

    n_seeds: int = 3
    t_generate: float = 0.0
    t_synthesize: float = 0.0
    t_execute: float = 0.0
    t_direct: float = 0.0


def breakeven_pages(params: CostModelParams) -> int:
    """Smallest page count where rule generation plus rule execution is no
    slower than direct per-page extraction."""
    if params.t_direct <= params.t_execute:
        raise NoBreakeven(
            f"t_direct={params.t_direct} must exceed t_execute={params.t_execute}"
        )
    threshold = (params.n_seeds * params.t_generate + params.t_synthesize) / (
        params.t_direct - params.t_execute
    )
    return max(0, math.ceil(threshold))


@dataclass(frozen=True)
class FragilityReport:
    contains_total: int
    contains_fragile: int
    equal_total: int
    equal_fragile: int

    @property
    def contains_ratio(self) -> Optional[float]:
        return self.contains_fragile / self.contains_total if self.contains_total else None

    @property
    def equal_ratio(self) -> Optional[float]:
        return self.equal_fragile / self.equal_total if self.equal_total else None

    def to_tsv(self) -> str:
        def pct(value: Optional[float]) -> str:
            return "-" if value is None else f"{100 * value:.2f}%"

        return (
            "predicate\ttotal\tfragile\tratio\n"
            f"contains\t{self.contains_total}\t{self.contains_fragile}\t{pct(self.contains_ratio)}\n"
            f"equal\t{self.equal_total}\t{self.equal_fragile}\t{pct(self.equal_ratio)}"
        )


def fragility_report(sequences: Iterable[ActionSequence]) -> FragilityReport:
    """Tally contains/equal predicates and the share with fragile literals."""
    totals = {"contains": 0, "equal": 0}
    fragiles = {"contains": 0, "equal": 0}
    for sequence in sequences:
        for kind, fragile in literal_predicates(sequence):
            totals[kind] += 1
            fragiles[kind] += fragile
    return FragilityReport(
        totals["contains"], fragiles["contains"], totals["equal"], fragiles["equal"]
    )
