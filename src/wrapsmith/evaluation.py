"""Executable evaluation: six-way case labels over set-based page scores.

A case (one website, one attribute) is scored across all its pages with
set semantics, micro-aggregated: intersection sizes and set sizes are
summed over pages before computing precision and recall. The label
partition, checked in priority order, is mutually exclusive:

* ``Over``  - every gold set is empty yet something was extracted;
* ``Unex``  - gold exists somewhere but recall is zero;
* ``Correct`` - precision and recall are both 1 (a case where gold and
  extraction are empty everywhere counts here: predicting absence is
  success);
* ``Prec``  - precision 1, recall short;
* ``Reca``  - recall 1, precision short;
* ``Else``  - partial extraction.

Suite-level ratios divide label counts by the number of cases; macro
precision/recall/F1 average per-case values, skipping (and counting)
cases where the metric is undefined.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .executor import normalize_values


class EmptyCase(ValueError):
    """A case must contain at least one page."""


class Label(str, Enum):
    CORRECT = "Correct"
    PREC = "Prec"
    RECA = "Reca"
    UNEX = "Unex"
    OVER = "Over"
    ELSE = "Else"


LABEL_ORDER = (Label.CORRECT, Label.PREC, Label.RECA, Label.UNEX, Label.OVER, Label.ELSE)


def _score_sets(
    e: set[str], g: set[str]
) -> tuple[int, Optional[float], Optional[float]]:
    """Hits, precision and recall of two already normalized value sets."""
    hit = len(e & g)
    return hit, (hit / len(e) if e else None), (hit / len(g) if g else None)


@dataclass(frozen=True)
class PageScore:
    page_id: str
    precision: Optional[float]
    recall: Optional[float]
    hits: int
    extracted_size: int
    gold_size: int


@dataclass(frozen=True)
class CaseOutcome:
    case_id: str
    label: Label
    precision: Optional[float]
    recall: Optional[float]
    f1: Optional[float]
    pages: tuple[PageScore, ...]


def _f1(precision: Optional[float], recall: Optional[float]) -> Optional[float]:
    if precision is None or recall is None:
        return None
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def classify_case(
    case_id: str,
    pages: Sequence[tuple[Sequence[str], Sequence[str], str]]
    | Sequence[tuple[Sequence[str], Sequence[str]]],
) -> CaseOutcome:
    """Label one case from its per-page ``(extracted, gold)`` pairs.

    Pairs may carry an optional trailing page id. Page order never affects
    the outcome.
    """
    if not pages:
        raise EmptyCase(case_id)
    scores: list[PageScore] = []
    hits_total = extracted_total = gold_total = 0
    for index, pair in enumerate(pages):
        extracted, gold = pair[0], pair[1]
        page_id = pair[2] if len(pair) > 2 else f"page-{index}"
        e = set(normalize_values(extracted))
        g = set(normalize_values(gold))
        hit, precision, recall = _score_sets(e, g)
        hits_total += hit
        extracted_total += len(e)
        gold_total += len(g)
        scores.append(PageScore(page_id, precision, recall, hit, len(e), len(g)))

    if gold_total == 0 and extracted_total > 0:
        label = Label.OVER
        precision: Optional[float] = 0.0
        recall: Optional[float] = None
    elif gold_total == 0 and extracted_total == 0:
        # Absence correctly predicted on every page.
        label = Label.CORRECT
        precision = 1.0
        recall = 1.0
    elif hits_total == 0:
        label = Label.UNEX
        precision = 0.0 if extracted_total else None
        recall = 0.0
    else:
        precision = hits_total / extracted_total
        recall = hits_total / gold_total
        if precision == 1.0 and recall == 1.0:
            label = Label.CORRECT
        elif precision == 1.0:
            label = Label.PREC
        elif recall == 1.0:
            label = Label.RECA
        else:
            label = Label.ELSE

    return CaseOutcome(
        case_id=case_id,
        label=label,
        precision=precision,
        recall=recall,
        f1=_f1(precision, recall),
        pages=tuple(scores),
    )


@dataclass(frozen=True)
class SuiteReport:
    total: int
    counts: dict[Label, int]
    ratios: dict[Label, float]
    macro_precision: Optional[float]
    macro_recall: Optional[float]
    macro_f1: Optional[float]
    skipped_precision: int
    skipped_recall: int
    skipped_f1: int

    TSV_HEADER = (
        "model\tmethod\tCorrect\tPrec\tReca\tUnex\tOver\tElse\tP\tR\tF1"
    )

    def to_tsv_row(self, model: str, method: str) -> str:
        def pct(value: Optional[float]) -> str:
            return "-" if value is None else f"{100 * value:.2f}"

        cells = [model, method]
        cells.extend(pct(self.ratios[label]) for label in LABEL_ORDER)
        cells.extend(pct(v) for v in (self.macro_precision, self.macro_recall, self.macro_f1))
        return "\t".join(cells)


def aggregate(outcomes: Sequence[CaseOutcome]) -> SuiteReport:
    """Label ratios plus macro averages over the per-case metrics."""
    if not outcomes:
        raise EmptyCase("no case outcomes to aggregate")
    counts = {label: 0 for label in Label}
    for outcome in outcomes:
        counts[outcome.label] += 1
    total = len(outcomes)
    ratios = {label: counts[label] / total for label in Label}

    def macro(values: list[Optional[float]]) -> tuple[Optional[float], int]:
        defined = [v for v in values if v is not None]
        skipped = len(values) - len(defined)
        return (sum(defined) / len(defined) if defined else None), skipped

    macro_p, skip_p = macro([o.precision for o in outcomes])
    macro_r, skip_r = macro([o.recall for o in outcomes])
    macro_f, skip_f = macro([o.f1 for o in outcomes])
    return SuiteReport(
        total=total,
        counts=counts,
        ratios=ratios,
        macro_precision=macro_p,
        macro_recall=macro_r,
        macro_f1=macro_f,
        skipped_precision=skip_p,
        skipped_recall=skip_r,
        skipped_f1=skip_f,
    )
