"""Correctness checks over one round's artifacts.

Every check reads the JSON/TSV files the CLI wrote and compares them with
values the benchmark computed itself (the generator's truth table, the
planned pruning depth, the number of cases and sampled pages). Nothing here
imports the program, so a fault in the program cannot hide a fault in its
own output. Each check returns a list of human-readable problems; an empty
list means the check passed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional


def norm(value: str) -> str:
    """Whitespace-collapsed value, the form both sides are compared in."""
    return " ".join(value.split())


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def check_results(results_dir: Path, truth: dict, case_ids: list, sampled: int) -> tuple:
    """Every executed page's values equal the generator's values.

    Returns ``(problems, executed, correct_cases)``: ``executed`` counts the
    (case, page) results found, which must equal cases x sampled pages, and
    ``correct_cases`` is the set of cases whose every page matched.
    """
    problems: list = []
    executed = 0
    correct_cases: set = set()
    for case_id in case_ids:
        path = results_dir / f"{case_id}.json"
        if not path.exists():
            problems.append(f"{case_id}: no result file")
            continue
        pages = _load(path).get("pages", {})
        executed += len(pages)
        expected = truth.get(case_id, {})
        case_ok = len(pages) == sampled
        if not case_ok:
            problems.append(f"{case_id}: {len(pages)} pages executed, expected {sampled}")
        for page_id, result in sorted(pages.items()):
            if page_id not in expected:
                problems.append(f"{case_id}/{page_id}: page the generator never wrote")
                case_ok = False
                continue
            got = [norm(v) for v in result.get("values", [])]
            want = [norm(v) for v in expected[page_id]]
            if got != want:
                problems.append(f"{case_id}/{page_id}: extracted {got}, page holds {want}")
                case_ok = False
        if case_ok:
            correct_cases.add(case_id)
    if executed != len(case_ids) * sampled:
        problems.append(
            f"executed {executed} pages, expected {len(case_ids)} cases x {sampled} pages"
        )
    return problems, executed, correct_cases


def check_eval(report_tsv: Path, per_case_json: Path, case_ids: list, correct_cases: set) -> list:
    """``eval``'s own labels and Correct share agree with :func:`check_results`."""
    problems: list = []
    labels = {rec["case_id"]: rec["label"] for rec in _load(per_case_json)}
    if sorted(labels) != sorted(case_ids):
        problems.append(f"eval labelled {len(labels)} cases, expected {len(case_ids)}")
    for case_id, label in sorted(labels.items()):
        if (label == "Correct") != (case_id in correct_cases):
            problems.append(f"{case_id}: eval says {label}, page values say otherwise")
    header, row = report_tsv.read_text(encoding="utf-8").splitlines()[:2]
    cells = dict(zip(header.split("\t"), row.split("\t")))
    want = f"{100 * len(correct_cases) / max(len(case_ids), 1):.2f}"
    if cells.get("Correct") != want:
        problems.append(f"report Correct={cells.get('Correct')}, page values give {want}")
    return problems


def check_traces(
    traces_dir: Path,
    d_max: int,
    expected_traces: int,
    planned_pruning: Optional[int] = None,
) -> tuple:
    """Loop bounds, monotone compression and, if planned, pruning depth.

    Returns ``(problems, traces)`` where ``traces`` maps file name to the
    parsed trace record for callers that derive counts from them.
    """
    problems: list = []
    traces = {p.name: _load(p) for p in sorted(traces_dir.glob("*.json"))}
    if len(traces) != expected_traces:
        problems.append(f"{len(traces)} traces written, expected {expected_traces}")
    for name, trace in traces.items():
        steps = trace["steps"]
        if len(steps) > d_max:
            problems.append(f"{name}: {len(steps)} steps exceed d_max={d_max}")
        metrics = [(s["metrics_before"]["token_count"], s["metrics_before"]["height"]) for s in steps]
        for (tok_a, h_a), (tok_b, h_b) in zip(metrics, metrics[1:]):
            if tok_b > tok_a or h_b > h_a:
                problems.append(f"{name}: tree grew from {tok_a}/{h_a} to {tok_b}/{h_b}")
                break
        sequence = trace.get("sequence")
        if sequence is None:
            problems.append(f"{name}: no rule accepted ({trace.get('failure_reason')})")
        elif planned_pruning is not None and len(sequence["steps"]) - 1 != planned_pruning:
            problems.append(
                f"{name}: {len(sequence['steps']) - 1} pruning steps, planned {planned_pruning}"
            )
    return problems, traces


def exchange_chars(prompt: str, attempts: int, reminder: str) -> int:
    """Characters one model exchange sent, counting reminder retries.

    An exchange records the prompt of its last attempt; earlier attempts
    sent the same prompt without the reminder.
    """
    if attempts > 1 and reminder and prompt.endswith(reminder):
        return len(prompt) - len(reminder) + (attempts - 1) * len(prompt)
    return attempts * len(prompt)


def prompt_chars(trace: dict, reminder: str) -> int:
    """Characters of every prompt a trace sent, counting reminder retries."""
    return sum(
        exchange_chars(exchange["prompt"], exchange["attempts"], reminder)
        for step in trace["steps"]
        for exchange in step["exchanges"]
    )
