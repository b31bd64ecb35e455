"""Wrapper synthesis for template websites.

Given same-site webpages and an extraction instruction, the pipeline asks a
language model to build a reusable XPath action sequence (prefix steps
prune the DOM, the final step extracts values), selects the candidate that
generalizes across seed pages, executes it over the whole page set, and
scores the outcome with a six-way executability label.
"""

from .dom import DocumentTree, TreeMetrics, measure, parse_html
from .executor import (
    ActionSequence,
    ExtractionResult,
    ExtractionStatus,
    Provenance,
    eval_text,
    extract,
)
from .evaluation import CaseOutcome, Label, SuiteReport, aggregate, classify_case
from .gateway import BackendConfig, JudgeMode, LlmGateway, ScriptTable
from .generation import GenerationTrace, Strategy, StrategyConfig, generate
from .synthesis import cross_execute, select_seeds, synthesize

__version__ = "0.1.0"

__all__ = [
    "ActionSequence",
    "BackendConfig",
    "CaseOutcome",
    "DocumentTree",
    "ExtractionResult",
    "ExtractionStatus",
    "GenerationTrace",
    "JudgeMode",
    "Label",
    "LlmGateway",
    "Provenance",
    "ScriptTable",
    "Strategy",
    "StrategyConfig",
    "SuiteReport",
    "TreeMetrics",
    "aggregate",
    "classify_case",
    "cross_execute",
    "eval_text",
    "extract",
    "generate",
    "measure",
    "parse_html",
    "select_seeds",
    "synthesize",
]
