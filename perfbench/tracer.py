"""Spans around the calls into each layer, recorded from outside the program.

:class:`Tracer` replaces a function with a timing wrapper in every
``wrapsmith`` module namespace that holds it, which is where callers look it
up (``wrapsmith.cli.parse_html``, ``wrapsmith.executor.xp.evaluate`` through
the module, ``wrapsmith.generation.prune`` ...). Methods are wrapped on
their class. Spans stay in memory as tuples and are written once at the end.
Nothing in ``src/`` is edited; :meth:`Tracer.uninstall` restores every
original.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Callable, Optional

from checks import exchange_chars

class Tracer:
    """Records spans ``(id, parent id, name, start, end, note)``.

    ``note`` is an optional small value a target's observer derived from the
    call (bytes parsed, axis class, attempts ...).
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = [0]
        self._next = 1
        self._patched: list = []  # (owner, attribute, original)

    # -- spans ----------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, None))

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                note = observe(args, result) if observe is not None else None
                spans.append((sid, parent, name, start, end, note))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ---------------------------------------------------------------
    def install(self, targets: list) -> None:
        """Wrap each ``(module, attribute, observer)`` target.

        ``attribute`` is a function name or ``Class.method``; its spans are
        named after the module and the function, as in ``dom.to_html``. A
        function is replaced in every loaded ``wrapsmith`` module that binds
        it, so calls through ``from x import f`` names and through module
        attributes are both seen.
        """
        modules = [m for n, m in sorted(sys.modules.items()) if n == "wrapsmith" or n.startswith("wrapsmith.")]
        for module_name, attribute, observe in targets:
            module = importlib.import_module(module_name)
            name = f"{module_name.rsplit('.', 1)[-1]}.{attribute.rsplit('.', 1)[-1]}"
            if "." in attribute:
                cls_name, meth = attribute.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patched.append((owner, meth, original))
                setattr(owner, meth, self._wrap(name, original, observe))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(name, original, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    # -- output -----------------------------------------------------------------
    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# --------------------------------------------------------------------------
# What to wrap, and what each wrapper notes about the call
# --------------------------------------------------------------------------

_AXIS_CLASS: dict = {}


def axis_class(expression: str) -> str:
    """Bucket an XPath by its most expensive axis use.

    ``sibling`` if any step uses a sibling axis; else ``parent`` for ``..``
    or an ancestor axis; else ``string`` when a predicate compares or scans
    an element's string-value (``contains(., ...)``, ``.='...'``,
    ``[th='...']``); else ``child`` (child/descendant only). Expressions the
    program cannot parse count as ``child``.
    """
    cached = _AXIS_CLASS.get(expression)
    if cached is not None:
        return cached
    from wrapsmith import xpath as xp

    try:
        ast = xp.parse_xpath(expression)
    except xp.XPathSyntaxError:
        _AXIS_CLASS[expression] = "child"
        return "child"
    axes: set = set()
    string_scan = False

    def element_operand(expr) -> bool:
        if isinstance(expr, xp.UnionExpr):
            return any(element_operand(p) for p in expr.paths)
        if isinstance(expr, xp.Path) and expr.steps:
            last = expr.steps[-1]
            return last.axis != "attribute" and not isinstance(last.test, xp.TextTest)
        return False

    def walk(expr) -> None:
        nonlocal string_scan
        if isinstance(expr, xp.UnionExpr):
            for path in expr.paths:
                walk(path)
        elif isinstance(expr, xp.Path):
            for step in expr.steps:
                axes.add(step.axis)
                for predicate in step.predicates:
                    walk(predicate)
        elif isinstance(expr, xp.BinOp):
            if expr.op not in ("and", "or") and (
                element_operand(expr.left) or element_operand(expr.right)
            ):
                string_scan = True
            walk(expr.left)
            walk(expr.right)
        elif isinstance(expr, xp.FuncCall):
            if expr.name in ("contains", "starts-with", "string") and any(
                element_operand(a) for a in expr.args
            ):
                string_scan = True
            for arg in expr.args:
                walk(arg)

    walk(ast)
    if axes & {"following-sibling", "preceding-sibling"}:
        result = "sibling"
    elif axes & {"parent", "ancestor", "ancestor-or-self"}:
        result = "parent"
    elif string_scan:
        result = "string"
    else:
        result = "child"
    _AXIS_CLASS[expression] = result
    return result


def _note_parse(args, result):
    return len(args[0])


def _note_evaluate(args, result):
    return axis_class(args[1])


def _note_complete(args, result):
    if result is None:
        return None
    from wrapsmith.gateway import JSON_REMINDER

    return [result.attempts, exchange_chars(result.prompt, result.attempts, JSON_REMINDER)]


def _note_generate(args, result):
    if result is None:
        return None
    _, trace = result
    decisions = [s.decision for s in trace.steps]
    stepbacks = [d for d in decisions if d.startswith("stepback(")]
    climbs = sum(int(d[len("stepback("):-1]) for d in stepbacks)
    return [len(trace.steps), len(stepbacks), climbs]


TARGETS = [
    ("wrapsmith.dataset", "load_case", None),
    ("wrapsmith.dataset", "dump_json", None),
    ("wrapsmith.dataset", "build_cases", None),
    ("wrapsmith.dom", "parse_html", _note_parse),
    ("wrapsmith.dom", "preprocess", None),
    ("wrapsmith.dom", "measure", None),
    ("wrapsmith.dom", "DocumentTree.to_html", None),
    ("wrapsmith.dom", "DocumentTree.subtree", None),
    ("wrapsmith.xpath", "evaluate", _note_evaluate),
    ("wrapsmith.executor", "extract", None),
    ("wrapsmith.executor", "eval_text", None),
    ("wrapsmith.executor", "prune", None),
    ("wrapsmith.gateway", "LlmGateway.complete", _note_complete),
    ("wrapsmith.gateway", "extract_json_object", None),
    ("wrapsmith.gateway", "judge_contains", None),
    ("wrapsmith.generation", "generate", _note_generate),
    ("wrapsmith.synthesis", "cross_execute", None),
    ("wrapsmith.synthesis", "synthesize", None),
    ("wrapsmith.evaluation", "classify_case", None),
    ("wrapsmith.analysis", "sequence_length_histogram", None),
    ("wrapsmith.analysis", "fragility_report", None),
    ("wrapsmith.analysis", "breakeven_pages", None),
    ("wrapsmith.fixtures", "build_synthetic_corpus", None),
]

STAGES = ("prepare", "generate", "synthesize", "run", "eval", "analyze")
AXIS_CLASSES = ("child", "sibling", "parent", "string")


def layer_metrics(spans: list, rounds: int, run_pages: int, setup_spans: list) -> dict:
    """Per-layer figures, each per traced pipeline round.

    ``run_pages`` is the number of distinct pages ``run`` executes on in
    one round; ``setup_spans`` are the spans of the traced set-ups.
    """
    per = max(rounds, 1)
    parent_of = {s[0]: s[1] for s in spans}
    stage_spans = {s[0]: s[2][len("cli."):] for s in spans if s[2].startswith("cli.")}

    def stage(span) -> str:
        sid = span[1]
        while sid and sid not in stage_spans:
            sid = parent_of.get(sid, 0)
        return stage_spans.get(sid, "")

    time_of: dict = {}
    calls: dict = {}
    notes: dict = {}
    for span in spans:
        name = span[2]
        time_of[name] = time_of.get(name, 0.0) + (span[4] - span[3])
        calls[name] = calls.get(name, 0) + 1
        if span[5] is not None:
            notes.setdefault(name, []).append(span)

    def t(name: str) -> float:
        return time_of.get(name, 0.0) / per

    def n(name: str) -> float:
        return calls.get(name, 0) / per

    out: dict = {}
    for st in STAGES:
        out[f"cli.{st}_s"] = (t(f"cli.{st}"), "s")
    out["dataset.load_case_s"] = (t("dataset.load_case"), "s")
    out["dataset.load_case_calls"] = (n("dataset.load_case"), "count")
    out["dataset.dump_json_s"] = (t("dataset.dump_json"), "s")
    out["dataset.dump_json_calls"] = (n("dataset.dump_json"), "count")
    out["dataset.build_cases_s"] = (t("dataset.build_cases"), "s")

    parses = notes.get("dom.parse_html", [])
    run_parses = sum(1 for s in parses if stage(s) == "run")
    out["dom.parse_html_s"] = (t("dom.parse_html"), "s")
    out["dom.parse_html_calls"] = (n("dom.parse_html"), "count")
    out["dom.parse_html_bytes"] = (sum(s[5] for s in parses) / per, "bytes")
    out["dom.preprocess_s"] = (t("dom.preprocess"), "s")
    out["dom.parses_per_page"] = (run_parses / per / max(run_pages, 1), "parses/page")
    out["dom.measure_s"] = (t("dom.measure"), "s")
    out["dom.to_html_s"] = (t("dom.to_html"), "s")
    out["dom.subtree_s"] = (t("dom.subtree"), "s")

    out["xpath.evaluate_s"] = (t("xpath.evaluate"), "s")
    out["xpath.evaluate_calls"] = (n("xpath.evaluate"), "count")
    by_class = {c: 0.0 for c in AXIS_CLASSES}
    for s in notes.get("xpath.evaluate", []):
        by_class[s[5]] += s[4] - s[3]
    for c in AXIS_CLASSES:
        out[f"xpath.evaluate.{c}_s"] = (by_class[c] / per, "s")

    for fn in ("extract", "eval_text", "prune"):
        out[f"executor.{fn}_s"] = (t(f"executor.{fn}"), "s")
        out[f"executor.{fn}_calls"] = (n(f"executor.{fn}"), "count")

    completes = notes.get("gateway.complete", [])
    n_complete = max(len(completes), 1)
    out["gateway.complete_s"] = (t("gateway.complete"), "s")
    out["gateway.complete_calls"] = (n("gateway.complete"), "count")
    out["gateway.extract_json_object_s"] = (t("gateway.extract_json_object"), "s")
    out["gateway.judge_contains_s"] = (t("gateway.judge_contains"), "s")
    out["gateway.judge_contains_calls"] = (n("gateway.judge_contains"), "count")
    out["gateway.attempts_per_call"] = (sum(s[5][0] for s in completes) / n_complete, "attempts/call")
    out["gateway.prompt_chars"] = (sum(s[5][1] for s in completes) / n_complete, "chars/call")

    generates = notes.get("generation.generate", [])
    n_gen = max(len(generates), 1)
    model_calls = sum(1 for s in completes if stage(s) == "generate")
    out["generation.generate_s"] = (t("generation.generate"), "s")
    out["generation.iterations"] = (sum(s[5][0] for s in generates) / n_gen, "iters/seed")
    out["generation.stepbacks"] = (sum(s[5][1] for s in generates) / n_gen, "count/seed")
    out["generation.climbs"] = (sum(s[5][2] for s in generates) / n_gen, "count/seed")
    out["generation.calls_per_rule"] = (model_calls / n_gen, "calls/rule")

    out["synthesis.cross_execute_s"] = (t("synthesis.cross_execute"), "s")
    out["synthesis.synthesize_s"] = (t("synthesis.synthesize"), "s")
    out["evaluation.classify_case_s"] = (t("evaluation.classify_case"), "s")
    for fn in ("sequence_length_histogram", "fragility_report", "breakeven_pages"):
        out[f"analysis.{fn}_s"] = (t(f"analysis.{fn}"), "s")

    corpus = sorted(s[4] - s[3] for s in setup_spans if s[2] == "fixtures.build_synthetic_corpus")
    out["fixtures.build_synthetic_corpus_s"] = (corpus[len(corpus) // 2] if corpus else 0.0, "s")
    return out
