"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they pass.
"""

import json
import random
import re
import time
from pathlib import Path

import pytest

from oracles import (
    et_findall,
    mirror_etree,
    random_page_html,
    random_simple_xpath,
)
from conftest import json_answer, make_gateway
from wrapsmith.analysis import CostModelParams, breakeven_pages, histogram_mean
from wrapsmith.cli import main
from wrapsmith.dataset import derive_seed, from_record, load_case
from wrapsmith.dom import parse_html
from wrapsmith.evaluation import Label, classify_case
from wrapsmith.executor import eval_text, normalize_values, prune
from wrapsmith.generation import GenerationTrace, StrategyConfig, generate
from wrapsmith.synthesis import select_seeds
from wrapsmith.xpath import evaluate

D_MAX = 5


def run_cli(*args):
    return main([str(a) for a in args])


def run_pipeline(corpus, out_root: Path, seed: int, n_seeds: int) -> dict:
    cases = out_root / "cases"
    gen = out_root / "gen"
    seq = out_root / "seq"
    results = out_root / "results"
    report = out_root / "report.tsv"
    started = time.monotonic()
    assert run_cli("prepare", "--manifest", corpus.manifest_path, "--sample", "20",
                   "--seed", seed, "--out", cases) == 0
    assert run_cli("generate", "--cases", cases, "--backend", corpus.backend_path,
                   "--seed", seed, "--seeds-per-case", n_seeds, "--dmax", D_MAX,
                   "--out", gen) == 0
    assert run_cli("synthesize", "--candidates", gen, "--out", seq) == 0
    assert run_cli("run", "--sequences", seq, "--cases", cases, "--out", results) == 0
    assert run_cli("eval", "--results", results, "--cases", cases,
                   "--model", "scripted", "--method", "progressive",
                   "--out", report) == 0
    elapsed = time.monotonic() - started
    header, row = report.read_text().splitlines()
    cells = dict(zip(header.split("\t"), row.split("\t")))
    return {
        "root": out_root,
        "cases": cases,
        "gen": gen,
        "seq": seq,
        "results": results,
        "report": report,
        "elapsed": elapsed,
        "correct": float(cells["Correct"]) / 100.0,
        "unex": float(cells["Unex"]) / 100.0,
    }


@pytest.fixture(scope="session")
def pipeline(synthetic_corpus, tmp_path_factory):
    return run_pipeline(synthetic_corpus, tmp_path_factory.mktemp("run-a"), seed=1, n_seeds=3)


def test_criterion_1_scripted_end_to_end(pipeline):
    assert pipeline["correct"] >= 0.95, f"Correct ratio {pipeline['correct']}"
    assert pipeline["unex"] <= 0.05, f"Unex ratio {pipeline['unex']}"
    assert pipeline["elapsed"] < 60.0, f"pipeline took {pipeline['elapsed']:.1f}s"
    print(
        f"\n[PASS] criterion 1: scripted end-to-end Correct="
        f"{pipeline['correct']:.2f} Unex={pipeline['unex']:.2f} "
        f"in {pipeline['elapsed']:.1f}s"
    )


def _random_scenario_transport(rng, page_words):
    """Deterministic scripted responder emitting a fresh answer per call."""
    tags = ["div", "span", "p", "b", "li", "section"]

    def transport(template, prompt):
        roll = rng.random()
        if roll < 0.08:
            return json_answer("", "")  # attribute absent
        if roll < 0.14:
            return "sorry, no json today"  # malformed, exhausts retries
        value = rng.choice(page_words) if rng.random() < 0.5 else f"missing-{rng.randint(0, 9)}"
        pick = rng.random()
        if pick < 0.15:
            xpath = "//div["  # invalid expression
        elif pick < 0.55:
            xpath = random_simple_xpath(rng)
        else:
            tag = rng.choice(tags)
            xpath = f"//{tag}/text()"
        return json_answer(value, xpath)

    return transport


_STEPBACK_RE = re.compile(r"stepback\((\d+)\)")


def test_criterion_2_loop_bounds():
    rng = random.Random(2024)
    checked_stepbacks = 0
    for scenario in range(500):
        page = parse_html(random_page_html(rng), f"scenario-{scenario}")
        words = page.text_content().split() or ["x"]
        gateway = make_gateway(_random_scenario_transport(rng, words), max_retries=0)
        cfg = StrategyConfig(d_max=D_MAX)
        sequence, trace = generate(page, "fuzzed instruction", gateway, cfg)
        assert len(trace.steps) <= D_MAX, f"scenario {scenario} exceeded d_max"
        for step in trace.steps:
            match = _STEPBACK_RE.match(step.decision)
            if match:
                climbs = int(match.group(1))
                assert climbs <= step.metrics_before.height + 2, (
                    f"scenario {scenario}: {climbs} climbs on height "
                    f"{step.metrics_before.height}"
                )
                checked_stepbacks += 1
    assert checked_stepbacks > 0, "fuzz never exercised the step-back loop"
    print(f"\n[PASS] criterion 2: 500 scenarios within d_max={D_MAX}; "
          f"{checked_stepbacks} step-back loops bounded by node depth")


def test_criterion_3_oracle_equivalence():
    rng = random.Random(31415)
    comparisons = 0
    mismatches = 0
    for index in range(100):
        tree = parse_html(random_page_html(rng), f"dom-{index}")
        doc, lookup, et_order = mirror_etree(tree)
        for _ in range(10):
            expression = random_simple_xpath(rng)
            comparisons += 1
            mine = evaluate(tree, expression)
            theirs = et_findall(doc, expression, et_order)
            if [lookup[id(n)] for n in mine] != theirs:
                mismatches += 1
                continue
            mine_text = eval_text(tree, expression)
            expected = normalize_values("".join(e.itertext()) for e in theirs)
            if mine_text.values != expected:
                mismatches += 1
                continue
            if theirs:
                if lookup[id(prune(tree, expression))] is not theirs[0]:
                    mismatches += 1
    assert comparisons == 1000
    assert mismatches == 0
    print("\n[PASS] criterion 3: 1000/1000 evaluator comparisons match the reference engine")


def test_criterion_4_evaluation_partition():
    rng = random.Random(4)
    pool = ["a", "b", "c", "d", "e"]
    counts = {label: 0 for label in Label}
    for index in range(1000):
        pages = [
            (rng.sample(pool, rng.randint(0, 3)), rng.sample(pool, rng.randint(0, 3)))
            for _ in range(rng.randint(1, 4))
        ]
        outcome = classify_case(f"case-{index}", pages)
        counts[outcome.label] += 1
        both_one = outcome.precision == 1.0 and outcome.recall == 1.0
        assert (outcome.label is Label.CORRECT) == both_one
    total = sum(counts.values())
    assert total == 1000
    ratios = [counts[label] / total for label in Label]
    assert abs(sum(ratios) - 1.0) < 1e-9
    print("\n[PASS] criterion 4: 1000 fuzzed cases partition into exactly one label each; "
          f"ratio sum error {abs(sum(ratios) - 1.0):.1e}")


def test_criterion_5_breakeven():
    params = CostModelParams(
        n_seeds=3, t_generate=5.0, t_synthesize=1.0, t_execute=0.0, t_direct=1.0
    )
    assert breakeven_pages(params) == 16
    print("\n[PASS] criterion 5: break-even page count is exactly 16")


def test_criterion_6_length_mean():
    counts = {1: 214, 2: 61, 3: 13, 4: 18, 5: 10}
    mean = histogram_mean(counts)
    assert mean == pytest.approx(1.57, abs=0.01)
    print(f"\n[PASS] criterion 6: histogram (214,61,13,18,10) mean {mean:.4f} = 1.57 +/- 0.01")


def test_criterion_7_monotone_compression(pipeline, synthetic_corpus):
    traces_dir = pipeline["gen"] / "traces"
    checked = 0
    for path in sorted(traces_dir.glob("*.json")):
        trace = from_record(GenerationTrace, json.loads(path.read_text()))
        if not trace.succeeded or not trace.sequence.steps:
            continue
        origin = trace.steps[0].metrics_before
        previous = (1.0, 1.0)
        for step in trace.steps:
            token_ratio = step.metrics_before.token_count / origin.token_count
            height_ratio = step.metrics_before.height / origin.height
            assert 0.0 < token_ratio <= previous[0] and 0.0 < height_ratio <= previous[1]
            previous = (token_ratio, height_ratio)
        checked += 1
    assert checked > 0
    print(f"\n[PASS] criterion 7: compression ratios in (0,1], non-increasing over "
          f"{checked} successful traces")


def test_criterion_8_determinism(pipeline, synthetic_corpus, tmp_path_factory):
    twin = run_pipeline(synthetic_corpus, tmp_path_factory.mktemp("run-b"), seed=1, n_seeds=3)
    compared = 0
    for relative in ("gen/candidates", "gen/traces", "seq", "results"):
        first_dir = pipeline["root"] / relative
        second_dir = twin["root"] / relative
        first_files = sorted(p.name for p in first_dir.glob("*.json"))
        assert first_files == sorted(p.name for p in second_dir.glob("*.json"))
        for name in first_files:
            assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes(), (
                f"{relative}/{name} differs between identical runs"
            )
            compared += 1
    assert pipeline["report"].read_bytes() == twin["report"].read_bytes()
    print(f"\n[PASS] criterion 8: {compared} artifact files plus the report are byte-identical")


def _seed_hitting_outlier(corpus, cases_dir: Path) -> int:
    case_files = sorted(p for p in cases_dir.glob("*.json") if p.name != "_meta.json")
    cases = [load_case(p) for p in case_files]
    for candidate_seed in range(200):
        for case in cases:
            chosen = select_seeds(
                case.page_ids, 1, derive_seed(candidate_seed, "seeds", case.case_id)
            )
            if chosen == ["p00"]:
                return candidate_seed
    raise AssertionError("no seed made any case sample the outlier page")


def test_criterion_9_synthesis_ablation(synthetic_corpus, pipeline, tmp_path_factory):
    seed = _seed_hitting_outlier(synthetic_corpus, pipeline["cases"])
    single = run_pipeline(
        synthetic_corpus, tmp_path_factory.mktemp("run-ns1"), seed=seed, n_seeds=1
    )
    triple = run_pipeline(
        synthetic_corpus, tmp_path_factory.mktemp("run-ns3"), seed=seed, n_seeds=3
    )
    assert single["correct"] <= triple["correct"], (
        f"n_s=1 Correct {single['correct']} > n_s=3 Correct {triple['correct']}"
    )
    assert single["correct"] < 1.0  # the outlier-seeded case actually degraded
    print(
        f"\n[PASS] criterion 9: ablation n_s=1 Correct={single['correct']:.2f} <= "
        f"n_s=3 Correct={triple['correct']:.2f} (seed {seed})"
    )
