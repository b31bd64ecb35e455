"""Batch pipeline: prepare cases, generate rules, synthesize, run, score.

Every subcommand is idempotent given the same inputs, flags and seed; all
artifacts are JSON or TSV with sorted keys so reruns are byte-identical.
Exit codes: 0 success, 1 usage error, 2 backend error, 3 data error.
Failures print a machine-readable record to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from . import analysis, fixtures
from .dataset import (
    OPTIONAL,
    CorpusManifest,
    DatasetError,
    PageRecord,
    WebpageCase,
    build_cases,
    derive_seed,
    dump_json,
    from_record,
    load_case,
    read_record,
    to_record,
)
from .dom import DocumentTree, DomError, parse_html
from .dom import preprocess  # noqa: F401 - the benchmark's tracer test looks it up here
from .evaluation import Label, aggregate, classify_case
from .executor import ActionSequence, ExtractionResult, ExtractionStatus, extract
from .gateway import BackendConfig, GatewayError, JudgeMode, LlmGateway
from .generation import GenerationTrace, Strategy, StrategyConfig, generate
from .synthesis import NoCandidates, TooFewPages, cross_execute, select_seeds, synthesize


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def positive_int(text: str) -> int:
    """Argparse type for counts: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _error_record(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


@dataclass(frozen=True)
class StageMeta:
    """A stage directory's ``_meta.json``: the corpus root, and the sample
    size and seed ``prepare`` drew the cases with."""

    corpus_root: str
    sample: Optional[int] = field(default=None, metadata=OPTIONAL)
    seed: Optional[int] = field(default=None, metadata=OPTIONAL)


def _load_meta(directory: Path) -> tuple[StageMeta, Path]:
    """A stage directory's ``_meta.json`` record and the corpus root it names."""
    meta_path = directory / "_meta.json"
    if not meta_path.exists():
        raise DatasetError(f"missing _meta.json in {directory}")
    meta = read_record(meta_path, partial(from_record, StageMeta))
    return meta, Path(meta.corpus_root)


def _case_files(directory: Path) -> list[Path]:
    return sorted(p for p in directory.glob("*.json") if not p.name.startswith("_"))


@dataclass(frozen=True)
class SeedCandidate:
    """One seed page of a candidates file; ``sequence`` is ``None`` where
    generation failed."""

    page_id: str
    html_path: str
    gold: tuple[str, ...]
    proposed_values: tuple[str, ...]
    sequence: Optional[ActionSequence]
    trace_file: str


@dataclass(frozen=True)
class CandidatesFile:
    """A ``generate`` output file: one case's seed candidates."""

    case_id: str
    instruction: str
    strategy: str
    seeds: tuple[SeedCandidate, ...]


@dataclass(frozen=True)
class SequenceFile:
    """A ``synthesize`` output file: the candidates, their results on every
    seed and the chosen sequence (``None`` when no seed yielded one)."""

    case_id: str
    chosen_index: Optional[int]
    candidates: tuple[ActionSequence, ...]
    matrix: tuple[tuple[ExtractionResult, ...], ...]
    seed_ids: tuple[str, ...]
    sequence: Optional[ActionSequence]


@dataclass(frozen=True)
class ResultsFile:
    """A ``run`` output file: the chosen sequence's result on each page."""

    case_id: str
    pages: dict[str, ExtractionResult]


def _load_page(corpus_root: Path, html_path: str, page_id: str) -> DocumentTree:
    raw = (corpus_root / html_path).read_text(encoding="utf-8")
    return parse_html(raw, page_id)


@dataclass
class _Walk:
    """One case's pass over its pages: ``visit(i, page)`` for each of
    ``pages``, in any order, then ``done()``. A ``GatewayError`` from a visit
    or from ``done`` ends the walk and is kept in ``failure``; after a failed
    visit, the case's remaining pages are skipped and ``done`` is not
    called."""

    pages: Sequence[PageRecord | SeedCandidate]
    visit: Callable[[int, DocumentTree], None]
    done: Callable[[], None]
    failure: Optional[GatewayError] = None


def _walk_websites(
    corpus_root: Path, websites: Iterable[list[_Walk]], jobs: int
) -> Optional[GatewayError]:
    """Run the walks of each website, which share its page sample, loading
    each distinct page once for all of them, one page at a time. Every walk
    is tried; the first failure in plan order is returned.

    ``jobs > 1`` runs websites on a thread pool. One job stays on this
    thread: a worker thread's own malloc arena adds ~0.6 MB to peak RSS on
    46 KB pages.
    """
    websites = list(websites)

    def attempt(walk: _Walk, step: Callable, *args) -> bool:
        try:
            step(*args)
        except GatewayError as exc:
            walk.failure = exc  # the other walks still run
            return False
        return True

    def walk_website(walks: list[_Walk]) -> None:
        visits: dict[tuple[str, str], list[tuple[_Walk, int]]] = {}
        left = {id(walk): len(walk.pages) for walk in walks}
        for walk in walks:
            if not walk.pages:
                attempt(walk, walk.done)
            for index, record in enumerate(walk.pages):
                visits.setdefault((record.html_path, record.page_id), []).append((walk, index))
        for (html_path, page_id), page_visits in visits.items():
            page = _load_page(corpus_root, html_path, page_id)
            for walk, index in page_visits:
                if walk.failure is None and attempt(walk, walk.visit, index, page):
                    left[id(walk)] -= 1
                    if not left[id(walk)]:
                        attempt(walk, walk.done)
            # Drop the page before loading the next: nodes link only to their
            # children, so it is freed here, not at a later cyclic collection.
            del page

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(walk_website, websites))
    else:
        for walks in websites:
            walk_website(walks)
    return next((walk.failure for walks in websites for walk in walks if walk.failure), None)


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_prepare(args: argparse.Namespace) -> int:
    manifest = CorpusManifest.load(args.manifest)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cases = build_cases(manifest, sample_n=args.sample, rng_seed=args.seed)
    for case in cases:
        dump_json(to_record(case), out / f"{case.case_id}.json")
    meta = StageMeta(str(manifest.root.resolve()), args.sample, args.seed)
    dump_json(to_record(meta), out / "_meta.json")
    print(f"prepared {len(cases)} case(s) in {out}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    cases_dir = Path(args.cases)
    meta, corpus_root = _load_meta(cases_dir)
    out = Path(args.out)
    (out / "candidates").mkdir(parents=True, exist_ok=True)
    (out / "traces").mkdir(parents=True, exist_ok=True)
    config = BackendConfig.from_file(args.backend)
    gateway = LlmGateway(config)
    cfg = StrategyConfig(
        strategy=Strategy(args.strategy),
        d_max=args.dmax,
        judge_mode=JudgeMode(args.judge),
    )

    def plan(case: WebpageCase) -> _Walk:
        seed_ids = select_seeds(
            case.page_ids, args.seeds_per_case, derive_seed(args.seed, "seeds", case.case_id)
        )
        by_id = {p.page_id: p for p in case.pages}
        records = [by_id[page_id] for page_id in seed_ids]
        seeds: list[Optional[SeedCandidate]] = [None for _ in records]

        def visit(index: int, page: DocumentTree) -> None:
            record = records[index]
            sequence, trace = generate(page, case.instruction, gateway, cfg)
            trace.html_path = str((corpus_root / record.html_path).resolve())
            trace_file = f"{case.case_id}__{record.page_id}.json"
            dump_json(to_record(trace), out / "traces" / trace_file)
            seeds[index] = SeedCandidate(
                record.page_id, record.html_path, record.gold, trace.final_values,
                sequence, f"traces/{trace_file}",
            )

        def done() -> None:
            candidates_file = CandidatesFile(
                case.case_id, case.instruction, cfg.strategy.value, tuple(seeds)
            )
            dump_json(to_record(candidates_file), out / "candidates" / f"{case.case_id}.json")

        return _Walk(records, visit, done)

    websites: dict[tuple[str, str], list[_Walk]] = {}
    skipped = 0
    for path in _case_files(cases_dir):
        case = load_case(path)
        # dump_json writes atomically, so an existing file is a whole checkpoint.
        if (out / "candidates" / f"{case.case_id}.json").exists() and not args.force:
            skipped += 1
            continue
        websites.setdefault((case.domain, case.website), []).append(plan(case))

    # Every case is tried, so a rerun resumes from the checkpoints.
    failure = _walk_websites(corpus_root, websites.values(), args.jobs)
    dump_json(to_record(meta), out / "_meta.json")
    if failure is not None:
        raise failure
    planned = sum(map(len, websites.values()))
    print(f"generated {planned} case(s), skipped {skipped} checkpointed")
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    candidates_dir = Path(args.candidates)
    meta, corpus_root = _load_meta(candidates_dir)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gateway = LlmGateway(BackendConfig.from_file(args.backend)) if args.backend else None

    def plan(path: Path) -> _Walk:
        candidates_file = read_record(path, partial(from_record, CandidatesFile))
        # A seed without a sequence is one where generation failed.
        seeds = [seed for seed in candidates_file.seeds if seed.sequence is not None]
        candidates = tuple(seed.sequence for seed in seeds)
        seed_ids = tuple(seed.page_id for seed in seeds)
        columns: list[list] = [[] for _ in seeds]  # matrix columns, one per seed

        def visit(index: int, page: DocumentTree) -> None:
            columns[index] = [row[0] for row in cross_execute(candidates, [page])]

        def done() -> None:
            matrix = tuple(zip(*columns))
            chosen, index = None, None
            if candidates:
                choice = synthesize(
                    candidates, matrix, [seed.proposed_values for seed in seeds],
                    gateway=gateway, instruction=candidates_file.instruction, seed_ids=seed_ids,
                    gold_values=[seed.gold for seed in seeds] if args.gold else None,
                )
                chosen, index = choice.sequence, choice.index
            sequence_file = SequenceFile(
                candidates_file.case_id, index, candidates, matrix, seed_ids, chosen
            )
            dump_json(to_record(sequence_file), out / f"{candidates_file.case_id}.json")

        return _Walk(seeds, visit, done)

    walks = [plan(path) for path in _case_files(candidates_dir / "candidates")]
    # Candidates files do not name their website, but a page's (html_path,
    # page_id) is unique in a corpus, so every case goes in one group.
    failure = _walk_websites(corpus_root, [walks], 1)
    dump_json(to_record(meta), out / "_meta.json")
    if failure is not None:
        raise failure
    print(f"synthesized {len(walks)} case(s)")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    sequences_dir = Path(args.sequences)
    cases_dir = Path(args.cases)
    meta, corpus_root = _load_meta(cases_dir)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def plan(name: str, case_id: str, sequence: Optional[ActionSequence],
             case: WebpageCase) -> _Walk:
        pages: dict[str, ExtractionResult] = {}
        if sequence is None:
            no_match = ExtractionResult((), ExtractionStatus.NO_MATCH)
            pages = {p.page_id: no_match for p in case.pages}

        def visit(index: int, page: DocumentTree) -> None:
            pages[case.pages[index].page_id] = extract(page, sequence)

        def done() -> None:
            dump_json(to_record(ResultsFile(case_id, pages)), out / name)

        # A case without a sequence needs no page.
        return _Walk(case.pages if sequence is not None else (), visit, done)

    websites: dict[tuple[str, str], list[_Walk]] = {}
    files = _case_files(sequences_dir)
    for path in files:
        chosen = read_record(path, partial(from_record, SequenceFile))
        case = load_case(cases_dir / f"{chosen.case_id}.json")
        websites.setdefault((case.domain, case.website), []).append(
            plan(path.name, chosen.case_id, chosen.sequence, case)
        )

    _walk_websites(corpus_root, websites.values(), args.jobs)
    dump_json(to_record(meta), out / "_meta.json")
    print(f"ran sequences for {len(files)} case(s)")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    results_dir = Path(args.results)
    cases_dir = Path(args.cases)
    outcomes = []
    for path in _case_files(results_dir):
        results = read_record(path, partial(from_record, ResultsFile))
        case = load_case(cases_dir / f"{results.case_id}.json")
        pages = []
        for page_record in case.pages:
            result = results.pages.get(page_record.page_id)
            extracted = result.values if result is not None else ()
            pages.append((extracted, list(page_record.gold), page_record.page_id))
        outcomes.append(classify_case(results.case_id, pages))
    if not outcomes:
        raise DatasetError(f"no result files in {results_dir}")
    report = aggregate(outcomes)
    table = report.TSV_HEADER + "\n" + report.to_tsv_row(args.model, args.method) + "\n"
    Path(args.out).write_text(table, encoding="utf-8")
    if args.per_case:
        dump_json(to_record(outcomes), args.per_case)
    print(
        f"cases={report.total} "
        f"Correct={100 * report.ratios[Label.CORRECT]:.2f}% "
        f"Unex={100 * report.ratios[Label.UNEX]:.2f}%"
    )
    print(f"report written to {args.out}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    traces_dir = Path(args.traces)
    sequences_dir = Path(args.sequences)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    load_trace = partial(from_record, GenerationTrace)
    traces = [read_record(p, load_trace) for p in sorted(traces_dir.glob("*.json"))]
    histogram = analysis.sequence_length_histogram(traces)
    (out / "lengths.tsv").write_text(histogram.to_tsv(args.dmax) + "\n", encoding="utf-8")

    sequences = []
    for path in _case_files(sequences_dir):
        sequence = read_record(path, partial(from_record, SequenceFile)).sequence
        if sequence is not None:
            sequences.append(sequence)
    fragility = analysis.fragility_report(sequences)
    (out / "fragility.tsv").write_text(fragility.to_tsv() + "\n", encoding="utf-8")

    lines = ["case\ttoken_ratio\theight_ratio"]
    token_ratios: list[float] = []
    height_ratios: list[float] = []
    for trace in traces:
        if not trace.succeeded or not trace.steps:
            continue
        first = trace.steps[0].metrics_before
        last = trace.steps[-1].metrics_before
        if first.token_count == 0 or first.height == 0:
            continue
        token_ratio = last.token_count / first.token_count
        height_ratio = last.height / first.height
        token_ratios.append(token_ratio)
        height_ratios.append(height_ratio)
        lines.append(f"{trace.page_id}\t{token_ratio:.4f}\t{height_ratio:.4f}")
    if token_ratios:
        lines.append(
            "mean\t"
            f"{sum(token_ratios) / len(token_ratios):.4f}\t"
            f"{sum(height_ratios) / len(height_ratios):.4f}"
        )
    (out / "compression.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    params = analysis.CostModelParams(
        n_seeds=args.ns,
        t_generate=args.tg if args.tg is not None else args.dmax * args.td,
        t_synthesize=args.ts if args.ts is not None else args.td,
        t_execute=args.te,
        t_direct=args.td,
    )
    try:
        threshold = analysis.breakeven_pages(params)
        breakeven = str(threshold)
    except analysis.NoBreakeven:
        breakeven = "-"
    (out / "breakeven.tsv").write_text(
        "n_seeds\tt_generate\tt_synthesize\tt_execute\tt_direct\tpages\n"
        f"{params.n_seeds}\t{params.t_generate}\t{params.t_synthesize}\t"
        f"{params.t_execute}\t{params.t_direct}\t{breakeven}\n",
        encoding="utf-8",
    )
    print(f"analysis tables written to {out}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    trace = read_record(args.trace, partial(from_record, GenerationTrace))
    if not trace.html_path:
        raise DatasetError("trace does not reference its page file")
    page = _load_page(Path(), trace.html_path, trace.page_id)
    if trace.sequence is None:
        raise DatasetError("trace recorded no sequence; nothing to replay")
    result = extract(page, trace.sequence)
    if tuple(result.values) != tuple(trace.final_values):
        _error_record(
            "ReplayMismatch",
            f"recorded {list(trace.final_values)} but re-execution yields {list(result.values)}",
        )
        return 3
    print(f"replay ok: {list(result.values)}")
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    built = fixtures.build_synthetic_corpus(
        args.out, sites=args.sites, pages_per_site=args.pages
    )
    print(f"synthetic corpus written to {built.root}")
    print(f"manifest: {built.manifest_path}")
    print(f"backend config: {built.backend_path}")
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="wrapsmith", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="build case files from a corpus manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--sample", type=positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("generate", help="generate candidate sequences per case")
    p.add_argument("--cases", required=True)
    p.add_argument("--strategy", choices=[s.value for s in Strategy], default="progressive")
    p.add_argument("--backend", required=True, help="backend config JSON file")
    p.add_argument("--dmax", type=positive_int, default=5)
    p.add_argument("--seeds-per-case", type=positive_int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--judge", choices=[m.value for m in JudgeMode], default="deterministic")
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("synthesize", help="choose one sequence per case")
    p.add_argument("--candidates", required=True)
    p.add_argument("--backend", help="backend config JSON file; ranks with the model")
    p.add_argument("--gold", action="store_true", help="rank against gold labels")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("run", help="execute chosen sequences on all case pages")
    p.add_argument("--sequences", required=True)
    p.add_argument("--cases", required=True)
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="score results and write the report table")
    p.add_argument("--results", required=True)
    p.add_argument("--cases", required=True)
    p.add_argument("--model", default="-")
    p.add_argument("--method", default="-")
    p.add_argument("--per-case")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="compression, length, fragility, break-even tables")
    p.add_argument("--traces", required=True)
    p.add_argument("--sequences", required=True)
    p.add_argument("--dmax", type=positive_int, default=5)
    p.add_argument("--ns", type=positive_int, default=3)
    p.add_argument("--tg", type=float, default=None, help="per-seed generation time")
    p.add_argument("--ts", type=float, default=None, help="synthesis time")
    p.add_argument("--te", type=float, default=0.0, help="per-page execution time")
    p.add_argument("--td", type=float, default=1.0, help="per-page direct extraction time")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("replay", help="re-execute a recorded trace without the model")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("corpus", help="build the synthetic offline fixture corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--sites", type=positive_int, default=10)
    p.add_argument("--pages", type=positive_int, default=20)
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        _error_record("UsageError", str(exc))
        return 1
    except GatewayError as exc:
        _error_record(type(exc).__name__, str(exc))
        return 2
    except (
        DatasetError,
        DomError,
        TooFewPages,
        NoCandidates,
        OSError,  # a missing file, or a directory where a file should be
        ValueError,
        RecursionError,  # e.g. a JSON record nested deeper than the decoder follows
    ) as exc:
        _error_record(type(exc).__name__, str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
