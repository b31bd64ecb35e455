"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py`` with ``src/`` on ``PYTHONPATH``. It sets the workload
up ``SETUPS`` times, then repeats whole pipeline rounds (``prepare`` through
``analyze``, each through ``wrapsmith.cli.main``, serially) until the time
is up, checks every round's artifacts, and writes one JSON result.

With ``--trace 1`` the rounds alternate untraced and traced; the per-layer
figures come from the traced rounds and the tracing overhead from the gap
between the two kinds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import tracer as tracing
import workloads

SETUPS = 3


def _import_program(src: Path):
    import wrapsmith
    import wrapsmith.cli  # noqa: F401  (binds every module the CLI uses)
    import wrapsmith.fixtures  # noqa: F401

    where = Path(wrapsmith.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"wrapsmith imported from {where}, not from {src}")
    return wrapsmith.cli.main


def _stage_args(corpus, seed: int, r: Path) -> list:
    return [
        ("prepare", ["prepare", "--manifest", corpus.manifest, "--sample", corpus.sample,
                     "--seed", seed, "--out", r / "cases"]),
        ("generate", ["generate", "--cases", r / "cases", "--backend", corpus.backend,
                      "--strategy", "progressive", "--seeds-per-case", corpus.seeds_per_case,
                      "--seed", seed, "--dmax", workloads.D_MAX, "--jobs", 1, "--out", r / "gen"]),
        ("synthesize", ["synthesize", "--candidates", r / "gen", "--out", r / "seq"]),
        ("run", ["run", "--sequences", r / "seq", "--cases", r / "cases", "--jobs", 1,
                 "--out", r / "results"]),
        ("eval", ["eval", "--results", r / "results", "--cases", r / "cases",
                  "--model", "scripted", "--method", "progressive",
                  "--per-case", r / "per_case.json", "--out", r / "report.tsv"]),
        ("analyze", ["analyze", "--traces", r / "gen" / "traces", "--sequences", r / "seq",
                     "--dmax", workloads.D_MAX, "--out", r / "stats"]),
    ]


def run_round(main, corpus, seed: int, r: Path, trace) -> dict:
    """One pipeline round; returns wall seconds per stage."""
    times = {}
    for stage, argv in _stage_args(corpus, seed, r):
        argv = [str(a) for a in argv]
        span = trace.span(f"cli.{stage}") if trace else contextlib.nullcontext()
        with contextlib.redirect_stdout(io.StringIO()), span:
            start = time.perf_counter()
            status = main(argv)
            times[stage] = time.perf_counter() - start
        if status != 0:
            raise RuntimeError(f"wrapsmith {stage} exited with {status}")
    return times


def check_round(corpus, r: Path, reminder: str) -> dict:
    """All correctness checks on one round; raises if any fails."""
    cases = corpus.case_ids
    sampled = corpus.sampled_per_case
    problems, executed, correct = checks.check_results(r / "results", corpus.truth, cases, sampled)
    problems += checks.check_eval(r / "report.tsv", r / "per_case.json", cases, correct)
    trace_problems, traces = checks.check_traces(
        r / "gen" / "traces", workloads.D_MAX, len(cases) * corpus.seeds_per_case,
        corpus.planned_pruning,
    )
    problems += trace_problems
    synthesized = len([p for p in (r / "seq").glob("*.json") if not p.name.startswith("_")])
    if synthesized != len(cases):
        problems.append(f"synthesized {synthesized} cases, expected {len(cases)}")
    if problems:
        shown = "\n  ".join(problems[:20])
        raise AssertionError(f"{len(problems)} check(s) failed:\n  {shown}")
    return {
        "executed": executed,
        "seeds": len(traces),
        "cases": synthesized,
        "prompt_chars": sum(checks.prompt_chars(t, reminder) for t in traces.values()),
        "pages": len(corpus.sites) * sampled,  # a website's sample is shared by its cases
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    cli_main = _import_program(Path(args.src))
    from wrapsmith.gateway import JSON_REMINDER

    work = Path(args.work)
    build = workloads.BUILDERS[args.workload]

    # -- set-up: once before the rounds and again after each further share of
    # them, so that the median samples the machine at several moments --------
    setup_times = []
    setup_tracer = tracing.Tracer() if args.trace else None

    def set_up() -> list:
        root = work / f"setup{len(setup_times)}"
        if setup_tracer:
            setup_tracer.install(tracing.TARGETS)
        try:
            start = time.perf_counter()
            built = build(root, args.seed)
            setup_times.append(time.perf_counter() - start)
        finally:
            if setup_tracer:
                setup_tracer.uninstall()
        return built

    shards = set_up()  # the rounds use this corpus; later set-ups are discarded

    # -- rounds: whole cycles over the shards (each twice, plain then traced,
    # with --trace 1) until the time is up --------------------------------------
    round_tracer = tracing.Tracer() if args.trace else None
    per_shard = 2 if args.trace else 1
    cycle = per_shard * len(shards)
    plain, traced = [], []  # (stage times, counts) per round
    rounds_s = 0.0  # time in rounds and their checks, set-ups excluded
    done = 0
    while True:
        started = time.perf_counter()
        corpus = shards[(done // per_shard) % len(shards)]
        use_trace = bool(args.trace) and done % 2 == 1
        r = work / "round"
        if r.exists():
            shutil.rmtree(r)
        try:
            if use_trace:
                round_tracer.install(tracing.TARGETS)
            try:
                times = run_round(cli_main, corpus, args.seed, r, round_tracer if use_trace else None)
            finally:
                if use_trace:
                    round_tracer.uninstall()
            counts = check_round(corpus, r, JSON_REMINDER)
        except (AssertionError, RuntimeError) as exc:
            print(f"round {done}: {exc}", file=sys.stderr)
            Path(args.result).write_text(json.dumps({
                "correct": False, "attempted": done + 1, "failed": 0, "metrics": {},
                "rounds": done + 1,
            }), encoding="utf-8")
            return 1
        (traced if use_trace else plain).append((times, counts))
        done += 1
        rounds_s += time.perf_counter() - started
        if done % cycle:
            continue
        if len(setup_times) < SETUPS:
            if rounds_s >= args.seconds * len(setup_times) / SETUPS:
                set_up()
                shutil.rmtree(work / f"setup{len(setup_times) - 1}")
        elif rounds_s >= args.seconds:
            break

    def total(rounds: list, key: str) -> float:
        return sum(c[key] for _, c in rounds)

    def stage_total(rounds: list, stage: str) -> float:
        return sum(t[stage] for t, _ in rounds)

    result = {
        "correct": True,
        "attempted": sum(c["executed"] + c["seeds"] + c["cases"] for _, c in plain + traced),
        "failed": 0,
        "rounds": done,
    }
    if not args.trace:
        metrics = {
            "execute_pages_per_s": (total(plain, "executed") / stage_total(plain, "run"), "pages/s"),
            "generate_seeds_per_s": (total(plain, "seeds") / stage_total(plain, "generate"), "seeds/s"),
            "synthesize_cases_per_s": (total(plain, "cases") / stage_total(plain, "synthesize"), "cases/s"),
            "pipeline_s": (statistics.mean(sum(t.values()) for t, _ in plain), "s"),
            "prompt_chars_per_seed": (total(plain, "prompt_chars") / total(plain, "seeds"), "chars"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        metrics = tracing.layer_metrics(
            round_tracer.spans, len(traced), traced[0][1]["pages"], setup_tracer.spans
        )
        plain_s = statistics.median(sum(t.values()) for t, _ in plain)
        traced_s = statistics.median(sum(t.values()) for t, _ in traced)
        metrics["trace.overhead_pct"] = (100 * (traced_s / plain_s - 1), "%")
        round_tracer.write(Path(args.spans))
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"setup_s": setup_times, "plain": plain, "traced": traced}), file=sys.stderr)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
