import gc
import io
import json
import urllib.request
from functools import partial

import pytest

from conftest import json_answer, make_gateway
from wrapsmith import cli, dom
from wrapsmith.cli import main
from wrapsmith.dataset import (
    PageRecord, WebpageCase, derive_seed, dump_json, from_record, load_case, read_record,
    to_record,
)
from wrapsmith.dom import TreeMetrics, measure
from wrapsmith.evaluation import CaseOutcome
from wrapsmith.executor import (
    ActionSequence, ExtractionResult, ExtractionStatus, Provenance, extract, prune,
)
from wrapsmith.gateway import BackendConfig, GatewayError, LlmGateway, ScriptTable, prompt_fingerprint
from wrapsmith.generation import GenerationTrace, StepRecord
from wrapsmith.synthesis import select_seeds


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def pipeline_dirs(synthetic_corpus, tmp_path):
    corpus = synthetic_corpus
    cases = tmp_path / "cases"
    assert run_cli(
        "prepare", "--manifest", corpus.manifest_path, "--sample", "20",
        "--seed", "3", "--out", cases,
    ) == 0
    return corpus, cases, tmp_path


class TestPrepare:
    def test_case_files_written(self, pipeline_dirs):
        _, cases, _ = pipeline_dirs
        files = sorted(p.name for p in cases.glob("*.json") if p.name != "_meta.json")
        assert len(files) == 20  # 10 sites x 2 attributes
        assert files[0].startswith("nbaplayer__site00__")

    def test_missing_manifest_is_data_error(self, tmp_path):
        assert run_cli("prepare", "--manifest", tmp_path / "nope.json", "--out", tmp_path / "o") == 3


class TestGenerate:
    def test_full_and_checkpointed_rerun(self, pipeline_dirs, capsys):
        corpus, cases, tmp = pipeline_dirs
        out = tmp / "gen"
        assert run_cli(
            "generate", "--cases", cases, "--backend", corpus.backend_path,
            "--seed", "3", "--out", out,
        ) == 0
        candidates = list((out / "candidates").glob("*.json"))
        assert len(candidates) == 20
        first_bytes = candidates[0].read_bytes()
        capsys.readouterr()
        assert run_cli(
            "generate", "--cases", cases, "--backend", corpus.backend_path,
            "--seed", "3", "--out", out,
        ) == 0
        assert "skipped 20 checkpointed" in capsys.readouterr().out
        assert candidates[0].read_bytes() == first_bytes

    def test_force_regenerates(self, pipeline_dirs, capsys):
        corpus, cases, tmp = pipeline_dirs
        out = tmp / "gen"
        run_cli("generate", "--cases", cases, "--backend", corpus.backend_path,
                "--seed", "3", "--out", out)
        capsys.readouterr()
        assert run_cli(
            "generate", "--cases", cases, "--backend", corpus.backend_path,
            "--seed", "3", "--out", out, "--force",
        ) == 0
        assert "generated 20 case(s)" in capsys.readouterr().out

    def test_unreachable_backend_exits_2_without_partial_output(
        self, pipeline_dirs, monkeypatch, capsys
    ):
        _, cases, tmp = pipeline_dirs
        monkeypatch.setenv("WRAPSMITH_KEY", "k")
        backend = tmp / "http-backend.json"
        backend.write_text(json.dumps({
            "kind": "http",
            "endpoint": "http://127.0.0.1:1/unreachable",
            "credential_env": "WRAPSMITH_KEY",
            "timeout_s": 0.5,
        }))
        out = tmp / "gen-fail"
        assert run_cli(
            "generate", "--cases", cases, "--backend", backend,
            "--seed", "3", "--out", out,
        ) == 2
        assert list((out / "candidates").glob("*.json")) == []
        error = json.loads(capsys.readouterr().err.strip())
        assert "error" in error

    def test_parallel_jobs_match_serial(self, pipeline_dirs):
        corpus, cases, tmp = pipeline_dirs
        serial, parallel = tmp / "gen-serial", tmp / "gen-par"
        for out, jobs in ((serial, 1), (parallel, 3)):
            assert run_cli(
                "generate", "--cases", cases, "--backend", corpus.backend_path,
                "--seed", "3", "--jobs", jobs, "--out", out,
            ) == 0
        for kind, count in (("candidates", 20), ("traces", 60)):
            names = sorted(p.name for p in (serial / kind).glob("*.json"))
            assert len(names) == count
            assert names == sorted(p.name for p in (parallel / kind).glob("*.json"))
            for name in names:
                assert (serial / kind / name).read_bytes() == (parallel / kind / name).read_bytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_backend_failure_tries_every_case_then_exits_2(
        self, pipeline_dirs, monkeypatch, capsys, jobs
    ):
        corpus, cases, tmp = pipeline_dirs
        script = ScriptTable.load(BackendConfig.from_file(corpus.backend_path).script_path)

        def transport(template, prompt):
            if 'class="stats-2"' in prompt and "extract the height" in prompt:
                raise GatewayError("backend error 503")
            return script.lookup(prompt_fingerprint(template, prompt))

        monkeypatch.setattr(cli, "LlmGateway", lambda config: LlmGateway(config, transport=transport))
        out = tmp / "gen"
        args = ("generate", "--cases", cases, "--backend", corpus.backend_path,
                "--seed", "3", "--jobs", jobs, "--out", out)
        assert run_cli(*args) == 2
        error = json.loads(capsys.readouterr().err.strip())
        assert error == {"error": "GatewayError", "detail": "backend error 503"}
        assert (out / "_meta.json").exists()
        written = sorted(p.stem for p in (out / "candidates").glob("*.json"))
        assert len(written) == 19 and "nbaplayer__site02__height" not in written
        assert not list((out / "traces").glob("nbaplayer__site02__height__*"))
        # The sibling case shares the failing case's seed pages and still ran.
        failing, sibling = (seed_keys(cases, f"nbaplayer__site02__{a}") for a in ("height", "team"))
        assert failing & sibling
        assert "nbaplayer__site02__team" in written
        traces = sorted(p.name for p in (out / "traces").glob("nbaplayer__site02__team__*"))
        assert traces == sorted(f"nbaplayer__site02__team__{page_id}.json" for _, page_id in sibling)

        monkeypatch.undo()
        assert run_cli(*args) == 0
        assert "generated 1 case(s), skipped 19 checkpointed" in capsys.readouterr().out


def seed_keys(cases, case_id, n_seeds=3, seed=3):
    """``(html_path, page_id)`` of the seed pages ``generate`` draws for a case."""
    case = load_case(cases / f"{case_id}.json")
    by_id = {p.page_id: p for p in case.pages}
    drawn = select_seeds(case.page_ids, n_seeds, derive_seed(seed, "seeds", case_id))
    return {(by_id[page_id].html_path, page_id) for page_id in drawn}


class TestWalkSeedPagesOnce:
    def all_seed_keys(self, cases, case_ids=None):
        return [
            seed_keys(cases, path.stem)
            for path in cli._case_files(cases)
            if case_ids is None or path.stem in case_ids
        ]

    def test_each_seed_page_is_parsed_once(self, pipeline_dirs, count_parses):
        corpus, cases, tmp = pipeline_dirs
        drawn = self.all_seed_keys(cases)
        distinct = set().union(*drawn)
        assert len(distinct) < sum(len(keys) for keys in drawn)  # cases share pages
        assert run_cli("generate", "--cases", cases, "--backend", corpus.backend_path,
                       "--seed", "3", "--out", tmp / "gen") == 0
        assert sorted(count_parses) == sorted(page_id for _, page_id in distinct)

    def test_checkpointed_cases_pages_are_not_parsed(self, pipeline_dirs, count_parses):
        corpus, cases, tmp = pipeline_dirs
        args = ("generate", "--cases", cases, "--backend", corpus.backend_path,
                "--seed", "3", "--out", tmp / "gen")
        assert run_cli(*args) == 0
        pending = {"nbaplayer__site01__team", "nbaplayer__site04__height"}
        for case_id in pending:
            (tmp / "gen" / "candidates" / f"{case_id}.json").unlink()
        count_parses.clear()
        assert run_cli(*args) == 0
        distinct = set().union(*self.all_seed_keys(cases, pending))
        assert sorted(count_parses) == sorted(page_id for _, page_id in distinct)

    def test_a_page_drawn_by_several_cases_renders_once(self, pipeline_dirs, monkeypatch):
        corpus, cases, tmp = pipeline_dirs
        rendered = []
        original = dom._render

        def counting(root):
            rendered.append(root)
            return original(root)

        monkeypatch.setattr(dom, "_render", counting)
        assert run_cli("generate", "--cases", cases, "--backend", corpus.backend_path,
                       "--seed", "3", "--out", tmp / "gen") == 0
        drawn = self.all_seed_keys(cases)
        distinct = set().union(*drawn)
        assert max(sum(key in keys for keys in drawn) for key in distinct) > 1
        # A page's root comes first in document order; a pruned view's does not.
        pages = [root for root in rendered if root.order == 0]
        assert len(pages) == len(distinct) == len({id(root) for root in pages})

    def test_a_dropped_page_is_freed_before_the_next_loads(self, tmp_path, monkeypatch):
        write_pages(tmp_path / "corpus", ["p1", "p2", "p3"])

        def live_nodes():
            return sum(isinstance(o, dom.ElementNode) for o in gc.get_objects())

        live = []
        original = cli._load_page

        def loading(*args):
            live.append(live_nodes())
            return original(*args)

        monkeypatch.setattr(cli, "_load_page", loading)
        visited = []
        pages = [PageRecord(p, f"{p}.html", ()) for p in ("p1", "p2", "p3")]
        walk = cli._Walk(pages, lambda index, page: visited.append(index), lambda: None)
        gc.collect()
        gc.disable()  # only reference counting may free a page
        try:
            before = live_nodes()
            cli._walk_websites(tmp_path / "corpus", [[walk]], 1)
        finally:
            gc.enable()
        assert visited == [0, 1, 2]
        assert live == [before] * 3


class TestPipelineTail:
    @pytest.fixture
    def generated(self, pipeline_dirs):
        corpus, cases, tmp = pipeline_dirs
        out = tmp / "gen"
        run_cli("generate", "--cases", cases, "--backend", corpus.backend_path,
                "--seed", "3", "--out", out)
        return corpus, cases, tmp, out

    def test_synthesize_run_eval_analyze_replay(self, generated, capsys):
        corpus, cases, tmp, gen = generated
        seq_dir, results, stats = tmp / "seq", tmp / "results", tmp / "stats"
        report = tmp / "report.tsv"

        assert run_cli("synthesize", "--candidates", gen, "--out", seq_dir) == 0
        chosen = json.loads(next(iter(sorted(seq_dir.glob("nbaplayer*.json")))).read_text())
        assert chosen["sequence"] is not None

        assert run_cli("run", "--sequences", seq_dir, "--cases", cases, "--out", results) == 0
        assert run_cli(
            "eval", "--results", results, "--cases", cases,
            "--model", "scripted", "--method", "progressive", "--out", report,
        ) == 0
        out_text = capsys.readouterr().out
        assert "Correct=100.00%" in out_text
        table = report.read_text().splitlines()
        assert table[0].startswith("model\tmethod\tCorrect")
        assert table[1].split("\t")[2] == "100.00"

        assert run_cli(
            "analyze", "--traces", gen / "traces", "--sequences", seq_dir, "--out", stats
        ) == 0
        assert (stats / "lengths.tsv").exists()
        assert (stats / "breakeven.tsv").read_text().splitlines()[1].endswith("16")
        assert (stats / "compression.tsv").exists() and (stats / "fragility.tsv").exists()

        trace = sorted((gen / "traces").glob("*.json"))[0]
        assert run_cli("replay", "--trace", trace) == 0

    def test_every_artifact_re_encodes_to_its_file(self, generated):
        # Decoding any file the chain writes and encoding it again gives the
        # same bytes: the dataclasses and the codec are the record format.
        corpus, cases, tmp, gen = generated
        seq, results, per_case = tmp / "seq", tmp / "results", tmp / "per-case.json"
        assert run_cli("synthesize", "--candidates", gen, "--out", seq) == 0
        assert run_cli("run", "--sequences", seq, "--cases", cases, "--out", results) == 0
        assert run_cli("eval", "--results", results, "--cases", cases,
                       "--per-case", per_case, "--out", tmp / "report.tsv") == 0
        files = [(per_case, tuple[CaseOutcome, ...])]
        for folder, kind in [(cases, WebpageCase), (gen / "traces", GenerationTrace),
                             (gen / "candidates", cli.CandidatesFile), (seq, cli.SequenceFile),
                             (results, cli.ResultsFile)]:
            paths = cli._case_files(folder)
            assert paths, folder
            files += [(path, kind) for path in paths]
        again = tmp / "again.json"
        for path, kind in files:
            dump_json(to_record(read_record(path, partial(from_record, kind))), again)
            assert again.read_bytes() == path.read_bytes(), path
        matrices = [json.loads(path.read_text())["matrix"] for path in cli._case_files(seq)]
        # The outlier seed's rule fails on the other seeds at a known step.
        assert any("failed_step" in result for m in matrices for row in m for result in row)

    def test_replay_detects_tampering(self, generated, capsys):
        _, _, tmp, gen = generated
        trace_path = sorted((gen / "traces").glob("*.json"))[0]
        record = json.loads(trace_path.read_text())
        record["final_values"] = ["tampered"]
        tampered = tmp / "tampered-trace.json"
        tampered.write_text(json.dumps(record))
        assert run_cli("replay", "--trace", tampered) == 3
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "ReplayMismatch"


@pytest.fixture
def count_parses(monkeypatch):
    """Page ids passed to ``cli.parse_html``, one entry per call."""
    parsed: list[str] = []
    original = cli.parse_html

    def counting(raw, page_id):
        parsed.append(page_id)
        return original(raw, page_id)

    monkeypatch.setattr(cli, "parse_html", counting)
    return parsed


def write_pages(root, page_ids):
    root.mkdir()
    for page_id in page_ids:
        (root / f"{page_id}.html").write_text(f"<div><b>{page_id}</b></div>", encoding="utf-8")


def write_candidates(tmp_path, cases):
    """Pages ``p1``..``p3`` and a ``generate`` output directory in which case
    ``d__w__<attribute>``, asked to "get <attribute>", has one ``//b/text()``
    candidate per seed page id; ``cases`` lists ``(attribute, page_ids)``."""
    write_pages(tmp_path / "corpus", ["p1", "p2", "p3"])
    gen = tmp_path / "gen"
    (gen / "candidates").mkdir(parents=True)
    dump_json({"corpus_root": str(tmp_path / "corpus")}, gen / "_meta.json")

    def seed(page_id):
        return {
            "page_id": page_id,
            "html_path": f"{page_id}.html",
            "gold": [page_id],
            "proposed_values": [page_id],
            "sequence": to_record(ActionSequence(("//b/text()",), Provenance(page_id, "progressive"))),
            "trace_file": f"traces/{page_id}.json",
        }

    for attribute, page_ids in cases:
        case_id = f"d__w__{attribute}"
        dump_json(
            {"case_id": case_id, "instruction": f"get {attribute}", "strategy": "progressive",
             "seeds": [seed(p) for p in page_ids]},
            gen / "candidates" / f"{case_id}.json",
        )
    return gen


class TestLoadPage:
    def test_each_page_is_frozen_once(self, tmp_path, monkeypatch):
        (tmp_path / "p.html").write_text(
            "<html><!-- c --><body><script>s</script><p id='i' class='x'>a</p></body></html>",
            encoding="utf-8",
        )
        frozen = []
        original = dom._freeze

        def counting(root):
            frozen.append(root)
            return original(root)

        monkeypatch.setattr(dom, "_freeze", counting)
        page = cli._load_page(tmp_path, "p.html", "p")
        assert frozen == [page.root]
        assert page.to_html() == '<html><body><p class="x">a</p></body></html>'


class TestParseOncePerWebsite:
    @pytest.fixture
    def sequences(self, pipeline_dirs):
        corpus, cases, tmp = pipeline_dirs
        gen, seq = tmp / "gen", tmp / "seq"
        assert run_cli("generate", "--cases", cases, "--backend", corpus.backend_path,
                       "--seed", "3", "--out", gen) == 0
        assert run_cli("synthesize", "--candidates", gen, "--out", seq) == 0
        return cases, seq, tmp

    def test_parallel_run_matches_serial(self, sequences):
        cases, seq, tmp = sequences
        for jobs in (1, 2):
            assert run_cli("run", "--sequences", seq, "--cases", cases,
                           "--jobs", jobs, "--out", tmp / f"results-{jobs}") == 0
        serial = sorted(p.name for p in (tmp / "results-1").iterdir())
        assert serial == sorted(p.name for p in (tmp / "results-2").iterdir())
        assert len(serial) == 21  # 10 sites x 2 attributes, plus _meta.json
        for name in serial:
            assert (tmp / "results-1" / name).read_bytes() == (tmp / "results-2" / name).read_bytes()

    def test_run_parses_each_page_once(self, sequences, count_parses):
        cases, seq, tmp = sequences
        pages = {
            (page.html_path, page.page_id)
            for path in cli._case_files(cases)
            for page in load_case(path).pages
        }
        assert run_cli("run", "--sequences", seq, "--cases", cases, "--out", tmp / "results") == 0
        assert len(count_parses) == len(pages) == 200  # 10 sites x 20 sampled pages

    def test_synthesize_parses_each_seed_page_once(self, tmp_path, count_parses):
        # Case ``c`` draws ``p1`` again after ``b`` has drawn other pages.
        gen = write_candidates(tmp_path, [("a", ["p1", "p2"]), ("b", ["p3"]), ("c", ["p1"])])
        assert run_cli("synthesize", "--candidates", gen, "--out", tmp_path / "seq") == 0
        assert sorted(count_parses) == ["p1", "p2", "p3"]
        chosen = json.loads((tmp_path / "seq" / "d__w__a.json").read_text())
        assert [[r["values"] for r in row] for row in chosen["matrix"]] == [[["p1"], ["p2"]]] * 2
        chosen = json.loads((tmp_path / "seq" / "d__w__c.json").read_text())
        assert [[r["values"] for r in row] for row in chosen["matrix"]] == [[["p1"]]]

    def test_synthesize_backend_failure_writes_the_other_cases_then_exits_2(
        self, tmp_path, monkeypatch, capsys
    ):
        gen = write_candidates(tmp_path, [("a", ["p1"]), ("b", ["p2"])])
        dump_json({"kind": "scripted", "script_path": "script.json"}, tmp_path / "backend.json")
        ScriptTable({}).save(tmp_path / "script.json")
        args = ("synthesize", "--candidates", gen, "--backend", tmp_path / "backend.json")
        prompts = []

        def recording(template, prompt):
            prompts.append(prompt)
            return '{"number": "0"}'

        monkeypatch.setattr(cli, "LlmGateway", lambda config: LlmGateway(config, transport=recording))
        assert run_cli(*args, "--out", tmp_path / "recorded") == 0
        monkeypatch.undo()
        first, second = prompts
        assert "get a" in first and "get b" in second
        # Only the second case's synthesis prompt is answered.
        answer = '{"number": "0"}'
        ScriptTable({prompt_fingerprint("synthesis", second): answer}).save(tmp_path / "script.json")
        capsys.readouterr()
        out = tmp_path / "seq"
        assert run_cli(*args, "--out", out) == 2
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "ScriptMiss"
        assert sorted(p.name for p in out.iterdir()) == ["_meta.json", "d__w__b.json"]
        recorded = tmp_path / "recorded" / "d__w__b.json"
        assert (out / "d__w__b.json").read_bytes() == recorded.read_bytes()

    def test_run_missing_page_is_data_error(self, tmp_path, capsys):
        write_pages(tmp_path / "corpus", ["p1"])
        cases, seq = tmp_path / "cases", tmp_path / "seq"
        cases.mkdir()
        seq.mkdir()
        dump_json({"corpus_root": str(tmp_path / "corpus")}, cases / "_meta.json")
        case = WebpageCase(
            "d", "w", "a", "i",
            tuple(PageRecord(p, f"{p}.html", ()) for p in ("p1", "gone")),
        )
        dump_json(to_record(case), cases / f"{case.case_id}.json")
        sequence = ActionSequence(("//b/text()",), Provenance("p1", "progressive"))
        dump_json(sequence_file_record(case.case_id, to_record(sequence)), seq / f"{case.case_id}.json")
        assert run_cli("run", "--sequences", seq, "--cases", cases,
                       "--out", tmp_path / "results") == 3
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "FileNotFoundError"


def write_case(tmp_path, page_ids, instruction="i", html=None):
    """A corpus of the given pages and one case ``d__w__a`` over all of them;
    returns ``(corpus, cases, case)``."""
    corpus, cases = tmp_path / "corpus", tmp_path / "cases"
    write_pages(corpus, page_ids)
    if html is not None:
        for page_id in page_ids:
            (corpus / f"{page_id}.html").write_text(html, encoding="utf-8")
    cases.mkdir()
    dump_json({"corpus_root": str(corpus)}, cases / "_meta.json")
    case = WebpageCase(
        "d", "w", "a", instruction,
        tuple(PageRecord(p, f"{p}.html", ("v",)) for p in page_ids),
    )
    dump_json(to_record(case), cases / f"{case.case_id}.json")
    return corpus, cases, case


class TestAttributeAbsent:
    def test_blank_xpath_sequence_survives_the_round_trip(
        self, tmp_path, capsys, monkeypatch, synthetic_corpus
    ):
        _, cases, case = write_case(tmp_path, ["p1", "p2", "p3"], "Please extract the award.")
        gateway = make_gateway(lambda template, prompt: json_answer("", ""))
        monkeypatch.setattr(cli, "LlmGateway", lambda config: gateway)
        gen = tmp_path / "gen"
        assert run_cli("generate", "--cases", cases, "--backend", synthetic_corpus.backend_path,
                       "--out", gen) == 0

        trace_path = gen / "traces" / f"{case.case_id}__p1.json"
        trace = from_record(GenerationTrace, json.loads(trace_path.read_text()))
        assert trace.succeeded and trace.sequence.steps == ()

        assert run_cli("synthesize", "--candidates", gen, "--out", tmp_path / "seq") == 0
        chosen = json.loads((tmp_path / "seq" / f"{case.case_id}.json").read_text())
        assert chosen["seed_ids"] == ["p1", "p2", "p3"]
        assert chosen["sequence"]["steps"] == []

        assert run_cli("replay", "--trace", trace_path) == 0
        assert "replay ok: []" in capsys.readouterr().out


class TestEvalGolden:
    def make_case(self, cases_dir, case_id_parts, pages):
        domain, website, attribute = case_id_parts
        case = WebpageCase(
            domain=domain,
            website=website,
            attribute=attribute,
            instruction="Here's a page. Please extract the height of the player.",
            pages=tuple(
                PageRecord(pid, f"pages/{pid}.html", tuple(gold)) for pid, gold in pages
            ),
        )
        dump_json(to_record(case), cases_dir / f"{case.case_id}.json")
        return case

    def test_handwritten_results_exact_table(self, tmp_path, capsys):
        cases_dir = tmp_path / "cases"
        results_dir = tmp_path / "results"
        cases_dir.mkdir()
        results_dir.mkdir()
        dump_json({"corpus_root": str(tmp_path)}, cases_dir / "_meta.json")

        correct = self.make_case(
            cases_dir, ("d", "w1", "height"), [("p1", ["6-9"]), ("p2", ["6-1"])]
        )
        unex = self.make_case(
            cases_dir, ("d", "w2", "height"), [("p1", ["7-0"]), ("p2", ["7-1"])]
        )
        dump_json(
            {"case_id": correct.case_id, "pages": {
                "p1": {"values": ["6-9"], "status": "ok"},
                "p2": {"values": ["6-1"], "status": "ok"},
            }},
            results_dir / f"{correct.case_id}.json",
        )
        dump_json(
            {"case_id": unex.case_id, "pages": {
                "p1": {"values": [], "status": "no_match"},
                "p2": {"values": [], "status": "no_match"},
            }},
            results_dir / f"{unex.case_id}.json",
        )
        report = tmp_path / "report.tsv"
        assert run_cli(
            "eval", "--results", results_dir, "--cases", cases_dir,
            "--model", "m", "--method", "x", "--out", report,
            "--per-case", tmp_path / "per-case.json",
        ) == 0
        expected = (
            "model\tmethod\tCorrect\tPrec\tReca\tUnex\tOver\tElse\tP\tR\tF1\n"
            "m\tx\t50.00\t0.00\t0.00\t50.00\t0.00\t0.00\t100.00\t50.00\t100.00\n"
        )
        assert report.read_text() == expected
        per_case = json.loads((tmp_path / "per-case.json").read_text())
        assert {o["label"] for o in per_case} == {"Correct", "Unex"}


class TestErrors:
    def test_usage_error_exit_1(self, capsys):
        assert main(["generate", "--cases"]) == 1
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "UsageError"

    def test_unknown_command_exit_1(self):
        assert main(["frobnicate"]) == 1

    def test_missing_meta_is_data_error(self, tmp_path, synthetic_corpus):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli(
            "generate", "--cases", empty, "--backend", synthetic_corpus.backend_path,
            "--out", tmp_path / "o",
        ) == 3


def trace_record(page_path):
    return to_record(GenerationTrace(
        page_id="p",
        instruction="items",
        strategy="progressive",
        steps=(StepRecord(0, TreeMetrics(9, 3), (), ("x",), "//li/text()",
                          ExtractionResult(("x",), ExtractionStatus.OK), "accept"),),
        sequence=ActionSequence(("//li/text()",), Provenance("p", "progressive")),
        final_values=("x",),
        html_path=str(page_path),
    ))


def sequence_file_record(case_id, sequence):
    """A ``synthesize`` output file whose only candidate, the record
    ``sequence``, is chosen."""
    return {"case_id": case_id, "chosen_index": 0, "candidates": [sequence], "matrix": [],
            "seed_ids": [], "sequence": sequence}


class TestMalformedInputs:
    def test_malformed_trace_is_data_error(self, tmp_path, capsys):
        page = tmp_path / "p.html"
        page.write_text("<ul><li>x</li></ul>", encoding="utf-8")
        traces = tmp_path / "traces"
        traces.mkdir()
        trace = traces / "t.json"
        dump_json(trace_record(page), trace)
        assert run_cli("replay", "--trace", trace) == 0

        record = trace_record(page)
        del record["steps"]
        dump_json(record, trace)
        assert run_cli("replay", "--trace", trace) == 3
        record = trace_record(page)
        record["sequence"]["steps"] = [5]
        dump_json(record, trace)
        assert run_cli("replay", "--trace", trace) == 3
        capsys.readouterr()
        dump_json({**trace_record(page), "steps": 5}, trace)
        assert run_cli(
            "analyze", "--traces", traces, "--sequences", tmp_path, "--out", tmp_path / "stats"
        ) == 3
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "DatasetError"

    @pytest.mark.parametrize("command, missing", [
        ("synthesize", "seeds"),
        ("run", "provenance"),
        ("eval", "pages"),
        ("analyze", "provenance"),
    ])
    def test_record_missing_a_key_is_data_error(self, tmp_path, capsys, command, missing):
        sequence = to_record(ActionSequence(("//b/text()",), Provenance("p1", "progressive")))
        record = {
            "synthesize": {"case_id": "d__w__a", "instruction": "i", "strategy": "progressive",
                           "seeds": []},
            "run": sequence_file_record("d__w__a", sequence),
            "eval": {"case_id": "d__w__a", "pages": {}},
            "analyze": sequence_file_record("d__w__a", sequence),
        }[command]
        del (sequence if missing == "provenance" else record)[missing]
        data, cases = tmp_path / "data", tmp_path / "cases"
        (data / "candidates").mkdir(parents=True)
        cases.mkdir()
        dump_json({"corpus_root": str(tmp_path)}, data / "_meta.json")
        dump_json({"corpus_root": str(tmp_path)}, cases / "_meta.json")
        case = WebpageCase("d", "w", "a", "i", (PageRecord("p1", "p1.html", ("v",)),))
        dump_json(to_record(case), cases / f"{case.case_id}.json")
        dump_json(record, (data / "candidates" if command == "synthesize" else data) / "c.json")
        args = {
            "synthesize": ("--candidates", data),
            "run": ("--sequences", data, "--cases", cases),
            "eval": ("--results", data, "--cases", cases),
            "analyze": ("--traces", data / "candidates", "--sequences", data),
        }[command]
        assert run_cli(command, *args, "--out", tmp_path / "out") == 3
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "DatasetError"

    @pytest.mark.parametrize("command, broken", [
        ("generate", "corpus_root"),
        ("synthesize", "corpus_root"),
        ("run", "corpus_root"),
        ("generate", "gold"),
        ("eval", "gold"),
        ("run", "steps"),
        ("eval", "values"),
        ("synthesize", "proposed_values"),
        ("run", "html_path"),
        ("run", "page_id"),
        ("generate", "instruction"),
        ("generate", "domain"),
        ("synthesize", "html_path"),
        ("synthesize", "case_id"),
        ("synthesize", "page_id"),
        ("run", "strategy"),
        ("analyze", "decision"),
        ("analyze", "status"),
    ])
    def test_meta_or_case_with_a_bad_field_is_data_error(
        self, tmp_path, capsys, synthetic_corpus, command, broken
    ):
        # A _meta.json without its corpus root, or a case, stage input or
        # trace with one field of the wrong type: a gold label, step or
        # value that is no string, a number for a path, id, instruction or
        # strategy, a list for a domain or case id, an unknown status.
        data, cases = tmp_path / "data", tmp_path / "cases"
        (data / "candidates").mkdir(parents=True)
        (data / "traces").mkdir()
        cases.mkdir()
        (tmp_path / "p1.html").write_text("<p><b>v</b></p>", encoding="utf-8")
        meta = {} if broken == "corpus_root" else {"corpus_root": str(tmp_path)}
        dump_json(meta, data / "_meta.json")
        dump_json(meta, cases / "_meta.json")
        case = to_record(WebpageCase("d", "w", "a", "i", (PageRecord("p1", "p1.html", ("v",)),)))
        sequence = to_record(ActionSequence(("//b/text()",), Provenance("p1", "progressive")))
        seed = {"page_id": "p1", "html_path": "p1.html", "gold": ["v"],
                "proposed_values": ["v"], "sequence": sequence, "trace_file": "traces/p1.json"}
        candidates = {"case_id": "d__w__a", "instruction": "i", "strategy": "progressive",
                      "seeds": [seed]}
        results = {"case_id": "d__w__a", "pages": {"p1": {"values": ["v"], "status": "ok"}}}
        trace = trace_record(tmp_path / "p1.html")
        page = seed if command == "synthesize" else case["pages"][0]
        holder = {
            "gold": page, "steps": sequence, "values": results["pages"]["p1"],
            "proposed_values": seed, "html_path": page, "page_id": page, "instruction": case,
            "domain": case, "case_id": candidates, "strategy": sequence["provenance"],
            "decision": trace["steps"][0], "status": trace["steps"][0]["parser_result"],
        }
        bad = {"gold": 5 if command == "generate" else [5], "steps": [1], "values": [1],
               "proposed_values": [3], "html_path": 5, "page_id": 5, "instruction": 5,
               "domain": [1], "case_id": [1], "strategy": 5, "decision": 5, "status": 7}
        if broken in holder:
            holder[broken][broken] = bad[broken]
        dump_json(case, cases / "d__w__a.json")
        stage_input = {
            "synthesize": (candidates, data / "candidates"),
            "run": (sequence_file_record("d__w__a", sequence), data),
            "eval": (results, data),
            "analyze": (trace, data / "traces"),
        }.get(command)
        if stage_input is not None:
            dump_json(stage_input[0], stage_input[1] / "c.json")
        args = {
            "generate": ("--cases", cases, "--backend", synthetic_corpus.backend_path),
            "synthesize": ("--candidates", data),
            "run": ("--sequences", data, "--cases", cases),
            "eval": ("--results", data, "--cases", cases),
            "analyze": ("--traces", data / "traces", "--sequences", data),
        }[command]
        assert run_cli(command, *args, "--out", tmp_path / "out") == 3
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "DatasetError"

    @pytest.mark.parametrize("backend, script, field", [
        ([], None, "record"),
        ({"timeout_s": None}, None, "timeout_s"),
        ({"kind": "scripted", "script_path": "script.json"}, [], "record"),
        ({"max_retries": "2"}, None, "max_retries"),
        ({"kind": 5}, None, "kind"),
        ({"kind": "scripted", "script_path": "script.json"}, {"entries": {"f": {"x": 1}}},
         "entries.f"),
        ({"kind": "http"}, None, "endpoint"),
        ({"kind": "http", "endpoint": "http://127.0.0.1:9/x"}, None, "credential_env"),
        ({"max_retries": -1}, None, "max_retries"),
        ({"timeout_s": -5}, None, "timeout_s"),
        ({"timeout_s": 0}, None, "timeout_s"),
        ({"rate_limit_per_minute": -1}, None, "rate_limit_per_minute"),
    ])
    def test_malformed_backend_or_script_is_data_error(
        self, tmp_path, capsys, backend, script, field
    ):
        # Numbers written as strings are not coerced: every field is checked
        # against its type and its range, and the error names the field's path.
        cases = tmp_path / "cases"
        cases.mkdir()
        dump_json({"corpus_root": str(tmp_path)}, cases / "_meta.json")
        dump_json(backend, tmp_path / "backend.json")
        if script is not None:
            dump_json(script, tmp_path / "script.json")
        assert run_cli("generate", "--cases", cases, "--backend", tmp_path / "backend.json",
                       "--out", tmp_path / "out") == 3
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "DatasetError"
        assert f"{field}:" in error["detail"]

    @pytest.mark.parametrize("change, field", [
        ({"pages": 5}, "domains.nbaplayer.websites.s.pages"),
        ({"pages": {"p0": 5}}, "domains.nbaplayer.websites.s.pages.p0"),
        ({"gold": {"height": {"p0": "6-9"}}}, "domains.nbaplayer.websites.s.gold.height.p0"),
        ({"gold": {"height": None}}, "domains.nbaplayer.websites.s.gold.height"),
        ({"preamble": ["x"]}, "domains.nbaplayer.preamble"),
        ({"attributes": {"height": 5}}, "domains.nbaplayer.attributes.height"),
        ({"gold": "gold.json"}, "height.p0"),
    ])
    def test_malformed_manifest_is_data_error(self, tmp_path, capsys, change, field):
        # One ill-typed field of the manifest or of the gold file it names;
        # a gold string is rejected, not split into one label per character.
        (tmp_path / "p0.html").write_text("<p>6-9</p>", encoding="utf-8")
        (tmp_path / "gold.json").write_text('{"height": {"p0": "6-9"}}', encoding="utf-8")
        website = {"pages": {"p0": "p0.html"}, "gold": {"height": {"p0": ["6-9"]}}}
        domain = {"websites": {"s": website}}
        manifest = tmp_path / "manifest.json"
        dump_json({"domains": {"nbaplayer": domain}}, manifest)
        assert run_cli("prepare", "--manifest", manifest, "--out", tmp_path / "cases") == 0
        (website if "pages" in change or "gold" in change else domain).update(change)
        dump_json({"domains": {"nbaplayer": domain}}, manifest)
        capsys.readouterr()
        assert run_cli("prepare", "--manifest", manifest, "--out", tmp_path / "cases") == 3
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "DatasetError"
        assert f"{field}:" in error["detail"]

    @pytest.mark.parametrize("body", [b"<html>bad gateway</html>", b"\xff\xfe"])
    def test_http_reply_that_is_not_json_is_backend_error(
        self, tmp_path, capsys, monkeypatch, body
    ):
        _, cases, _ = write_case(tmp_path, ["p1", "p2", "p3"])
        backend = tmp_path / "backend.json"
        dump_json({"kind": "http", "endpoint": "http://127.0.0.1:9/x",
                   "credential_env": "WRAPSMITH_KEY"}, backend)
        monkeypatch.setenv("WRAPSMITH_KEY", "k")
        monkeypatch.setattr(urllib.request, "urlopen", lambda *args, **kwargs: io.BytesIO(body))
        assert run_cli("generate", "--cases", cases, "--backend", backend,
                       "--out", tmp_path / "out") == 2
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "GatewayError"
        assert "not JSON" in error["detail"]

    @pytest.mark.parametrize("command", ["prepare", "generate"])
    def test_a_directory_where_a_file_belongs_is_data_error(
        self, tmp_path, capsys, synthetic_corpus, command
    ):
        # A manifest path, or a case file the cases directory lists, that
        # names a directory: an OSError other than FileNotFoundError.
        cases = tmp_path / "cases"
        (cases / "x.json").mkdir(parents=True)
        dump_json({"corpus_root": str(tmp_path)}, cases / "_meta.json")
        args = {
            "prepare": ("--manifest", cases / "x.json"),
            "generate": ("--cases", cases, "--backend", synthetic_corpus.backend_path),
        }[command]
        assert run_cli(command, *args, "--out", tmp_path / "out") == 3
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "IsADirectoryError"
        assert "x.json" in error["detail"]

    def test_deeply_nested_record_is_data_error(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        trace.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert run_cli("replay", "--trace", trace) == 3
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "RecursionError"


DEPTH = 10_000
DEEP_PAGE = "<html><body>" + "<div>" * DEPTH + "<b>v</b>" + "</div>" * DEPTH + "</body></html>"


class TestDeepNesting:
    def test_page_loads_renders_extracts_and_prunes(self, tmp_path):
        (tmp_path / "deep.html").write_text(DEEP_PAGE, encoding="utf-8")
        page = cli._load_page(tmp_path, "deep.html", "deep")
        assert page.to_html() == DEEP_PAGE
        assert measure(page) == TreeMetrics(token_count=2 * DEPTH + 7, height=DEPTH + 3)
        innermost = prune(page, "//b/..")
        assert page.subtree(innermost).to_html() == "<div><b>v</b></div>"
        sequence = ActionSequence(("//b/../..", "//b/text()"), Provenance("deep", "progressive"))
        assert extract(page, sequence).values == ("v",)

    def test_generate_synthesize_and_run_exit_0(self, tmp_path, monkeypatch, synthetic_corpus):
        _, cases, case = write_case(tmp_path, ["p1", "p2", "p3"], html=DEEP_PAGE)
        gateway = make_gateway(lambda template, prompt: json_answer("v", "//b/text()"))
        monkeypatch.setattr(cli, "LlmGateway", lambda config: gateway)
        gen, seq, results = tmp_path / "gen", tmp_path / "seq", tmp_path / "results"
        assert run_cli("generate", "--cases", cases, "--backend", synthetic_corpus.backend_path,
                       "--out", gen) == 0
        trace = json.loads((gen / "traces" / f"{case.case_id}__p1.json").read_text())
        assert trace["steps"][0]["metrics_before"]["height"] == DEPTH + 3
        assert run_cli("synthesize", "--candidates", gen, "--out", seq) == 0
        assert run_cli("run", "--sequences", seq, "--cases", cases, "--out", results) == 0
        pages = json.loads((results / f"{case.case_id}.json").read_text())["pages"]
        assert {page["values"][0] for page in pages.values()} == {"v"}
        assert run_cli("replay", "--trace", gen / "traces" / f"{case.case_id}__p1.json") == 0


class TestHugeNumberInARule:
    # A literal of 309 nines is more than a float holds, so it reads as inf.
    @pytest.mark.parametrize("rule", [
        f"//b[{'9' * 309}]/text()", f"//b[contains(., {'9' * 309})]/text()",
        f"//b[string({'9' * 309})]/text()",
    ], ids=["position", "contains", "string"])
    def test_generate_exits_0(self, tmp_path, monkeypatch, synthetic_corpus, rule):
        _, cases, case = write_case(tmp_path, ["p1", "p2", "p3"], html="<div><b>v</b></div>")
        gateway = make_gateway(lambda template, prompt: json_answer("v", rule))
        monkeypatch.setattr(cli, "LlmGateway", lambda config: gateway)
        gen, seq, results = tmp_path / "gen", tmp_path / "seq", tmp_path / "results"
        assert run_cli("generate", "--cases", cases, "--backend", synthetic_corpus.backend_path,
                       "--out", gen) == 0
        if "string" in rule:  # 'Infinity' is a true predicate: the rule works
            assert run_cli("synthesize", "--candidates", gen, "--out", seq) == 0
            assert run_cli("run", "--sequences", seq, "--cases", cases, "--out", results) == 0
            pages = json.loads((results / f"{case.case_id}.json").read_text())["pages"]
            assert {page["values"][0] for page in pages.values()} == {"v"}


class TestCountFlags:
    @pytest.mark.parametrize("command, flag, value", [
        ("prepare", "--sample", "0"),
        ("generate", "--seeds-per-case", "0"),
        ("generate", "--seeds-per-case", "-1"),
        ("generate", "--dmax", "0"),
        ("generate", "--jobs", "0"),
        ("run", "--jobs", "0"),
        ("analyze", "--ns", "0"),
        ("analyze", "--dmax", "0"),
        ("corpus", "--sites", "0"),
        ("corpus", "--pages", "-2"),
    ])
    def test_count_below_one_is_usage_error(self, pipeline_dirs, capsys, command, flag, value):
        corpus, cases, tmp = pipeline_dirs
        out = tmp / "out"
        args = {
            "prepare": ("--manifest", corpus.manifest_path),
            "generate": ("--cases", cases, "--backend", corpus.backend_path),
            "run": ("--sequences", cases, "--cases", cases),
            "analyze": ("--traces", cases, "--sequences", cases),
            "corpus": (),
        }[command]
        capsys.readouterr()
        assert run_cli(command, *args, flag, value, "--out", out) == 1
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "UsageError" and flag in error["detail"]
        assert not out.exists()


class TestCorpusCommand:
    def test_builds_small_corpus(self, tmp_path, capsys):
        assert run_cli("corpus", "--out", tmp_path / "mini", "--sites", 2, "--pages", 4) == 0
        out = capsys.readouterr().out
        assert "synthetic corpus written" in out
        assert (tmp_path / "mini" / "manifest.json").exists()
        assert (tmp_path / "mini" / "script.json").exists()

    def test_each_page_is_parsed_once(self, tmp_path, monkeypatch):
        # Both attributes of a site are staged on one parse of each page.
        fed = []
        original = dom._TreeBuilder.feed

        def feeding(builder, raw):
            fed.append(raw)
            original(builder, raw)

        monkeypatch.setattr(dom._TreeBuilder, "feed", feeding)
        assert run_cli("corpus", "--out", tmp_path / "mini", "--sites", 2, "--pages", 4) == 0
        assert len(fed) == len(set(fed)) == 8  # 2 sites x 4 pages, each page distinct
