import json
from dataclasses import replace

import pytest

from wrapsmith import dataset
from wrapsmith.dataset import (
    INSTRUCTIONS,
    CorpusManifest,
    DatasetError,
    MissingGold,
    MissingTemplate,
    SchemaViolation,
    WebpageCase,
    build_cases,
    derive_seed,
    dump_json,
    from_record,
    load_case,
    to_record,
)
from wrapsmith.executor import ExtractionResult, ExtractionStatus
from wrapsmith.gateway import LlmExchange


def write_corpus(root, n_pages=6, domain="nbaplayer", website="siteA",
                 attributes=("height",), gold_inline=True):
    pages_dir = root / "pages"
    pages_dir.mkdir(parents=True, exist_ok=True)
    pages = {}
    gold = {attr: {} for attr in attributes}
    for i in range(n_pages):
        pid = f"p{i:02d}"
        rel = f"pages/{pid}.html"
        (root / rel).write_text(f"<html><body><p>page {i}</p></body></html>")
        pages[pid] = rel
        for attr in attributes:
            gold[attr][pid] = [f"{attr[:1]}-{i}"]
    entry = {"pages": pages}
    if gold_inline:
        entry["gold"] = gold
    else:
        (root / "gold.json").write_text(json.dumps(gold))
        entry["gold"] = "gold.json"
    manifest = {"domains": {domain: {"websites": {website: entry}}}}
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


class TestManifest:
    def test_load_and_verify(self, tmp_path):
        path = write_corpus(tmp_path)
        manifest = CorpusManifest.load(path)
        assert "nbaplayer" in manifest.domains

    def test_missing_page_file_rejected(self, tmp_path):
        path = write_corpus(tmp_path)
        (tmp_path / "pages" / "p00.html").unlink()
        with pytest.raises(SchemaViolation):
            CorpusManifest.load(path)

    def test_checksum_verified(self, tmp_path):
        path = write_corpus(tmp_path, n_pages=1)
        record = json.loads(path.read_text())
        record["checksums"] = {"pages/p00.html": "0" * 64}
        path.write_text(json.dumps(record))
        with pytest.raises(SchemaViolation):
            CorpusManifest.load(path)

    def test_gold_file_reference(self, tmp_path):
        path = write_corpus(tmp_path, gold_inline=False)
        manifest = CorpusManifest.load(path)
        cases = build_cases(manifest, sample_n=3, rng_seed=0)
        assert cases and cases[0].pages[0].gold

    def test_not_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{nope")
        with pytest.raises(SchemaViolation):
            CorpusManifest.load(path)


class TestBuildCases:
    def test_sample_clamps_to_available(self, tmp_path):
        manifest = CorpusManifest.load(write_corpus(tmp_path, n_pages=4))
        cases = build_cases(manifest, sample_n=100, rng_seed=0)
        assert len(cases[0].pages) == 4

    def test_sampling_deterministic_under_seed(self, tmp_path):
        manifest = CorpusManifest.load(write_corpus(tmp_path, n_pages=30))
        first = build_cases(manifest, sample_n=10, rng_seed=5)
        second = build_cases(manifest, sample_n=10, rng_seed=5)
        assert first[0].page_ids == second[0].page_ids

    def test_distinct_seeds_distinct_samples(self, tmp_path):
        manifest = CorpusManifest.load(write_corpus(tmp_path, n_pages=30))
        a = build_cases(manifest, sample_n=10, rng_seed=1)[0].page_ids
        b = build_cases(manifest, sample_n=10, rng_seed=2)[0].page_ids
        assert a != b

    def test_page_sample_shared_across_attributes(self, tmp_path):
        manifest = CorpusManifest.load(
            write_corpus(tmp_path, n_pages=30, attributes=("height", "team"))
        )
        cases = build_cases(manifest, sample_n=10, rng_seed=5)
        by_attr = {c.attribute: c.page_ids for c in cases}
        assert by_attr["height"] == by_attr["team"]

    def test_instruction_assembled_from_templates(self, tmp_path):
        manifest = CorpusManifest.load(write_corpus(tmp_path))
        cases = build_cases(manifest, sample_n=3, rng_seed=0)
        instruction = cases[0].instruction
        assert instruction.endswith("Please extract the height of the player.")
        assert instruction.startswith(INSTRUCTIONS["nbaplayer"][0])

    def test_missing_template(self, tmp_path):
        path = write_corpus(tmp_path, domain="unknown-domain")
        manifest = CorpusManifest.load(path)
        with pytest.raises(MissingTemplate):
            build_cases(manifest, sample_n=3, rng_seed=0)

    def test_manifest_templates_override(self, tmp_path):
        path = write_corpus(tmp_path, domain="custom")
        record = json.loads(path.read_text())
        record["domains"]["custom"]["preamble"] = "Here's a custom page."
        record["domains"]["custom"]["attributes"] = {"height": "Please extract the size."}
        path.write_text(json.dumps(record))
        manifest = CorpusManifest.load(path)
        cases = build_cases(manifest, sample_n=3, rng_seed=0)
        assert cases[0].instruction == "Here's a custom page. Please extract the size."

    def test_missing_gold_table(self, tmp_path):
        path = write_corpus(tmp_path)
        record = json.loads(path.read_text())
        record["domains"]["nbaplayer"]["websites"]["siteA"]["gold"] = {}
        path.write_text(json.dumps(record))
        manifest = CorpusManifest.load(path)
        with pytest.raises(MissingGold):
            build_cases(manifest, sample_n=3, rng_seed=0)

    def test_pages_without_gold_entry_get_empty_set(self, tmp_path):
        path = write_corpus(tmp_path, n_pages=3)
        record = json.loads(path.read_text())
        record["domains"]["nbaplayer"]["websites"]["siteA"]["gold"]["height"].pop("p00")
        path.write_text(json.dumps(record))
        manifest = CorpusManifest.load(path)
        cases = build_cases(manifest, sample_n=3, rng_seed=0)
        by_id = {p.page_id: p.gold for p in cases[0].pages}
        assert by_id["p00"] == ()

    def test_gold_escape_normalization(self, tmp_path):
        path = write_corpus(tmp_path, n_pages=1)
        record = json.loads(path.read_text())
        record["domains"]["nbaplayer"]["websites"]["siteA"]["gold"]["height"]["p00"] = [
            "AT&amp;T Center"
        ]
        path.write_text(json.dumps(record))
        manifest = CorpusManifest.load(path)
        cases = build_cases(manifest, sample_n=1, rng_seed=0)
        assert cases[0].pages[0].gold == ("AT&T Center",)


class TestCaseRoundTrip:
    def make_case(self):
        return WebpageCase(
            domain="nbaplayer",
            website="siteA",
            attribute="height",
            instruction="Here's a page. Please extract the height of the player.",
            pages=(
                __import__("wrapsmith.dataset", fromlist=["PageRecord"]).PageRecord(
                    "p00", "pages/p00.html", ("6-9", "None £ unicode ✓")
                ),
            ),
        )

    def test_save_load_structural_equality(self, tmp_path):
        case = self.make_case()
        path = tmp_path / "case.json"
        dump_json(to_record(case), path)
        assert load_case(path) == case

    def test_save_load_bit_exact(self, tmp_path):
        case = self.make_case()
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        dump_json(to_record(case), first)
        dump_json(to_record(load_case(first)), second)
        assert first.read_bytes() == second.read_bytes()

    def test_dump_json_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "case.json"
        dump_json({"old": True}, path)
        dump_json(to_record(self.make_case()), path)
        assert [p.name for p in tmp_path.iterdir()] == ["case.json"]
        assert load_case(path) == self.make_case()

    def test_interrupted_dump_json_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "case.json"
        dump_json({"old": True}, path)

        def crash(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(dataset.os, "replace", crash)
        with pytest.raises(OSError):
            dump_json({"new": True}, path)
        assert json.loads(path.read_text(encoding="utf-8")) == {"old": True}
        assert [p.name for p in tmp_path.glob("*.json")] == ["case.json"]

    def test_missing_gold_field_rejected(self, tmp_path):
        record = to_record(self.make_case())
        del record["pages"][0]["gold"]
        dump_json(record, tmp_path / "case.json")
        with pytest.raises(DatasetError, match=r"pages\[0\]\.gold"):
            load_case(tmp_path / "case.json")

    def test_missing_case_key_rejected(self, tmp_path):
        record = to_record(self.make_case())
        del record["instruction"]
        dump_json(record, tmp_path / "case.json")
        with pytest.raises(DatasetError, match="instruction"):
            load_case(tmp_path / "case.json")

    def test_ill_typed_field_is_named_by_its_path(self):
        record = to_record(self.make_case())
        record["pages"][0]["html_path"] = 5
        with pytest.raises(TypeError, match=r"^pages\[0\]\.html_path: expected str, got 5$"):
            from_record(WebpageCase, record)


class TestRecordCodec:
    @pytest.mark.parametrize("result", [
        ExtractionResult(("a", "b"), ExtractionStatus.OK),
        ExtractionResult((), ExtractionStatus.NO_MATCH, failed_step=2),
    ])
    def test_failed_step_is_written_only_when_set(self, result):
        record = to_record(result)
        assert ("failed_step" in record) == (result.failed_step is not None)
        assert from_record(ExtractionResult, record) == result

    def test_exchange_latency_is_never_written(self):
        exchange = LlmExchange("crawler", "p", "raw", {"value": ["v"], "n": 1}, 2, latency_s=0.5)
        record = to_record(exchange)
        assert "latency_s" not in record
        assert from_record(LlmExchange, record) == replace(exchange, latency_s=0.0)

    @pytest.mark.parametrize("status", [True, 1.5, None])
    def test_a_bool_or_float_is_no_int(self, status):
        record = {"values": [], "status": "ok", "failed_step": status}
        if status is None:
            assert from_record(ExtractionResult, record).failed_step is None
            return
        with pytest.raises(TypeError, match="failed_step: expected int"):
            from_record(ExtractionResult, record)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
