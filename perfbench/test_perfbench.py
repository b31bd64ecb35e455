"""Self-tests of the benchmark: its checks catch faults, its pages are as described.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import unittest
from html.parser import HTMLParser
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

VOID = {"area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta",
        "param", "source", "track", "wbr"}


class Inspector(HTMLParser):
    """A minimal element tree built apart from the program's parser.

    It refuses end tags that do not close the innermost open element, so a
    page it accepts is well-formed and needs no implied end tags.
    """

    def __init__(self, html: str) -> None:
        super().__init__(convert_charrefs=True)
        self.elements: list = []  # dicts: tag, cls, depth, parent, text, children
        self._open: list = []
        self.feed(html)
        self.close()
        if self._open:
            raise AssertionError(f"unclosed elements: {[self.elements[i]['tag'] for i in self._open]}")

    def handle_starttag(self, tag, attrs):
        parent = self._open[-1] if self._open else None
        node = {"tag": tag, "cls": dict(attrs).get("class", ""), "depth": len(self._open) + 1,
                "parent": parent, "text": [], "children": []}
        self.elements.append(node)
        if parent is not None:
            self.elements[parent]["children"].append(len(self.elements) - 1)
        if tag not in VOID:
            self._open.append(len(self.elements) - 1)

    def handle_endtag(self, tag):
        if tag in VOID:
            return
        top = self._open.pop()
        if self.elements[top]["tag"] != tag:
            raise AssertionError(f"</{tag}> closes <{self.elements[top]['tag']}>")

    def handle_data(self, data):
        for i in self._open:
            self.elements[i]["text"].append(data)

    def text(self, node) -> str:
        return "".join(node["text"])

    def find(self, tag, cls=None) -> list:
        return [e for e in self.elements if e["tag"] == tag and (cls is None or e["cls"] == cls)]

    def children(self, node, tag) -> list:
        return [self.elements[i] for i in node["children"] if self.elements[i]["tag"] == tag]


class GeneratedPages(unittest.TestCase):
    def test_large_pages_hold_their_rows_and_values(self):
        pages = workloads.large_pages(seed=7)
        self.assertEqual(len(pages), workloads.LARGE_SITES * workloads.LARGE_PAGES)
        for spec in pages.values():
            doc = Inspector(spec.html)
            label_rows = [tr for tr in doc.find("tr") if doc.children(tr, "td")
                          and doc.children(tr, "td")[0]["cls"] == "k"]
            self.assertEqual(len(label_rows), spec.rows)
            self.assertEqual(spec.rows, workloads.LARGE_ROWS)
            self.assertGreater(len(spec.html), 40_000)
            self.assertGreater(len(doc.elements), 1_500)

            def value_after(label):
                hits = [tr for tr in label_rows if doc.text(doc.children(tr, "td")[0]) == label]
                self.assertEqual(len(hits), 1, label)
                return doc.text(doc.children(hits[0], "td")[1])

            self.assertEqual([doc.text(h) for h in doc.find("h1", "title")], spec.values["title"])
            self.assertEqual([value_after("Weight")], spec.values["weight"])
            self.assertEqual([value_after("Battery life")], spec.values["battery"])
            rows = doc.find("tr")
            heads = [i for i, tr in enumerate(rows) if doc.children(tr, "th")
                     and doc.text(doc.children(tr, "th")[0]) == "Dimensions"]
            self.assertEqual(len(heads), 1)
            after = rows[heads[0] + 1]
            self.assertEqual([doc.text(doc.children(after, "td")[1])], spec.values["dimensions"])

    def test_deep_pages_hold_their_depth_and_values(self):
        pages = workloads.deep_pages(seed=7)
        self.assertEqual(len(pages), workloads.DEEP_SITES * workloads.DEEP_PAGES)
        for spec in pages.values():
            doc = Inspector(spec.html)
            for attr, cls in (("model", "v"), ("serial", "u")):
                spans = doc.find("span", cls)
                self.assertEqual([doc.text(s) for s in spans], spec.values[attr])
                self.assertEqual(spans[0]["depth"], spec.depth)
            self.assertGreaterEqual(spec.depth, workloads.DEEP_VALUE_NESTING)
            self.assertLess(spec.depth, 200)  # well under the recursion limit
            for stage in range(1, workloads.PLANNED_PRUNING + 1):
                self.assertEqual(len(doc.find("div", f"s{stage}")), 1)
                self.assertEqual(len(doc.find("span", f"k{stage}")), 1)

    def test_seed_changes_values_not_structure(self):
        a, b = workloads.large_pages(seed=1), workloads.large_pages(seed=2)
        self.assertEqual(a.keys(), b.keys())
        self.assertNotEqual(a["site0", "p0"].values, b["site0", "p0"].values)
        self.assertEqual({s.rows for s in a.values()}, {s.rows for s in b.values()})
        self.assertEqual(workloads.large_pages(seed=1)["site1", "p2"], a["site1", "p2"])
        self.assertEqual(sorted(workloads.deep_layouts(1)), sorted(workloads.deep_layouts(2)))


class ChecksCatchFaults(unittest.TestCase):
    """One real pipeline round on a small fixture corpus, then corrupted copies."""

    @classmethod
    def setUpClass(cls):
        from wrapsmith.cli import main

        (HERE / "work").mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / "work"))
        root = cls.tmp / "corpus"
        with contextlib.redirect_stdout(io.StringIO()):
            main(["corpus", "--out", str(root), "--sites", "3", "--pages", "4"])
        cls.corpus = workloads.Corpus(
            root=root, manifest=root / "manifest.json", backend=root / "backend.json",
            domain="nbaplayer", attributes=("height", "team"),
            sites=[f"site{s:02d}" for s in range(3)], pages=[f"p{p:02d}" for p in range(4)],
            sample=4, seeds_per_case=3, truth=workloads.fixture_truth(3, 4),
        )
        cls.round = cls.tmp / "round"
        worker.run_round(main, cls.corpus, 1, cls.round, None)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def setUp(self):
        self.copy = self.tmp / f"copy-{self._testMethodName}"
        shutil.copytree(self.round, self.copy)

    def tearDown(self):
        shutil.rmtree(self.copy, ignore_errors=True)

    def test_untouched_round_passes(self):
        counts = worker.check_round(self.corpus, self.copy, "")
        self.assertEqual(counts["executed"], 6 * 4)
        self.assertEqual(counts["seeds"], 6 * 3)

    def test_one_corrupted_value_fails(self):
        path = self.copy / "results" / "nbaplayer__site01__team.json"
        record = json.loads(path.read_text())
        record["pages"]["p02"]["values"] = ["Team 13 City"]
        path.write_text(json.dumps(record))
        problems, _, correct = checks.check_results(
            self.copy / "results", self.corpus.truth, self.corpus.case_ids, 4)
        self.assertEqual(len(problems), 1)
        self.assertIn("site01__team/p02", problems[0])
        self.assertNotIn("nbaplayer__site01__team", correct)
        with self.assertRaises(AssertionError):
            worker.check_round(self.corpus, self.copy, "")

    def test_missing_page_fails_the_count(self):
        path = self.copy / "results" / "nbaplayer__site00__height.json"
        record = json.loads(path.read_text())
        del record["pages"]["p03"]
        path.write_text(json.dumps(record))
        problems, executed, _ = checks.check_results(
            self.copy / "results", self.corpus.truth, self.corpus.case_ids, 4)
        self.assertEqual(executed, 6 * 4 - 1)
        self.assertTrue(any("expected 6 cases x 4 pages" in p for p in problems))

    def test_eval_disagreeing_with_values_fails(self):
        per_case = self.copy / "per_case.json"
        records = json.loads(per_case.read_text())
        records[0]["label"] = "Unex"
        per_case.write_text(json.dumps(records))
        _, _, correct = checks.check_results(
            self.copy / "results", self.corpus.truth, self.corpus.case_ids, 4)
        problems = checks.check_eval(
            self.copy / "report.tsv", per_case, self.corpus.case_ids, correct)
        self.assertEqual(len(problems), 1)

    def test_growing_token_counts_fail_compression(self):
        traces = sorted((self.copy / "gen" / "traces").glob("*.json"))
        multi = [p for p in traces if len(json.loads(p.read_text())["steps"]) > 1]
        self.assertTrue(multi, "the fixture stages a step-back on most seeds")
        record = json.loads(multi[0].read_text())
        first = record["steps"][0]["metrics_before"]["token_count"]
        record["steps"][-1]["metrics_before"]["token_count"] = first + 1
        multi[0].write_text(json.dumps(record))
        problems, _ = checks.check_traces(self.copy / "gen" / "traces", 5, len(traces))
        self.assertEqual(len(problems), 1)
        self.assertIn("tree grew", problems[0])

    def test_reminder_retries_count_every_attempt(self):
        self.assertEqual(checks.exchange_chars("abc", 1, "\nR"), 3)
        self.assertEqual(checks.exchange_chars("abc\nR", 2, "\nR"), 3 + 5)
        self.assertEqual(checks.exchange_chars("abc\nR", 3, "\nR"), 3 + 5 + 5)

    def test_unplanned_pruning_depth_fails(self):
        problems, _ = checks.check_traces(
            self.copy / "gen" / "traces", 5, 18, planned_pruning=3)
        self.assertTrue(problems)


class Tracing(unittest.TestCase):
    def test_axis_classes(self):
        self.assertEqual(tracer.axis_class("//h1[@class='title']/text()"), "child")
        self.assertEqual(tracer.axis_class(workloads.LARGE_RULES["dimensions"]), "sibling")
        self.assertEqual(tracer.axis_class(workloads.LARGE_RULES["weight_pruned"]), "sibling")
        self.assertEqual(tracer.axis_class("//span[@class='k1']/text()/../.."), "parent")
        self.assertEqual(tracer.axis_class(workloads.LARGE_RULES["battery"]), "string")
        self.assertEqual(tracer.axis_class("//td[.='Weight']"), "string")
        self.assertEqual(tracer.axis_class("//td[text()='Weight']"), "child")

    def test_layer_metrics_attribute_parses_to_their_stage(self):
        spans = [
            (1, 0, "cli.synthesize", 0.0, 1.0, None),
            (2, 1, "dom.parse_html", 0.1, 0.2, 100),
            (3, 0, "cli.run", 1.0, 2.0, None),
            (4, 3, "executor.extract", 1.1, 1.9, None),
            (5, 4, "xpath.evaluate", 1.2, 1.5, "sibling"),
        ]
        spans += [(6 + i, 3, "dom.parse_html", 1.0, 1.05, 50) for i in range(4)]
        metrics = tracer.layer_metrics(spans, rounds=1, run_pages=2, setup_spans=[])
        self.assertEqual(metrics["dom.parses_per_page"][0], 2.0)
        self.assertEqual(metrics["dom.parse_html_calls"][0], 5)
        self.assertEqual(metrics["dom.parse_html_bytes"][0], 300)
        self.assertAlmostEqual(metrics["xpath.evaluate.sibling_s"][0], 0.3)
        self.assertEqual(metrics["xpath.evaluate.child_s"][0], 0.0)
        self.assertAlmostEqual(metrics["cli.run_s"][0], 1.0)

    def test_wrappers_are_installed_where_callers_look_and_removed(self):
        import wrapsmith.cli as cli
        import wrapsmith.dom as dom
        import wrapsmith.executor as executor
        import wrapsmith.generation as generation
        import wrapsmith.xpath as xpath

        originals = (cli.parse_html, dom.parse_html, xpath.evaluate, generation.prune,
                     dom.DocumentTree.to_html)
        t = tracer.Tracer()
        t.install(tracer.TARGETS)
        try:
            self.assertIs(cli.parse_html, dom.parse_html)
            self.assertIsNot(cli.parse_html, originals[0])
            self.assertIs(generation.prune, executor.prune)
            tree = cli.preprocess(cli.parse_html("<div><b class='x'>hi</b></div>", "p"))
            executor.eval_text(tree, "//b[@class='x']/text()")
            tree.to_html()
        finally:
            t.uninstall()
        self.assertEqual((cli.parse_html, dom.parse_html, xpath.evaluate, generation.prune,
                          dom.DocumentTree.to_html), originals)
        names = [s[2] for s in t.spans]
        for name in ("dom.parse_html", "dom.preprocess", "executor.eval_text",
                     "xpath.evaluate", "dom.to_html"):
            self.assertIn(name, names)
        by_id = {s[0]: s for s in t.spans}
        evaluate = next(s for s in t.spans if s[2] == "xpath.evaluate")
        self.assertEqual(by_id[evaluate[1]][2], "executor.eval_text")
        self.assertEqual(evaluate[5], "child")


if __name__ == "__main__":
    unittest.main()
