"""The benchmark's three workloads: corpora, truth tables and staged models.

Each builder writes a corpus (pages, manifest, scripted backend) under a
directory and returns it as a list of :class:`Corpus` shards, each of which
also carries the values the generator wrote into every page. Those values are the truth the run is
checked against; they never come from the program.

Structure (row counts, nesting depths, page counts) is fixed per workload so
that every seed costs the same work; the seed only chooses text, values and
where in the fixed structure the target fields sit.

* ``fixture``: the repository's own synthetic corpus (``wrapsmith corpus``).
* ``large-pages``: product pages of ~46 KB and ~1.9k elements with a long
  nav and a spec table; the staged rules use class-anchored ``//`` paths,
  ``following-sibling::td[1]`` after a label cell, ``contains(., ...)`` on a
  row, positional predicates and a row-wise ``preceding-sibling`` step.
* ``stepback-deep``: the value sits under tens of nested wrappers; the
  staged model answers wrongly on the full tree and on the first pruned
  trees, so every seed climbs many times and prunes ``PLANNED_PRUNING`` times.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

D_MAX = 5

# --------------------------------------------------------------------------
# Shared shape
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PageSpec:
    """What the generator put into one page, for checks and self-tests."""

    html: str
    values: dict  # attribute -> list of values, in document order
    rows: int = 0  # spec rows carrying a td.k label cell
    depth: int = 0  # element depth of the value spans (html is depth 1)


@dataclass
class Corpus:
    root: Path
    manifest: Path
    backend: Path
    domain: str
    attributes: tuple
    sites: list  # website ids
    pages: list  # page ids, the same for every website
    sample: int  # prepare --sample
    seeds_per_case: int
    truth: dict = field(default_factory=dict)  # case id -> page id -> values
    planned_pruning: Optional[int] = None

    @property
    def case_ids(self) -> list:
        return [
            f"{self.domain}__{site}__{attr}"
            for site in self.sites
            for attr in sorted(self.attributes)
        ]

    @property
    def sampled_per_case(self) -> int:
        return min(self.sample, len(self.pages))


def _answer(value: str, xpath: str) -> str:
    # Shaped like a model reply: prose, then a JSON object with a ``#``
    # comment and a trailing comma, which the gateway recovers from.
    return (
        "Here is the extraction.\n{\n"
        '    "thought": "anchor on a stable class", # reasoning\n'
        f"    \"value\": {json.dumps(value)},\n"
        f"    \"xpath\": {json.dumps(xpath)},\n"
        "}"
    )


_MALFORMED = 'Let me look at this subtree first. {"thought": "the value is near'
_CODE_RE = re.compile(r"Here's the HTML code:\n```\n", re.S)


def _html_of(prompt: str) -> str:
    match = _CODE_RE.search(prompt)
    if match is None:
        raise AssertionError("staged model could not find the HTML in the prompt")
    return prompt[match.end():]


def _attribute_of(prompt: str, prompts: dict) -> str:
    for attr, text in prompts.items():
        if text in prompt:
            return attr
    raise AssertionError("staged model got an instruction it does not know")


def _stage(corpus: Corpus, policy: Callable[[str, str], str], pages: dict) -> None:
    """Record the staged model's reply to every prompt generation will send.

    Every page of every case is staged, as ``wrapsmith corpus`` does, so any
    seed selection replays from the script table.
    """
    from wrapsmith.dataset import CorpusManifest
    from wrapsmith.dom import parse_html, preprocess
    from wrapsmith.gateway import (
        BackendConfig,
        BackendKind,
        LlmGateway,
        ScriptTable,
        prompt_fingerprint,
    )
    from wrapsmith.generation import StrategyConfig, generate

    entries: dict = {}

    def transport(template: str, prompt: str) -> str:
        reply = policy(template, prompt)
        entries[prompt_fingerprint(template, prompt)] = reply
        return reply

    gateway = LlmGateway(BackendConfig(kind=BackendKind.SCRIPTED), transport=transport)
    manifest = CorpusManifest.load(corpus.manifest)
    cfg = StrategyConfig(d_max=D_MAX)
    for site in corpus.sites:
        for page_id in corpus.pages:
            tree = preprocess(parse_html(pages[site, page_id].html, page_id))
            for attr in corpus.attributes:
                instruction = manifest.instruction_for(corpus.domain, attr)
                sequence, trace = generate(tree, instruction, gateway, cfg)
                if sequence is None:
                    raise AssertionError(
                        f"staging failed for {site}/{page_id}/{attr}: {trace.failure_reason}"
                    )
    ScriptTable(entries).save(corpus.root / "script.json")


def _write_corpus(
    root: Path,
    domain: str,
    preamble: str,
    prompts: dict,
    pages: dict,
    sites: list,
    page_ids: list,
) -> tuple:
    websites = {}
    for site in sites:
        page_map, gold = {}, {attr: {} for attr in prompts}
        for page_id in page_ids:
            rel = f"pages/{site}/{page_id}.html"
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            spec = pages[site, page_id]
            path.write_text(spec.html, encoding="utf-8")
            page_map[page_id] = rel
            for attr in prompts:
                gold[attr][page_id] = list(spec.values[attr])
        websites[site] = {"pages": page_map, "gold": gold}
    manifest = {
        "domains": {
            domain: {"preamble": preamble, "attributes": prompts, "websites": websites}
        }
    }
    manifest_path = root / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True), encoding="utf-8")
    backend_path = root / "backend.json"
    backend_path.write_text(
        json.dumps({"kind": "scripted", "script_path": "script.json", "max_retries": 2}),
        encoding="utf-8",
    )
    return manifest_path, backend_path


def _truth(domain: str, pages: dict, attributes) -> dict:
    truth: dict = {}
    for (site, page_id), spec in pages.items():
        for attr in attributes:
            truth.setdefault(f"{domain}__{site}__{attr}", {})[page_id] = list(spec.values[attr])
    return truth


def _build_shards(
    root: Path,
    pages: dict,
    sites_per_shard: int,
    domain: str,
    preamble: str,
    prompts: dict,
    seeds_per_case: int,
    policy: Callable[[str, str], str],
    planned_pruning: Optional[int] = None,
) -> list:
    """Write the pages as corpora of ``sites_per_shard`` websites each.

    Rounds cycle through the shards, which keeps one round short: many
    short rounds spread every stage's timed work over the whole run.
    """
    sites = sorted({site for site, _ in pages})
    page_ids = sorted({page for _, page in pages})
    shards = []
    for first in range(0, len(sites), sites_per_shard):
        shard_sites = sites[first:first + sites_per_shard]
        shard_root = root / f"shard{first // sites_per_shard}"
        shard_pages = {key: spec for key, spec in pages.items() if key[0] in shard_sites}
        manifest, backend = _write_corpus(
            shard_root, domain, preamble, prompts, shard_pages, shard_sites, page_ids
        )
        corpus = Corpus(
            root=shard_root,
            manifest=manifest,
            backend=backend,
            domain=domain,
            attributes=tuple(prompts),
            sites=shard_sites,
            pages=page_ids,
            sample=len(page_ids),
            seeds_per_case=seeds_per_case,
            truth=_truth(domain, shard_pages, prompts),
            planned_pruning=planned_pruning,
        )
        _stage(corpus, policy, shard_pages)
        shards.append(corpus)
    return shards


# --------------------------------------------------------------------------
# fixture: the repository's synthetic corpus
# --------------------------------------------------------------------------

FIXTURE_SITES = 24
FIXTURE_PAGES = 24
FIXTURE_SAMPLE = 20
FIXTURE_SEEDS_PER_CASE = 3


def fixture_truth(sites: int, pages: int) -> dict:
    """The fixture's construction rule: ``6-{page}`` and ``Team {site}{page} City``."""
    truth: dict = {}
    for site in range(sites):
        for page in range(pages):
            site_id, page_id = f"site{site:02d}", f"p{page:02d}"
            truth.setdefault(f"nbaplayer__{site_id}__height", {})[page_id] = [f"6-{page}"]
            truth.setdefault(f"nbaplayer__{site_id}__team", {})[page_id] = [
                f"Team {site}{page} City"
            ]
    return truth


def build_fixture(root: Path, seed: int) -> list:
    """``wrapsmith corpus`` at the benchmark's scale; the seed drives sampling."""
    from wrapsmith.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        status = main([
            "corpus", "--out", str(root),
            "--sites", str(FIXTURE_SITES), "--pages", str(FIXTURE_PAGES),
        ])
    if status != 0:
        raise RuntimeError(f"wrapsmith corpus exited with {status}")
    return [Corpus(
        root=root,
        manifest=root / "manifest.json",
        backend=root / "backend.json",
        domain="nbaplayer",
        attributes=("height", "team"),
        sites=[f"site{s:02d}" for s in range(FIXTURE_SITES)],
        pages=[f"p{p:02d}" for p in range(FIXTURE_PAGES)],
        sample=FIXTURE_SAMPLE,
        seeds_per_case=FIXTURE_SEEDS_PER_CASE,
        truth=fixture_truth(FIXTURE_SITES, FIXTURE_PAGES),
    )]


# --------------------------------------------------------------------------
# large-pages: long nav, wide spec table, realistic nesting
# --------------------------------------------------------------------------

LARGE_SITES = 2
LARGE_PAGES = 4
LARGE_SITES_PER_SHARD = 1
LARGE_ROWS = 256  # spec rows with a label cell, plus one group header per 16
LARGE_GROUP_EVERY = 16
LARGE_NAV = (30, 10)  # categories x subcategories
LARGE_REVIEWS = 24
LARGE_RELATED = 24
LARGE_SEEDS_PER_CASE = 3

LARGE_DOMAIN = "gadget"
LARGE_PREAMBLE = "Here's a webpage with detailed information about a gadget."
LARGE_PROMPTS = {
    "title": "Please extract the product name of the gadget.",
    "weight": "Please extract the weight of the gadget.",
    "battery": "Please extract the battery life of the gadget.",
    "dimensions": "Please extract the dimensions of the gadget.",
}
_GROUPS = (
    "General", "Display", "Camera", "Audio", "Network", "Storage", "Sensors",
    "Software", "Power", "Materials", "Ports", "Security", "Service", "Box",
    "Accessories", "Compliance", "Packaging", "Warranty", "Extras", "Misc",
)
_WORDS = (
    "Nova", "Orbit", "Pulse", "Vertex", "Quartz", "Ember", "Drift", "Lumen",
    "Atlas", "Cinder", "Helix", "Prism", "Rally", "Sable", "Tundra", "Zephyr",
)


@dataclass(frozen=True)
class LargeSite:
    """Per-site template choices: where the target rows sit in the table."""

    weight_row: int
    battery_row: int
    dimensions_group: int  # index of the group whose header reads Dimensions


def large_site(rng: random.Random) -> LargeSite:
    groups = LARGE_ROWS // LARGE_GROUP_EVERY
    dims = rng.randrange(2, groups - 1)
    taken = {dims * LARGE_GROUP_EVERY}
    weight = rng.choice([r for r in range(LARGE_ROWS) if r not in taken])
    taken.add(weight)
    battery = rng.choice([r for r in range(LARGE_ROWS) if r not in taken])
    return LargeSite(weight, battery, dims)


def large_page(site_index: int, page_index: int, layout: LargeSite, rng: random.Random) -> PageSpec:
    title = f"{rng.choice(_WORDS)} {rng.choice(_WORDS)} {site_index}{page_index:02d}"
    weight = f"{rng.randint(90, 990)} g"
    battery = f"{rng.randint(4, 48)} h"
    dims = f"{rng.randint(50, 180)} x {rng.randint(30, 90)} x {rng.randint(5, 15)} mm"
    out = [
        "<!DOCTYPE html>\n<html>\n<head>\n",
        f"<title>{title} | Shop {site_index}</title>\n",
        '<meta charset="utf-8"><meta name="viewport" content="width=device-width">\n',
        '<link rel="stylesheet" href="/static/site.css">\n',
        "<style>.spec td { padding: 2px 6px; } .nav li { display: inline; }</style>\n",
        f"<script>window.dataLayer = [{{page: {page_index}, site: {site_index}}}];</script>\n",
        f'</head>\n<body class="shop s{site_index}">\n',
        '<div class="header"><div class="logo"><a href="/">Shop</a></div>\n',
        '<form class="search" action="/search"><input type="text" name="q">'
        '<button type="submit">Search</button></form>\n',
        '<div class="nav"><ul class="menu">\n',
    ]
    cats, subs = LARGE_NAV
    for c in range(cats):
        out.append(f'<li class="cat"><a href="/c/{c}">Category {c}</a><ul class="sub">')
        for s in range(subs):
            out.append(f'<li><a href="/c/{c}/{s}">Subcategory {c}.{s}</a></li>')
        out.append("</ul></li>\n")
    out.append("</ul></div></div>\n")
    out.append('<div class="main"><div class="container"><div class="row">\n')
    out.append('<div class="col crumbs"><ol class="trail">')
    for depth, name in enumerate(("Home", "Devices", "Portable", "Handheld")):
        out.append(f'<li><a href="/b/{depth}">{name}</a></li>')
    out.append("</ol></div>\n")
    out.append('<div class="col product">\n<div class="head">')
    out.append(f'<h1 class="title">{title}</h1>')
    out.append(f'<div class="by">by <span class="brand">Maker {site_index}</span></div></div>\n')
    out.append(f'<div class="buy"><span class="currency">EUR</span><span class="price">{rng.randint(20, 900)}.99</span>'
               '<button class="add">Add to cart</button></div>\n')
    out.append('<div class="gallery">')
    for i in range(8):
        out.append(f'<div class="thumb"><img src="/img/{page_index}/{i}.jpg" alt="view {i}"></div>')
    out.append("</div>\n")
    out.append('<div class="specs"><table class="spec"><tbody>\n')
    rows = 0
    for r in range(LARGE_ROWS):
        if r % LARGE_GROUP_EVERY == 0:
            group = r // LARGE_GROUP_EVERY
            name = "Dimensions" if group == layout.dimensions_group else _GROUPS[group % len(_GROUPS)]
            out.append(f'<tr class="group"><th class="grp" colspan="2">{name}</th></tr>\n')
        if r == layout.weight_row:
            label, value = "Weight", weight
        elif r == layout.battery_row:
            label, value = "Battery life", battery
        elif r == layout.dimensions_group * LARGE_GROUP_EVERY:
            label, value = "Size", dims
        else:
            label, value = f"Spec {r:03d}", f"{rng.randint(1, 999)}.{rng.randint(0, 9)} u{r % 7}"
        out.append(f'<tr><td class="k">{label}</td><td class="v">{value}</td></tr>\n')
        rows += 1
    out.append("</tbody></table></div>\n")
    out.append('<div class="reviews"><h2>Reviews</h2>\n')
    for i in range(LARGE_REVIEWS):
        out.append(
            f'<div class="review"><h4 class="who">Customer {i}</h4>'
            f'<span class="stars">{1 + (i + page_index) % 5} of 5</span>'
            f'<span class="date">2024-0{1 + i % 9}-1{i % 10}</span>'
            f"<p>Review text {i} for this item: solid build, decent value, "
            f"would buy again ({rng.randint(1, 99)} people found this useful).</p></div>\n"
        )
    out.append("</div>\n</div>\n")
    out.append('<div class="col related"><ul class="items">\n')
    for i in range(LARGE_RELATED):
        out.append(
            f'<li class="item"><a href="/p/{i}"><img src="/t/{i}.jpg" alt="item {i}">'
            f'<span class="name">Related item {i}</span></a></li>\n'
        )
    out.append("</ul></div>\n</div></div></div>\n")
    out.append('<div class="footer">\n')
    for col in range(6):
        out.append(f'<div class="fcol"><h5>Section {col}</h5><ul>')
        for link in range(8):
            out.append(f'<li><a href="/f/{col}/{link}">Footer link {col}.{link}</a></li>')
        out.append("</ul></div>\n")
    out.append("<!-- rendered by the benchmark's page generator -->\n</div>\n</body>\n</html>\n")
    return PageSpec(
        html="".join(out),
        values={"title": [title], "weight": [weight], "battery": [battery], "dimensions": [dims]},
        rows=rows,
    )


#: The rules the staged model answers with on large pages.
LARGE_RULES = {
    "title": "//h1[@class='title']/text()",
    "battery": "//tr[contains(., 'Battery life')]/td[2]/text()",
    "dimensions": "//tr[preceding-sibling::tr[1]/th='Dimensions']/td[@class='v']/text()",
    # weight: wrong first (the label cell), one step-back to the row, then a
    # sibling step after the label cell on the pruned row.
    "weight_first": "//td[@class='k'][text()='Weight']/text()",
    "weight_pruned": "//td[@class='k']/following-sibling::td[1]/text()",
}
_LARGE_VALUE_RE = {
    "title": re.compile(r'<h1 class="title">([^<]*)</h1>'),
    "weight": re.compile(r'<td class="k">Weight</td><td class="v">([^<]*)</td>'),
    "battery": re.compile(r'<td class="k">Battery life</td><td class="v">([^<]*)</td>'),
    "dimensions": re.compile(
        r'<th class="grp">Dimensions</th></tr>\s*<tr><td class="k">[^<]*</td><td class="v">([^<]*)</td>'
    ),
}


def large_policy(template: str, prompt: str) -> str:
    if template != "crawler":
        raise AssertionError(f"staged model only answers the crawler prompt, got {template}")
    attr = _attribute_of(prompt, LARGE_PROMPTS)
    html = _html_of(prompt)
    match = _LARGE_VALUE_RE[attr].search(html)
    if match is None:
        raise AssertionError(f"staged model could not find the {attr} value")
    value = match.group(1)
    if attr != "weight":
        return _answer(value, LARGE_RULES[attr])
    if html.startswith("<html"):
        return _answer(value, LARGE_RULES["weight_first"])
    return _answer(value, LARGE_RULES["weight_pruned"])


def large_pages(seed: int) -> dict:
    rng = random.Random(f"large-pages:{seed}")
    pages = {}
    for s in range(LARGE_SITES):
        layout = large_site(rng)
        for p in range(LARGE_PAGES):
            pages[f"site{s}", f"p{p}"] = large_page(s, p, layout, rng)
    return pages


def build_large(root: Path, seed: int) -> list:
    return _build_shards(
        root, large_pages(seed), LARGE_SITES_PER_SHARD, LARGE_DOMAIN, LARGE_PREAMBLE,
        LARGE_PROMPTS, LARGE_SEEDS_PER_CASE, large_policy,
    )


# --------------------------------------------------------------------------
# stepback-deep: the value under tens of nested wrappers
# --------------------------------------------------------------------------

DEEP_SITES = 4
DEEP_PAGES = 6
DEEP_SITES_PER_SHARD = 2
DEEP_SEEDS_PER_CASE = 5
PLANNED_PRUNING = 3
#: Nesting of the three decoy chains, one triple per site; the seed permutes
#: them across sites so every seed does the same total work.
DEEP_DECOYS = ((10, 8, 6), (12, 9, 7), (9, 9, 9), (11, 7, 8))
DEEP_VALUE_NESTING = 30  # wrappers between the innermost stage and the values
DEEP_FILLERS = 14  # filler paragraphs beside each stage
DEEP_DOMAIN = "device"
DEEP_PREAMBLE = "Here's a webpage with detailed information about a device."
DEEP_PROMPTS = {
    "model": "Please extract the model code of the device.",
    "serial": "Please extract the serial number of the device.",
}
_DEEP_CLASS = {"model": "v", "serial": "u"}
_STAGE_RE = re.compile(r'<div class="s(\d)">')


def _deep_value(rng: random.Random, prefix: str) -> str:
    letters = "ABCDEFGHJKLMNPQRSTUVWXYZ"
    return f"{prefix}-{rng.randint(10, 99999)}-{rng.choice(letters)}{rng.choice(letters)}"


def deep_page(site_index: int, page_index: int, decoys: tuple, rng: random.Random) -> PageSpec:
    model, serial = _deep_value(rng, "MX"), _deep_value(rng, "SN")
    out = [
        "<!DOCTYPE html>\n<html>\n<head>\n",
        f"<title>Device {site_index}-{page_index}</title>\n",
        f"<script>var page = {page_index};</script>\n</head>\n",
        f'<body class="deep d{site_index}">\n<div class="nav"><ul>',
    ]
    out.extend(f'<li><a href="/n/{i}">Menu entry {i}</a></li>' for i in range(40))
    out.append("</ul></div>\n")
    depth = 2  # html > body
    for stage, nesting in enumerate(decoys, start=1):
        out.append(f'<div class="s{stage}">\n')
        depth += 1
        # The decoy: a label ``nesting`` wrappers down, beside the next stage.
        out.append(f'<div class="d{stage}">' + '<div class="c">' * (nesting - 1))
        out.append(f'<span class="k{stage}">Reference {stage}</span>')
        out.append("</div>" * nesting + "\n")
        for i in range(DEEP_FILLERS):
            out.append(
                f'<p class="fill">Stage {stage} note {i}: <b>shipping</b>, returns and '
                f'<a href="/terms/{i}">warranty terms</a> apply ({rng.randint(7, 120)} days).</p>\n'
            )
    for level in range(DEEP_VALUE_NESTING):
        out.append(f'<div class="w{level % 4}"><em class="lvl">level {level}</em>')
    depth += DEEP_VALUE_NESTING
    out.append(f'<span class="v">{model}</span><span class="u">{serial}</span>')
    out.append("</div>" * DEEP_VALUE_NESTING)
    out.append("\n</div>" * len(decoys))
    out.append('\n<div class="footer">Device catalogue footer</div>\n</body>\n</html>\n')
    return PageSpec(
        html="".join(out),
        values={"model": [model], "serial": [serial]},
        depth=depth + 1,  # the span itself
    )


def deep_rule(attr: str, decoys: tuple) -> list:
    """The rule the staged model builds: one climb per decoy, then the value."""
    steps = [
        f"//span[@class='k{stage}']/text()" + "/.." * (nesting + 2)
        for stage, nesting in enumerate(decoys, start=1)
    ]
    return steps + [f"//span[@class='{_DEEP_CLASS[attr]}']/text()"]


def deep_policy(template: str, prompt: str) -> str:
    if template != "crawler":
        raise AssertionError(f"staged model only answers the crawler prompt, got {template}")
    attr = _attribute_of(prompt, DEEP_PROMPTS)
    html = _html_of(prompt)
    match = re.search(rf'<span class="{_DEEP_CLASS[attr]}">([^<]*)</span>', html)
    if match is None:
        raise AssertionError(f"staged model could not find the {attr} value")
    value = match.group(1)
    root = _STAGE_RE.match(html)
    stage = int(root.group(1)) if root else 0
    if stage == 1 and prompt.endswith("```"):
        # The bare prompt on the first pruned tree gets a reply with no JSON
        # object, so the gateway retries once with its reminder appended.
        return _MALFORMED
    if stage < PLANNED_PRUNING:
        return _answer(value, f"//span[@class='k{stage + 1}']/text()")
    return _answer(value, f"//span[@class='{_DEEP_CLASS[attr]}']/text()")


def deep_layouts(seed: int) -> list:
    rng = random.Random(f"stepback-deep-layout:{seed}")
    layouts = list(DEEP_DECOYS)
    rng.shuffle(layouts)
    return layouts


def deep_pages(seed: int) -> dict:
    rng = random.Random(f"stepback-deep:{seed}")
    pages = {}
    for s, decoys in enumerate(deep_layouts(seed)):
        for p in range(DEEP_PAGES):
            pages[f"site{s}", f"p{p}"] = deep_page(s, p, decoys, rng)
    return pages


def build_deep(root: Path, seed: int) -> list:
    return _build_shards(
        root, deep_pages(seed), DEEP_SITES_PER_SHARD, DEEP_DOMAIN, DEEP_PREAMBLE,
        DEEP_PROMPTS, DEEP_SEEDS_PER_CASE, deep_policy, PLANNED_PRUNING,
    )


BUILDERS = {
    "fixture": build_fixture,
    "large-pages": build_large,
    "stepback-deep": build_deep,
}
