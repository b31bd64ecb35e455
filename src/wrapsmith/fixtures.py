"""Synthetic offline corpus: templated player pages plus a scripted model.

Builds a small multi-site corpus (pages, manifest, gold labels) together
with a script table that stages the model's behavior per page:

* normal pages answer the first crawl with a plausible but wrong XPath
  (it lands on the field label), forcing one step-back/prune round before
  the correct relative XPath on the pruned tree;
* two "easy" sites answer correctly in one shot, giving length-1 rules;
* the first page of every site is an outlier whose answer embeds that
  page's literal value, producing a rule that only works there - exactly
  the kind of candidate the synthesis stage must rank below its siblings.

Every page of every case is pre-recorded as a potential seed, so any seed
selection replays offline and byte-identically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .dataset import CorpusManifest, dump_json
from .dom import parse_html
from .gateway import BackendConfig, BackendKind, LlmGateway, ScriptTable, prompt_fingerprint
from .generation import StrategyConfig, generate

EASY_SITES = frozenset({0, 5})
ATTRIBUTES = ("height", "team")

_HEIGHT_RE = re.compile(
    r'Height:</b><span class="val">\s*([^<]*?)\s*</span>'
)
_TEAM_RE = re.compile(
    r'Team:</b><span class="val">\s*([^<]*?)\s*</span>'
)
_SITE_RE = re.compile(r'class="stats-(\d+)"')


def _page_html(site: int, page: int, outlier: bool) -> str:
    height = f"6-{page}"
    team = f"Team {site}{page} City"
    body_class = "legacy" if outlier else "standard"
    wrap_open = '<div class="wrap">' * (site % 3)
    wrap_close = "</div>" * (site % 3)
    return f"""<!DOCTYPE html>
<html>
<head>
<title>site{site} player {page}</title>
<style>.val {{ font-weight: bold; }}</style>
<script>trackVisit({site}, {page});</script>
</head>
<body class="{body_class}">
<!-- rendered by the fixture generator -->
<div class="nav"><ul><li>Home</li><li>Stats</li><li>News</li></ul></div>
{wrap_open}<div class="profile s{site}">
<h1 class="name">Player {site}-{page}</h1>
<div class="stats-{site}">
<div class="hrow"><b>Height:</b><span class="val"> {height} </span></div>
<div class="trow"><b>Team:</b><span class="val">{team}</span></div>
</div>
</div>{wrap_close}
<div class="footer">News &amp; Notes from site{site}</div>
</body>
</html>
"""


def _staged_policy(template: str, prompt: str) -> str:
    """Deterministic stand-in for the model, staged per page and tree state."""
    if template != "crawler":
        raise AssertionError(f"fixture policy only scripts the crawler prompt, got {template}")
    want_height = "extract the height" in prompt
    value = _extract_value(prompt, want_height)
    if '<div class="profile' in prompt:
        # Full page: first crawl.
        site = int(_SITE_RE.search(prompt).group(1))
        if 'class="legacy"' in prompt:
            xpath = f"//span[contains(text(),'{value}')]"
        elif site in EASY_SITES:
            row = "hrow" if want_height else "trow"
            xpath = f"//div[@class='stats-{site}']/div[@class='{row}']/span[@class='val']/text()"
        else:
            xpath = f"//div[@class='stats-{site}']/div/b/text()"
        return _answer(value, xpath)
    # Pruned tree: second crawl after a step-back.
    if want_height:
        return _answer(value, "//span[@class='val']/text()")
    return _answer(value, "//div[@class='trow']/span[@class='val']/text()")


def _extract_value(prompt: str, want_height: bool) -> str:
    pattern = _HEIGHT_RE if want_height else _TEAM_RE
    match = pattern.search(prompt)
    if match is None:
        raise AssertionError("fixture policy could not find the value in the prompt")
    return match.group(1)


def _answer(value: str, xpath: str) -> str:
    # Shaped like a real model reply: prose, then the JSON object with the
    # comment style the prompt itself demonstrates.
    return (
        "Sure, here is the extraction.\n"
        "{\n"
        '    "thought": "locate the field and write a class-anchored path", '
        "# reasoning\n"
        f'    "value": "{value}",\n'
        f'    "xpath": "{xpath}",\n'
        "}"
    )


class _Recorder:
    def __init__(self) -> None:
        self.entries: dict[str, str] = {}

    def __call__(self, template: str, prompt: str) -> str:
        response = _staged_policy(template, prompt)
        self.entries[prompt_fingerprint(template, prompt)] = response
        return response


@dataclass(frozen=True)
class SyntheticCorpus:
    root: Path
    manifest_path: Path
    script_path: Path
    backend_path: Path


def build_synthetic_corpus(
    root: str | Path,
    sites: int = 10,
    pages_per_site: int = 20,
) -> SyntheticCorpus:
    """Write pages, manifest, gold labels, script table, backend config."""
    root = Path(root)
    (root / "pages").mkdir(parents=True, exist_ok=True)

    manifest_record: dict = {"domains": {"nbaplayer": {"websites": {}}}}
    websites = manifest_record["domains"]["nbaplayer"]["websites"]
    written: list[tuple[str, str, str]] = []  # (site id, page id, html) of every page
    for site in range(sites):
        site_id = f"site{site:02d}"
        site_dir = root / "pages" / site_id
        site_dir.mkdir(parents=True, exist_ok=True)
        pages: dict[str, str] = {}
        gold: dict[str, dict[str, list[str]]] = {attr: {} for attr in ATTRIBUTES}
        for page in range(pages_per_site):
            page_id = f"p{page:02d}"
            rel = f"pages/{site_id}/{page_id}.html"
            html = _page_html(site, page, outlier=page == 0)
            (root / rel).write_text(html, encoding="utf-8")
            written.append((site_id, page_id, html))
            pages[page_id] = rel
            gold["height"][page_id] = [f"6-{page}"]
            gold["team"][page_id] = [f"Team {site}{page} City"]
        websites[site_id] = {"pages": pages, "gold": gold}

    manifest_path = root / "manifest.json"
    dump_json(manifest_record, manifest_path)

    # Record a scripted entry for every page and attribute, so any seed
    # selection later replays without the policy. Each page is parsed once
    # for all the attributes.
    recorder = _Recorder()
    gateway = LlmGateway(BackendConfig(kind=BackendKind.SCRIPTED), transport=recorder)
    manifest = CorpusManifest.load(manifest_path)
    cfg = StrategyConfig()
    for site_id, page_id, html in written:
        tree = parse_html(html, page_id)
        for attr in ATTRIBUTES:
            instruction = manifest.instruction_for("nbaplayer", attr)
            sequence, trace = generate(tree, instruction, gateway, cfg)
            if sequence is None:
                raise AssertionError(
                    f"fixture staging failed for {site_id}/{page_id}/{attr}: "
                    f"{trace.failure_reason}"
                )

    script_path = root / "script.json"
    ScriptTable(recorder.entries).save(script_path)

    backend_path = root / "backend.json"
    dump_json(
        {"kind": "scripted", "script_path": "script.json", "max_retries": 2},
        backend_path,
    )
    return SyntheticCorpus(root, manifest_path, script_path, backend_path)
