import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from wrapsmith.dom import parse_html
from wrapsmith.gateway import BackendConfig, BackendKind, LlmGateway


PLAYER_PAGE = """<html><body>
<div class="nav"><ul><li>Home</li><li>Stats</li></ul></div>
<div class="profile"><h1 class="name">Player One</h1>
  <div class="stats">
    <div class="hrow"><b>Height:</b><span class="val"> 6-9 </span></div>
    <div class="trow"><b>Team:</b><span class="val">Lakers</span></div>
  </div>
</div>
<div class="footer">News &amp; Notes</div>
</body></html>"""


@pytest.fixture
def player_page():
    return parse_html(PLAYER_PAGE, "player-1")


def make_gateway(transport, **config_kwargs):
    config = BackendConfig(kind=BackendKind.SCRIPTED, **config_kwargs)
    return LlmGateway(config, transport=transport)


def json_answer(value, xpath, **extra):
    record = {"thought": "t", "value": value, "xpath": xpath}
    record.update(extra)
    return json.dumps(record, ensure_ascii=False)


@pytest.fixture(scope="session")
def synthetic_corpus(tmp_path_factory):
    from wrapsmith.fixtures import build_synthetic_corpus

    root = tmp_path_factory.mktemp("corpus")
    return build_synthetic_corpus(root)
