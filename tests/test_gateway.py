import json
import random
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from conftest import make_gateway
from oracles import reference_json_object
from wrapsmith.dom import parse_html
from wrapsmith.gateway import (
    AuthFailure,
    BackendConfig,
    BackendKind,
    BackendTimeout,
    GatewayError,
    LlmGateway,
    MalformedOutput,
    ScriptMiss,
    ScriptTable,
    extract_json_object,
    judge_consistent,
    judge_contains,
    prompt_fingerprint,
)
from wrapsmith.prompts import render_prompt


class TestJsonExtraction:
    def test_plain_object(self):
        assert extract_json_object('{"a": 1}') == {"a": 1}

    def test_prose_before_and_after(self):
        raw = 'Sure thing!\n{"value": "x", "xpath": "//p"}\nHope that helps.'
        assert extract_json_object(raw) == {"value": "x", "xpath": "//p"}

    def test_hash_comments_and_trailing_comma(self):
        raw = '{\n "value": "v", # the value\n "xpath": "//p",\n}'
        assert extract_json_object(raw) == {"value": "v", "xpath": "//p"}

    def test_trailing_comma_removal_leaves_strings_alone(self):
        raw = '{"value": "a, }", "list": ["b, ]", "c",], # d,\n "xpath": "//b",}'
        assert extract_json_object(raw) == {"value": "a, }", "list": ["b, ]", "c"], "xpath": "//b"}

    def test_nested_and_string_braces(self):
        raw = 'x {"a": {"b": "}{"}, "c": [1, 2]} y'
        assert extract_json_object(raw) == {"a": {"b": "}{"}, "c": [1, 2]}

    def test_code_fence(self):
        raw = '```json\n{"xpath": "//div[@class=\'a\']"}\n```'
        assert extract_json_object(raw) == {"xpath": "//div[@class='a']"}

    def test_garbage_returns_none(self):
        assert extract_json_object("no object here") is None
        assert extract_json_object("{broken") is None

    def test_quote_or_brace_in_a_comment_is_ignored(self):
        raw = '{"value": "6-9", # it\'s the height\n "xpath": "//b"}'
        assert extract_json_object(raw) == {"value": "6-9", "xpath": "//b"}
        raw = '{"value": "v", # note }\n "xpath": "//b", # and { one\n}'
        assert extract_json_object(raw) == {"value": "v", "xpath": "//b"}

    def test_fuzz_matches_two_pass_recovery(self):
        # Only a comment, or a span the two-pass recovery gave up on, may
        # change the result.
        rng = random.Random(5)
        pieces = ['{', '}', '[', ']', '"', "'", ',', ':', ' ', '\n', '\\', '#', '"k"',
                  '"v, }"', '1', 'x', '# it\'s }\n', '# {\n', ', }', ',]']
        compared = 0
        for _ in range(20_000):
            raw = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 16)))
            if rng.random() < 0.5:
                raw = "{" + raw
            expected, span = reference_json_object(raw)
            if expected is None or "#" in span:
                continue
            assert extract_json_object(raw) == expected, raw
            compared += 1
        assert compared > 1000

    def test_fuzz_wrapped_objects(self):
        rng = random.Random(11)
        noises = ["Sure! ", "Answer below:\n", "```\n", "note } stray ", ""]
        for _ in range(200):
            payload = {
                "thought": rng.choice(["t", "deep { thought }", "a#b"]),
                "value": rng.choice(["6-9", "", "x { y"]),
                "xpath": rng.choice(["//p", "//div[@class='a']/text()"]),
            }
            raw = rng.choice(noises) + json.dumps(payload) + rng.choice(noises)
            assert extract_json_object(raw) == payload


def scripted_gateway(tmp_path, entries) -> LlmGateway:
    """A scripted gateway that loads ``entries`` from a saved script file."""
    ScriptTable(entries).save(tmp_path / "script.json")
    config = BackendConfig(kind=BackendKind.SCRIPTED, script_path=str(tmp_path / "script.json"))
    return LlmGateway(config)


class TestScriptedBackend:
    def test_canned_response_parsed(self, tmp_path):
        prompt = render_prompt("crawler", ["instr", "<p>x</p>"])
        gateway = scripted_gateway(tmp_path, {
            prompt_fingerprint("crawler", prompt): '{"thought":"t","value":"v","xpath":"//p"}'
        })
        exchange = gateway.complete("crawler", ["instr", "<p>x</p>"])
        assert exchange.parsed == {"thought": "t", "value": "v", "xpath": "//p"}
        assert exchange.attempts == 1

    def test_unknown_fingerprint_is_script_miss(self, tmp_path):
        gateway = scripted_gateway(tmp_path, {})
        with pytest.raises(ScriptMiss):
            gateway.complete("crawler", ["instr", "<p>x</p>"])

    def test_no_script_path_is_script_miss_on_first_use(self):
        gateway = LlmGateway(BackendConfig(kind=BackendKind.SCRIPTED))
        with pytest.raises(ScriptMiss):
            gateway.complete("crawler", ["instr", "<p>x</p>"])

    def test_malformed_then_corrected_entry(self, tmp_path):
        from wrapsmith.gateway import JSON_REMINDER

        prompt = render_prompt("crawler", ["instr", "<p>x</p>"])
        gateway = scripted_gateway(tmp_path, {
            prompt_fingerprint("crawler", prompt): "not json at all",
            prompt_fingerprint("crawler", prompt + JSON_REMINDER): '{"xpath": "//p"}',
        })
        exchange = gateway.complete("crawler", ["instr", "<p>x</p>"])
        assert exchange.parsed == {"xpath": "//p"}
        assert exchange.attempts == 2

    def test_malformed_without_correction_raises(self, tmp_path):
        prompt = render_prompt("crawler", ["instr", "<p>x</p>"])
        gateway = scripted_gateway(tmp_path, {prompt_fingerprint("crawler", prompt): "garbage"})
        with pytest.raises(MalformedOutput):
            gateway.complete("crawler", ["instr", "<p>x</p>"])

    def test_retry_budget_respected(self):
        calls = []

        def transport(template, prompt):
            calls.append(prompt)
            return "never json"

        gateway = make_gateway(transport, max_retries=2)
        with pytest.raises(MalformedOutput):
            gateway.complete("crawler", ["instr", "<p>x</p>"])
        assert len(calls) == 3  # initial try plus two retries
        assert calls[1].endswith("output valid JSON only.")

    def test_script_table_round_trip(self, tmp_path):
        table = ScriptTable({"abc": "resp", "def": "other"})
        path = tmp_path / "script.json"
        table.save(path)
        assert ScriptTable.load(path).entries == table.entries


class TestRateLimiter:
    def test_requests_never_exceed_window(self):
        clock = {"now": 0.0}
        sleeps = []

        def fake_clock():
            return clock["now"]

        def fake_sleep(duration):
            sleeps.append(duration)
            clock["now"] += duration

        stamps = []

        def transport(template, prompt):
            stamps.append(clock["now"])
            return '{"xpath": "//p"}'

        config = BackendConfig(kind=BackendKind.SCRIPTED, rate_limit_per_minute=3)
        gateway = LlmGateway(config, transport=transport, clock=fake_clock, sleeper=fake_sleep)
        for _ in range(7):
            gateway.complete("crawler", ["instr", "<p>x</p>"])
        assert len(stamps) == 7
        for i in range(len(stamps)):
            window = [s for s in stamps if stamps[i] <= s < stamps[i] + 60.0]
            assert len(window) <= 3
        assert sleeps  # the limiter actually had to wait

    def test_zero_rate_means_unlimited(self):
        sent, sleeps = [], []
        config = BackendConfig(kind=BackendKind.SCRIPTED, rate_limit_per_minute=0)
        gateway = LlmGateway(
            config,
            transport=lambda t, p: sent.append(p) or '{"xpath": "//p"}',
            sleeper=sleeps.append,
        )
        for _ in range(5):
            gateway.complete("crawler", ["instr", "<p>x</p>"])
        assert len(sent) == 5 and sleeps == []


class _ChatHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        auth = self.headers.get("Authorization", "")
        if auth != "Bearer sekrit":
            self.send_response(401)
            self.end_headers()
            return
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        content = json.dumps({
            "thought": "t",
            "value": "v",
            "xpath": "//p",
            "echo_model": body.get("model"),
        })
        payload = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    server = HTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat"
    server.shutdown()


class TestHttpBackend:
    def config(self, endpoint):
        return BackendConfig(
            kind=BackendKind.HTTP,
            endpoint=endpoint,
            credential_env="WRAPSMITH_TEST_KEY",
            model="test-model",
            timeout_s=5.0,
        )

    def test_round_trip(self, chat_server, monkeypatch):
        monkeypatch.setenv("WRAPSMITH_TEST_KEY", "sekrit")
        gateway = LlmGateway(self.config(chat_server))
        exchange = gateway.complete("crawler", ["instr", "<p>x</p>"])
        assert exchange.parsed["xpath"] == "//p"
        assert exchange.parsed["echo_model"] == "test-model"

    def test_missing_credential(self, chat_server, monkeypatch):
        monkeypatch.delenv("WRAPSMITH_TEST_KEY", raising=False)
        gateway = LlmGateway(self.config(chat_server))
        with pytest.raises(AuthFailure):
            gateway.complete("crawler", ["instr", "<p>x</p>"])

    def test_rejected_credential(self, chat_server, monkeypatch):
        monkeypatch.setenv("WRAPSMITH_TEST_KEY", "wrong")
        gateway = LlmGateway(self.config(chat_server))
        with pytest.raises(AuthFailure):
            gateway.complete("crawler", ["instr", "<p>x</p>"])

    def test_unreachable_endpoint(self, monkeypatch):
        monkeypatch.setenv("WRAPSMITH_TEST_KEY", "sekrit")
        gateway = LlmGateway(self.config("http://127.0.0.1:1/nothing"))
        with pytest.raises(GatewayError):
            gateway.complete("crawler", ["instr", "<p>x</p>"])

    def test_timeout_maps_to_backend_timeout(self, monkeypatch):
        import urllib.request

        def slow_urlopen(*args, **kwargs):
            raise TimeoutError("timed out")

        monkeypatch.setenv("WRAPSMITH_TEST_KEY", "sekrit")
        monkeypatch.setattr(urllib.request, "urlopen", slow_urlopen)
        gateway = LlmGateway(self.config("http://127.0.0.1:9/x"))
        with pytest.raises(BackendTimeout):
            gateway.complete("crawler", ["instr", "<p>x</p>"])

    def test_connection_reset_is_backend_error(self, monkeypatch):
        import urllib.request

        def reset_urlopen(*args, **kwargs):
            raise ConnectionResetError("connection reset by peer")

        monkeypatch.setenv("WRAPSMITH_TEST_KEY", "sekrit")
        monkeypatch.setattr(urllib.request, "urlopen", reset_urlopen)
        gateway = LlmGateway(self.config("http://127.0.0.1:9/x"))
        with pytest.raises(GatewayError, match="connection reset"):
            gateway.complete("crawler", ["instr", "<p>x</p>"])

    def test_http_config_requires_endpoint_and_credential(self):
        with pytest.raises(ValueError):
            BackendConfig(kind=BackendKind.HTTP).validate()


class TestJudges:
    def test_consistent_equal(self):
        assert judge_consistent(["6-9"], ["6-9"]).verdict

    def test_consistent_after_normalization(self):
        assert judge_consistent(["6-9 "], ["6-9"]).verdict
        assert judge_consistent(["6-9", ""], ["  6-9"]).verdict

    def test_empty_vs_nonempty(self):
        assert not judge_consistent([], ["6-9"]).verdict

    def test_both_empty(self):
        assert judge_consistent([], []).verdict

    def test_llm_mode_uses_judgement_prompt(self):
        seen = {}

        def transport(template, prompt):
            seen["template"] = template
            return '{"thought": "t", "judgement": "yes"}'

        gateway = make_gateway(transport)
        result = judge_consistent(["a"], ["b"], gateway=gateway)
        assert result.verdict and seen["template"] == "judgement"
        assert result.exchange is not None

    def test_contains_substring(self):
        tree = parse_html("<div><b>Height:</b> 6-9 </div>", "t")
        assert judge_contains(tree, ["6-9"], "instr").verdict

    def test_contains_missing_value(self):
        tree = parse_html("<div><b>Weight:</b> 250 </div>", "t")
        assert not judge_contains(tree, ["6-9"], "instr").verdict

    def test_contains_requires_all_values(self):
        tree = parse_html("<div>a</div>", "t")
        assert not judge_contains(tree, ["a", "b"], "instr").verdict

    def test_contains_llm_mode_uses_stepback_prompt(self):
        seen = {}

        def transport(template, prompt):
            seen["template"] = template
            return '{"judgement": "no"}'

        gateway = make_gateway(transport)
        tree = parse_html("<div>a</div>", "t")
        result = judge_contains(tree, ["a"], "instr", gateway=gateway)
        assert not result.verdict and seen["template"] == "stepback"
