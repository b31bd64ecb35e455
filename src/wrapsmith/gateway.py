"""Language-model access: backends, response parsing, and judgement calls.

Two backends share one interface. The HTTP backend posts chat-completion
requests to a configured endpoint, reading the credential from a named
environment variable. The scripted backend replays canned responses keyed
by a fingerprint of the exact prompt, which makes whole pipeline runs
reproducible byte for byte.

Responses are free text; the gateway locates the outermost brace-delimited
object, tolerates ``#`` end-of-line comments and trailing commas (the
templates themselves show those), and retries with a "valid JSON only"
reminder before giving up.

Judgements (is the extraction consistent? does this subtree contain the
value?) go to the model when given a gateway and are computed otherwise;
both return the same shape so callers never branch on the mode.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from hashlib import sha256
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from .dataset import OPTIONAL, TRANSIENT, dump_json, from_record, read_record, to_record
from .dom import DocumentTree
from .executor import normalize_value, normalize_values
from .prompts import render_prompt


class GatewayError(Exception):
    """Base class for backend failures."""


class BackendTimeout(GatewayError):
    """The backend did not answer within the configured timeout."""


class AuthFailure(GatewayError):
    """Credentials missing or rejected."""


class MalformedOutput(GatewayError):
    """No parseable JSON object in the response, even after retries."""


class ScriptMiss(GatewayError):
    """The scripted backend has no entry for this prompt."""


JSON_REMINDER = "\nRemember: output valid JSON only."


class BackendKind(str, Enum):
    HTTP = "http"
    SCRIPTED = "scripted"


@dataclass(frozen=True)
class BackendConfig:
    kind: BackendKind = field(default=BackendKind.SCRIPTED, metadata=OPTIONAL)
    endpoint: str = field(default="", metadata=OPTIONAL)
    credential_env: str = field(default="", metadata=OPTIONAL)
    model: str = field(default="", metadata=OPTIONAL)
    timeout_s: float = field(default=30.0, metadata=OPTIONAL)
    max_retries: int = field(default=2, metadata=OPTIONAL)
    rate_limit_per_minute: int = field(default=0, metadata=OPTIONAL)  # 0: no limit
    script_path: Optional[str] = field(default=None, metadata=OPTIONAL)

    def validate(self) -> "BackendConfig":
        """Return this config, or raise ``ValueError`` naming the first field
        that is out of range."""
        if self.kind is BackendKind.HTTP:
            for name in ("endpoint", "credential_env"):
                if not getattr(self, name):
                    raise ValueError(f"{name}: required by the http backend")
        if self.timeout_s <= 0:
            raise ValueError(f"timeout_s: must be > 0, got {self.timeout_s!r}")
        for name in ("max_retries", "rate_limit_per_minute"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0, got {getattr(self, name)!r}")
        return self

    @classmethod
    def from_file(cls, path: str | Path) -> "BackendConfig":
        """Read a backend config; ``script_path`` is relative to its file."""
        config = read_record(path, lambda record: from_record(cls, record).validate())
        if config.script_path is not None:
            script_path = (Path(path).parent / config.script_path).resolve()
            config = replace(config, script_path=str(script_path))
        return config


@dataclass(frozen=True)
class LlmExchange:
    """One round trip: template, rendered prompt, raw answer, parsed fields.

    ``latency_s`` is in-memory diagnostics only; it is deliberately left out
    of serialized records so artifacts stay byte-stable across runs.
    """

    template: str
    prompt: str
    raw_response: str
    parsed: Optional[dict]
    attempts: int
    latency_s: float = field(default=0.0, metadata=TRANSIENT)

    def parsed_str(self, key: str) -> str:
        if not self.parsed:
            return ""
        value = self.parsed.get(key, "")
        return value if isinstance(value, str) else json.dumps(value, ensure_ascii=False)


def prompt_fingerprint(template: str, prompt: str) -> str:
    """Stable key for a scripted exchange: template name plus exact prompt."""
    return sha256(f"{template}\x1f{prompt}".encode("utf-8")).hexdigest()


def extract_json_object(text: str) -> Optional[dict]:
    """Pull the outermost ``{...}`` object out of a possibly noisy response.

    Scans for balanced braces outside string literals and ``#`` comments,
    then parses the span with the comments and trailing commas dropped.
    """
    start = text.find("{")
    while start != -1:
        span = _object_span(text, start)
        if span is not None:
            try:
                return json.loads(span)
            except json.JSONDecodeError:
                pass
        start = text.find("{", start + 1)
    return None


def _object_span(text: str, start: int) -> Optional[str]:
    """The object that opens at ``text[start]``, cleaned, or ``None`` if its
    braces never balance.

    A ``#`` outside a string starts an end-of-line comment, which is skipped
    before any quote or brace in it is looked at. Commas that only whitespace
    or comments separate from a closing ``}`` or ``]`` are dropped; string
    contents stay as they are.
    """
    out: list[str] = []
    depth = 0
    in_string: Optional[str] = None
    escaped = False
    comma = -1  # index in ``out`` of a comma that may be trailing
    i, n = start, len(text)
    while i < n:
        ch = text[i]
        i += 1
        if in_string:
            out.append(ch)
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == in_string:
                in_string = None
            continue
        if ch == "#":
            i = text.find("\n", i)
            if i == -1:
                return None
            continue
        if ch in "}]" and comma >= 0:
            del out[comma]
        if ch == ",":
            comma = len(out)
        elif not ch.isspace():
            comma = -1
        out.append(ch)
        if ch in "\"'":
            in_string = ch
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return "".join(out)
    return None


class _RateLimiter:
    """Sliding one-minute window; blocks callers that would exceed the rate."""

    def __init__(self, per_minute: int, clock: Callable[[], float] = time.monotonic,
                 sleeper: Callable[[float], None] = time.sleep) -> None:
        self.per_minute = per_minute
        self._clock = clock
        self._sleep = sleeper
        self._stamps: deque[float] = deque()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        if self.per_minute <= 0:
            return
        while True:
            with self._lock:
                now = self._clock()
                while self._stamps and now - self._stamps[0] >= 60.0:
                    self._stamps.popleft()
                if len(self._stamps) < self.per_minute:
                    self._stamps.append(now)
                    return
                wait = 60.0 - (now - self._stamps[0])
            self._sleep(max(wait, 0.001))


@dataclass(frozen=True)
class ScriptTable:
    """Canned responses keyed by prompt fingerprint."""

    entries: dict[str, str] = field(default_factory=dict, metadata=OPTIONAL)

    @classmethod
    def load(cls, path: str | Path) -> "ScriptTable":
        return read_record(path, partial(from_record, cls))

    def save(self, path: str | Path) -> None:
        dump_json(to_record(self), path)

    def lookup(self, fingerprint: str) -> Optional[str]:
        return self.entries.get(fingerprint)


class LlmGateway:
    """Renders prompts, talks to one backend, and parses structured replies.

    ``transport`` can be injected for tests: any callable taking
    ``(template_name, prompt)`` and returning raw response text.
    """

    def __init__(
        self,
        config: BackendConfig,
        transport: Optional[Callable[[str, str], str]] = None,
        clock: Callable[[], float] = time.monotonic,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        config.validate()
        self.config = config
        self.script: Optional[ScriptTable] = None
        if config.kind is BackendKind.SCRIPTED and config.script_path:
            self.script = ScriptTable.load(config.script_path)
        self._transport = transport
        self._limiter = _RateLimiter(config.rate_limit_per_minute, clock, sleeper)
        self._clock = clock

    # -- raw transports ------------------------------------------------------
    def _send(self, template: str, prompt: str) -> str:
        if self._transport is not None:
            return self._transport(template, prompt)
        if self.config.kind is BackendKind.SCRIPTED:
            if self.script is None:
                raise ScriptMiss("scripted backend has no script table")
            response = self.script.lookup(prompt_fingerprint(template, prompt))
            if response is None:
                raise ScriptMiss(
                    f"no scripted entry for template {template!r} "
                    f"(fingerprint {prompt_fingerprint(template, prompt)[:12]}...)"
                )
            return response
        return self._send_http(prompt)

    def _send_http(self, prompt: str) -> str:
        credential = os.environ.get(self.config.credential_env, "")
        if not credential:
            raise AuthFailure(
                f"environment variable {self.config.credential_env!r} is not set"
            )
        body = json.dumps({
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
        }).encode("utf-8")
        request = urllib.request.Request(
            self.config.endpoint,
            data=body,
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {credential}",
            },
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.config.timeout_s) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise GatewayError(f"backend reply is not JSON: {exc}") from exc
        except urllib.error.HTTPError as exc:
            if exc.code in (401, 403):
                raise AuthFailure(f"backend rejected credentials ({exc.code})") from exc
            raise GatewayError(f"backend error {exc.code}") from exc
        except urllib.error.URLError as exc:
            if isinstance(exc.reason, TimeoutError) or "timed out" in str(exc.reason):
                raise BackendTimeout(str(exc.reason)) from exc
            raise GatewayError(str(exc.reason)) from exc
        except TimeoutError as exc:
            raise BackendTimeout(str(exc)) from exc
        except OSError as exc:  # e.g. the connection reset while reading the reply
            raise GatewayError(str(exc)) from exc
        try:
            return payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise GatewayError(f"unexpected response shape: {payload!r}") from exc

    # -- structured completion ------------------------------------------------
    def complete(self, template: str, slots: Sequence[str]) -> LlmExchange:
        """Render, send, and parse; retries on malformed output."""
        prompt = render_prompt(template, list(slots))
        attempts = 0
        raw = ""
        started = self._clock()
        current_prompt = prompt
        while attempts <= self.config.max_retries:
            attempts += 1
            self._limiter.acquire()
            try:
                raw = self._send(template, current_prompt)
            except ScriptMiss:
                if attempts > 1:
                    # The original canned response was malformed and the
                    # script provides no corrected entry for the reminder.
                    raise MalformedOutput(
                        f"scripted response stayed malformed: {raw[:200]!r}"
                    ) from None
                raise
            parsed = extract_json_object(raw)
            if parsed is not None:
                return LlmExchange(
                    template=template,
                    prompt=current_prompt,
                    raw_response=raw,
                    parsed=parsed,
                    attempts=attempts,
                    latency_s=self._clock() - started,
                )
            current_prompt = prompt + JSON_REMINDER
        raise MalformedOutput(
            f"no JSON object after {attempts} attempt(s); last response: {raw[:200]!r}"
        )


class JudgeMode(str, Enum):
    DETERMINISTIC = "deterministic"
    LLM = "llm"


@dataclass(frozen=True)
class JudgeResult:
    verdict: bool
    exchange: Optional[LlmExchange] = None


def _yes(exchange: LlmExchange) -> bool:
    return exchange.parsed_str("judgement").strip().lower().startswith("yes")


def judge_consistent(
    extracted: Iterable[str],
    expected: Iterable[str],
    *,
    gateway: Optional[LlmGateway] = None,
) -> JudgeResult:
    """Is the extracted value set consistent with the expected one?

    Without a gateway, normalized value sets are compared; separator noise
    is forgiven, exactly the leniency the judgement prompt asks for. With
    one, the model answers that prompt.
    """
    extracted = list(extracted)
    expected = list(expected)
    if gateway is not None:
        exchange = gateway.complete(
            "judgement",
            [json.dumps(extracted, ensure_ascii=False), json.dumps(expected, ensure_ascii=False)],
        )
        return JudgeResult(_yes(exchange), exchange)
    return JudgeResult(set(normalize_values(extracted)) == set(normalize_values(expected)))


def judge_contains(
    tree: DocumentTree,
    values: Iterable[str],
    instruction: str,
    *,
    gateway: Optional[LlmGateway] = None,
) -> JudgeResult:
    """Does the tree's text contain every expected value?

    Without a gateway, normalized substring containment over the tree's
    concatenated text is checked; with one, the model answers the step-back
    prompt.
    """
    values = list(values)
    if gateway is not None:
        exchange = gateway.complete(
            "stepback",
            [instruction, json.dumps(values, ensure_ascii=False), tree.to_html()],
        )
        return JudgeResult(_yes(exchange), exchange)
    haystack = normalize_value(tree.text_content())
    verdict = all(normalize_value(v) in haystack for v in values if normalize_value(v))
    return JudgeResult(verdict)
