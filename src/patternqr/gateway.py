"""Chat-completion client with a deterministic scripted mock backend.

The wire protocol is OpenAI-compatible JSON over POST /v1/chat/completions.
A request's fingerprint hashes only the role:content message pairs, never
the sampling parameters, so one mock script can serve parameter sweeps.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .artifacts import read_json, write_text
from .errors import ConfigError, DataError, MockMissError, ProtocolError, TransportError

DEFAULT_MAX_TOKENS = 512
DEFAULT_TEMPERATURE = 1.0
DEFAULT_MAX_RETRIES = 3
DEFAULT_MAX_IN_FLIGHT = 4

ENV_BASE_URL = "PATTERNQR_BASE_URL"
ENV_API_KEY = "PATTERNQR_API_KEY"
ENV_MODEL = "PATTERNQR_MODEL"
ENV_MOCK_SCRIPT = "PATTERNQR_MOCK_SCRIPT"

_ALLOWED_ROLES = ("system", "user", "assistant")


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in _ALLOWED_ROLES:
            raise ValueError(f"role must be one of {_ALLOWED_ROLES}, got {self.role!r}")


@dataclass(frozen=True)
class ChatRequest:
    model: str
    messages: tuple[ChatMessage, ...]
    max_tokens: int = DEFAULT_MAX_TOKENS
    temperature: float = DEFAULT_TEMPERATURE
    seed: int | None = None

    def __post_init__(self):
        if not self.messages:
            raise ValueError("a chat request needs at least one message")


def reask(request: ChatRequest, suffix: str) -> ChatRequest:
    """The request asked again with `suffix` appended to its last message; model and
    sampling parameters carry over."""
    last = request.messages[-1]
    return replace(
        request, messages=request.messages[:-1] + (ChatMessage(last.role, last.content + suffix),)
    )


def ask(gateway, request: ChatRequest, parse, suffix: str):
    """`parse` of the reply to `request`; if that raises a DataError, `parse` of the
    reply to `reask(request, suffix)`, whose DataError propagates.

    This is the one re-ask policy of every LLM call. A gateway error never
    re-asks: `complete` is called outside the `try`.
    """
    content = gateway.complete(request).content
    try:
        return parse(content)
    except DataError:
        pass
    return parse(gateway.complete(reask(request, suffix)).content)


@dataclass(frozen=True)
class Usage:
    prompt_tokens: int
    completion_tokens: int


@dataclass(frozen=True)
class ChatResponse:
    content: str
    finish_reason: str
    usage: Usage


def fingerprint(request: ChatRequest) -> str:
    """Stable hash of the message sequence; sampling parameters are excluded."""
    joined = "\n".join(f"{m.role}:{m.content}" for m in request.messages)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def request_to_wire(request: ChatRequest) -> dict:
    body = {
        "model": request.model,
        "messages": [{"role": m.role, "content": m.content} for m in request.messages],
        "max_tokens": request.max_tokens,
        "temperature": request.temperature,
    }
    if request.seed is not None:
        body["seed"] = request.seed
    return body


@dataclass(frozen=True)
class MockScript:
    """Canned responses keyed by request fingerprint, with an optional fallback.

    The fallback is a template; `{fingerprint}` and `{user}` (content of the
    last user message) are substituted when present.
    """

    entries: dict[str, str] = field(default_factory=dict)
    fallback: str | None = None

    @classmethod
    def load(cls, path: str | Path) -> "MockScript":
        payload = read_json(path, "mock script", ConfigError)
        entries, fallback = payload.get("entries", {}), payload.get("fallback")
        if not isinstance(entries, dict) or not all(isinstance(v, str) for v in entries.values()):
            raise ConfigError(f"mock script {path}: entries must map fingerprints to strings")
        if fallback is not None and not isinstance(fallback, str):
            raise ConfigError(f"mock script {path}: fallback must be a string")
        return cls(entries=dict(entries), fallback=fallback)

    def save(self, path: str | Path) -> None:
        write_text(path, json.dumps({"entries": self.entries, "fallback": self.fallback}, indent=2))


class MockBackend:
    """Deterministic offline backend: fingerprint lookup against a script."""

    def __init__(self, script: MockScript):
        self.script = script

    def send(self, request: ChatRequest) -> ChatResponse:
        fp = fingerprint(request)
        if fp in self.script.entries:
            content = self.script.entries[fp]
        elif self.script.fallback is not None:
            last_user = next(
                (m.content for m in reversed(request.messages) if m.role == "user"), ""
            )
            content = self.script.fallback.replace("{fingerprint}", fp).replace(
                "{user}", last_user
            )
        else:
            raise MockMissError(fp)
        prompt_tokens = sum(len(m.content.split()) for m in request.messages)
        return ChatResponse(
            content=content,
            finish_reason="stop",
            usage=Usage(prompt_tokens=prompt_tokens, completion_tokens=len(content.split())),
        )


# Request Timeout and Too Many Requests: the request may succeed when sent again.
_TRANSIENT_STATUSES = (408, 429)


def _retry_after(value: str | None) -> float | None:
    """Seconds from a Retry-After header; None for no header, an HTTP date, or a
    value that is not a finite, non-negative number."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if math.isfinite(seconds) and seconds >= 0.0 else None


class HttpBackend:
    """OpenAI-compatible chat-completions endpoint over HTTP(S), one connection per call.

    Proxies come from HTTP(S)_PROXY, read when the backend is built, and
    NO_PROXY; HTTPS verifies against the system trust store (SSL_CERT_FILE and
    SSL_CERT_DIR honoured).
    """

    def __init__(self, base_url: str, api_key: str | None = None, timeout: float = 60.0):
        if not base_url:
            raise ConfigError("http backend requires a base URL")
        # Imported here, not at module level: modes without an endpoint load no HTTP client.
        import http.client
        import urllib.request

        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout
        self._urllib = urllib.request
        self._opener = urllib.request.build_opener()  # reads the proxy variables
        self._http_errors = (OSError, http.client.HTTPException)

    def _post(self, url: str, data: bytes, headers: dict) -> tuple[int, object, bytes]:
        """Status, headers and body of one POST; an error status is returned, not raised."""
        request = self._urllib.Request(url, data=data, headers=headers, method="POST")
        try:
            with self._opener.open(request, timeout=self.timeout) as resp:
                return resp.status, resp.headers, resp.read()
        except self._urllib.HTTPError as exc:
            with exc:
                return exc.code, exc.headers, exc.read()

    def send(self, request: ChatRequest) -> ChatResponse:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        url = f"{self.base_url}/v1/chat/completions"
        data = json.dumps(request_to_wire(request)).encode("utf-8")
        try:
            status, reply_headers, body = self._post(url, data, headers)
        except self._http_errors as exc:
            raise TransportError(f"request to {url} failed: {exc}") from exc
        if status >= 500 or status in _TRANSIENT_STATUSES:
            raise TransportError(
                f"{url} returned {status}",
                retry_after=_retry_after(reply_headers.get("Retry-After")),
            )
        if status != 200:
            text = body[:500].decode("utf-8", errors="replace")
            raise ProtocolError(f"{url} returned {status}: {text}")
        try:
            payload = json.loads(body)
            choice = payload["choices"][0]
            usage = payload.get("usage", {})
            return ChatResponse(
                content=choice["message"]["content"],
                finish_reason=choice.get("finish_reason", "stop"),
                usage=Usage(
                    prompt_tokens=int(usage.get("prompt_tokens", 0)),
                    completion_tokens=int(usage.get("completion_tokens", 0)),
                ),
            )
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            raise ProtocolError(f"malformed chat completion from {url}: {exc}") from exc


class Gateway:
    """Backend plus retry policy and a global in-flight cap.

    Safe for concurrent callers: the shared state is the semaphore and the
    jitter generator, whose draws are atomic (their order across threads only
    moves backoff times).
    """

    def __init__(
        self,
        backend,
        model: str,
        max_retries: int = DEFAULT_MAX_RETRIES,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        backoff_base: float = 0.5,
        jitter_seed: int | None = None,
        sleep=time.sleep,
    ):
        # A semaphore of 0 blocks every call forever; 0 retries never sends.
        for name, count in (("max_retries", max_retries), ("max_in_flight", max_in_flight)):
            if count < 1:
                raise ConfigError(f"gateway {name} must be >= 1, got {count}")
        self.backend = backend
        self.model = model
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self._sleep = sleep
        self._jitter_rng = random.Random(jitter_seed)
        self._slots = threading.BoundedSemaphore(max_in_flight)

    def complete(self, request: ChatRequest) -> ChatResponse:
        """Send one request; transient failures retry with jittered exponential backoff,
        waiting at least as long as a Retry-After header asked.

        A successful response returns immediately (at-most-once delivery to the
        caller); permanent failures (protocol errors, mock misses) never retry.
        """
        attempts: list[str] = []
        with self._slots:
            for attempt in range(self.max_retries):
                try:
                    return self.backend.send(request)
                except TransportError as exc:
                    attempts.append(f"attempt {attempt + 1}: {exc}")
                    if attempt + 1 >= self.max_retries:
                        raise TransportError(
                            f"gave up after {self.max_retries} attempts: {attempts}",
                            attempts=attempts,
                        ) from exc
                    backoff = self.backoff_base * (2**attempt) * (1.0 + self._jitter_rng.random())
                    self._sleep(max(backoff, exc.retry_after or 0.0))
        raise TransportError("retry loop exited unexpectedly", attempts=attempts)


@dataclass(frozen=True)
class GatewayConfig:
    """Runtime gateway settings; mock_script takes precedence over base_url."""

    base_url: str | None = None
    api_key: str | None = None
    model: str = "local-model"
    mock_script: str | None = None
    max_retries: int = DEFAULT_MAX_RETRIES
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT

    @classmethod
    def from_env(cls, env=os.environ) -> "GatewayConfig":
        return cls(
            base_url=env.get(ENV_BASE_URL),
            api_key=env.get(ENV_API_KEY),
            model=env.get(ENV_MODEL, "local-model"),
            mock_script=env.get(ENV_MOCK_SCRIPT),
        )

    def check_backend(self) -> None:
        """Raise a ConfigError unless a mock script or a base URL names a backend."""
        if not (self.mock_script or self.base_url):
            raise ConfigError(
                "gateway needs a mock script or a base URL "
                f"(set {ENV_MOCK_SCRIPT} or {ENV_BASE_URL})"
            )

    def build(self, jitter_seed: int | None = None) -> Gateway:
        self.check_backend()
        if self.mock_script:
            backend = MockBackend(MockScript.load(self.mock_script))
        else:
            backend = HttpBackend(self.base_url, api_key=self.api_key)
        return Gateway(
            backend,
            model=self.model,
            max_retries=self.max_retries,
            max_in_flight=self.max_in_flight,
            jitter_seed=jitter_seed,
        )
