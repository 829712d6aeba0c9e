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

import requests

from .errors import ConfigError, MockMissError, ProtocolError, TransportError

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


def request_from_wire(body: dict) -> ChatRequest:
    return ChatRequest(
        model=body["model"],
        messages=tuple(ChatMessage(m["role"], m["content"]) for m in body["messages"]),
        max_tokens=body.get("max_tokens", DEFAULT_MAX_TOKENS),
        temperature=body.get("temperature", DEFAULT_TEMPERATURE),
        seed=body.get("seed"),
    )


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
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load mock script {path}: {exc}") from exc
        return cls(entries=dict(payload.get("entries", {})), fallback=payload.get("fallback"))

    def save(self, path: str | Path) -> None:
        payload = {"entries": self.entries, "fallback": self.fallback}
        Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


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
    """OpenAI-compatible chat-completions endpoint over HTTPS."""

    def __init__(self, base_url: str, api_key: str | None = None, timeout: float = 60.0):
        if not base_url:
            raise ConfigError("http backend requires a base URL")
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout

    def send(self, request: ChatRequest) -> ChatResponse:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        url = f"{self.base_url}/v1/chat/completions"
        try:
            resp = requests.post(
                url, json=request_to_wire(request), headers=headers, timeout=self.timeout
            )
        except requests.RequestException as exc:
            raise TransportError(f"request to {url} failed: {exc}") from exc
        if resp.status_code >= 500 or resp.status_code in _TRANSIENT_STATUSES:
            raise TransportError(
                f"{url} returned {resp.status_code}",
                retry_after=_retry_after(resp.headers.get("Retry-After")),
            )
        if resp.status_code != 200:
            raise ProtocolError(f"{url} returned {resp.status_code}: {resp.text[:500]}")
        try:
            body = resp.json()
            choice = body["choices"][0]
            usage = body.get("usage", {})
            return ChatResponse(
                content=choice["message"]["content"],
                finish_reason=choice.get("finish_reason", "stop"),
                usage=Usage(
                    prompt_tokens=int(usage.get("prompt_tokens", 0)),
                    completion_tokens=int(usage.get("completion_tokens", 0)),
                ),
            )
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed chat completion from {url}: {exc}") from exc


def complete_chat(
    backend,
    request: ChatRequest,
    max_retries: int = DEFAULT_MAX_RETRIES,
    backoff_base: float = 0.5,
    jitter_rng: random.Random | None = None,
    sleep=time.sleep,
) -> ChatResponse:
    """Send one request; transient failures retry with jittered exponential backoff,
    waiting at least as long as a Retry-After header asked.

    A successful response returns immediately (at-most-once delivery to the
    caller); permanent failures (protocol errors, mock misses) never retry.
    """
    rng = jitter_rng if jitter_rng is not None else random.Random()
    attempts: list[str] = []
    for attempt in range(max_retries):
        try:
            return backend.send(request)
        except TransportError as exc:
            attempts.append(f"attempt {attempt + 1}: {exc}")
            if attempt + 1 >= max_retries:
                raise TransportError(
                    f"gave up after {max_retries} attempts: {attempts}", attempts=attempts
                ) from exc
            backoff = backoff_base * (2**attempt) * (1.0 + rng.random())
            sleep(max(backoff, exc.retry_after or 0.0))
    raise TransportError("retry loop exited unexpectedly", attempts=attempts)


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
        self.backend = backend
        self.model = model
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self._sleep = sleep
        self._jitter_rng = random.Random(jitter_seed)
        self._slots = threading.BoundedSemaphore(max_in_flight)

    def complete(self, request: ChatRequest) -> ChatResponse:
        with self._slots:
            return complete_chat(
                self.backend,
                request,
                max_retries=self.max_retries,
                backoff_base=self.backoff_base,
                jitter_rng=self._jitter_rng,
                sleep=self._sleep,
            )


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

    def build(self, jitter_seed: int | None = None) -> Gateway:
        # A semaphore of 0 blocks every call forever; 0 retries never sends.
        for name in ("max_retries", "max_in_flight"):
            if getattr(self, name) < 1:
                raise ConfigError(f"gateway {name} must be >= 1, got {getattr(self, name)}")
        if self.mock_script:
            backend = MockBackend(MockScript.load(self.mock_script))
        elif self.base_url:
            backend = HttpBackend(self.base_url, api_key=self.api_key)
        else:
            raise ConfigError(
                "gateway needs a mock script or a base URL "
                f"(set {ENV_MOCK_SCRIPT} or {ENV_BASE_URL})"
            )
        return Gateway(
            backend,
            model=self.model,
            max_retries=self.max_retries,
            max_in_flight=self.max_in_flight,
            jitter_seed=jitter_seed,
        )
