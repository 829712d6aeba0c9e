import http.server
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

import patternqr
from patternqr.errors import ConfigError, DataError, MockMissError, ProtocolError, TransportError
from patternqr.gateway import (
    ChatMessage,
    ChatRequest,
    ChatResponse,
    Gateway,
    GatewayConfig,
    HttpBackend,
    MockBackend,
    MockScript,
    Usage,
    ask,
    fingerprint,
    request_to_wire,
    reask,
)
from patternqr.index import RetrievalContext
from patternqr.induction import TrainingPair, induce_patterns, label_pair
from patternqr.selector import PromptSelector


def _request(content="hello", model="m"):
    return ChatRequest(model=model, messages=(ChatMessage("user", content),))


class TestChatRequest:
    def test_default_generation_parameters_on_the_wire(self):
        wire = request_to_wire(_request())
        assert wire["max_tokens"] == 512
        assert wire["temperature"] == 1.0

    def test_needs_messages(self):
        with pytest.raises(ValueError):
            ChatRequest(model="m", messages=())

    def test_rejects_unknown_role(self):
        with pytest.raises(ValueError):
            ChatMessage("robot", "hi")

    def test_wire_body_carries_every_field(self):
        request = ChatRequest(
            model="m", messages=(ChatMessage("system", "s"), ChatMessage("user", "u"))
        )
        # The body `HttpBackend.send` posts, key order included, as first written.
        assert json.dumps(request_to_wire(request)) == (
            '{"model": "m", "messages": [{"role": "system", "content": "s"}, '
            '{"role": "user", "content": "u"}], "max_tokens": 512, "temperature": 1.0}'
        )

    def test_wire_body_without_seed(self):
        assert "seed" not in request_to_wire(_request())


class RecordingBackend:
    """Answers every request with the same unusable text and keeps the requests."""

    def __init__(self):
        self.requests = []

    def send(self, request):
        self.requests.append(request)
        return ChatResponse("not a pattern name", Usage(0, 0))


# Fingerprints of the three re-asks below, as first computed; mock scripts key on them.
REASK_FINGERPRINTS = {
    "consolidate": "38d383c2128f3fb430d2e08e2809b9364d38a35bb8e035d478c8aeef82732abc",
    "label": "2e895b17f7a13ae7d1c97fafdf616eddc4a9c2bcc33c033be819a9edbbf2e9af",
    "select": "b5779ba44aa26d806ed8ed68142ee0331ffe2bfea1cbb5670c0315a7a6d5337d",
}


class TestReask:
    def test_appends_to_last_message_and_keeps_parameters(self):
        request = ChatRequest(
            model="m2", messages=(ChatMessage("system", "sys"), ChatMessage("user", "question"))
        )
        retry = reask(request, " Be brief.")
        assert retry.messages == (
            ChatMessage("system", "sys"),
            ChatMessage("user", "question Be brief."),
        )
        assert replace(retry, messages=request.messages) == request

    @pytest.mark.parametrize("site", sorted(REASK_FINGERPRINTS))
    def test_reask_fingerprints_are_frozen(self, site, seed_library):
        pair = TrainingPair("p1", "cheap flights", "low cost airline tickets")
        context = RetrievalContext("q1", ["d1"], [1.5], 3, ("wage info passage",))
        ask = {
            "consolidate": lambda gateway: induce_patterns([pair], gateway),
            "label": lambda gateway: label_pair(pair, seed_library, gateway),
            "select": lambda gateway: PromptSelector(gateway, seed_library).choose(
                "minimum wage", context
            ),
        }[site]
        backend = RecordingBackend()
        with pytest.raises(DataError):
            ask(Gateway(backend, model="m"))
        first, retry = backend.requests
        assert fingerprint(retry) == REASK_FINGERPRINTS[site]
        assert replace(retry, messages=first.messages) == first


class ScriptedBackend:
    """Answers with the given replies in turn and keeps the requests."""

    def __init__(self, *replies):
        self.replies = list(replies)
        self.requests = []

    def send(self, request):
        self.requests.append(request)
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return ChatResponse(reply, Usage(0, 0))


def _number(content):
    try:
        return int(content)
    except ValueError as exc:
        raise DataError(f"not a number: {content!r}") from exc


class TestAsk:
    def test_a_usable_reply_is_asked_once(self):
        backend = ScriptedBackend("7")
        assert ask(Gateway(backend, model="m"), _request("n?"), _number, " Digits only.") == 7
        assert backend.requests == [_request("n?")]

    def test_an_unusable_reply_is_asked_again_with_the_suffix(self):
        backend = ScriptedBackend("seven", "7")
        assert ask(Gateway(backend, model="m"), _request("n?"), _number, " Digits only.") == 7
        assert backend.requests == [_request("n?"), _request("n? Digits only.")]

    def test_the_second_data_error_propagates(self):
        backend = ScriptedBackend("seven", "VII", "7")
        with pytest.raises(DataError, match="VII"):
            ask(Gateway(backend, model="m"), _request("n?"), _number, " Digits only.")
        assert len(backend.requests) == 2

    @pytest.mark.parametrize("failing", [0, 1], ids=["first-call", "re-ask"])
    def test_a_gateway_error_is_not_asked_again(self, failing):
        replies = ["seven", "7"]
        replies[failing] = MockMissError("f" * 64)
        backend = ScriptedBackend(*replies)
        with pytest.raises(MockMissError):
            ask(Gateway(backend, model="m"), _request("n?"), _number, " Digits only.")
        assert len(backend.requests) == failing + 1


class TestFingerprint:
    def test_ignores_the_model(self):
        a = ChatRequest(model="m", messages=(ChatMessage("user", "x"),))
        b = ChatRequest(model="other-model", messages=(ChatMessage("user", "x"),))
        assert fingerprint(a) == fingerprint(b)

    def test_sensitive_to_content_and_role(self):
        a = ChatRequest(model="m", messages=(ChatMessage("user", "x"),))
        b = ChatRequest(model="m", messages=(ChatMessage("system", "x"),))
        c = ChatRequest(model="m", messages=(ChatMessage("user", "y"),))
        assert len({fingerprint(a), fingerprint(b), fingerprint(c)}) == 3


class TestMockBackend:
    def test_scripted_lookup(self):
        request = _request("classify this")
        backend = MockBackend(MockScript(entries={fingerprint(request): "Clarify Intent"}))
        assert backend.send(request).content == "Clarify Intent"

    def test_identical_requests_identical_responses(self):
        request = _request("ping")
        backend = MockBackend(MockScript(entries={}, fallback="pong {fingerprint}"))
        assert backend.send(request) == backend.send(request)

    def test_fallback_template_substitution(self):
        request = _request("the user text")
        backend = MockBackend(MockScript(fallback="echo: {user}"))
        assert backend.send(request).content == "echo: the user text"

    def test_miss_names_fingerprint(self):
        request = _request("nothing scripted")
        backend = MockBackend(MockScript())
        with pytest.raises(MockMissError) as err:
            backend.send(request)
        assert fingerprint(request) in str(err.value)

    def test_script_file_round_trip(self, tmp_path):
        script = MockScript(entries={"fp1": "content"}, fallback="fb")
        path = tmp_path / "script.json"
        script.save(path)
        assert MockScript.load(path) == script

    def test_failed_save_leaves_previous_script(self, tmp_path, half_write_text):
        path = tmp_path / "script.json"
        path.write_bytes(b'{"entries": {"fp0": "old"}}')
        with pytest.raises(OSError, match="disk full"):
            MockScript(entries={"fp1": "new " * 100}, fallback="fb").save(path)
        assert path.read_bytes() == b'{"entries": {"fp0": "old"}}'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["script.json"]

    def test_bad_script_file(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            MockScript.load(path)

    @pytest.mark.parametrize(
        "payload",
        [[1], "text", {"entries": [1]}, {"entries": {"fp": 1}}, {"fallback": 3}],
        ids=["list", "string", "entries-list", "entry-not-text", "fallback-not-text"],
    )
    def test_malformed_script_is_a_config_error(self, tmp_path, payload):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ConfigError, match="mock script"):
            MockScript.load(path)


class FlakyBackend:
    """Fails with transport errors n times, then answers."""

    def __init__(self, failures, response):
        self.failures = failures
        self.response = response
        self.calls = 0

    def send(self, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError(f"boom {self.calls}")
        return self.response


class TestRetry:
    def test_recovers_from_transient_failures(self):
        backend = FlakyBackend(2, MockBackend(MockScript(fallback="ok")).send(_request()))
        gateway = Gateway(backend, "m", max_retries=3, jitter_seed=0, sleep=lambda s: None)
        assert gateway.complete(_request()).content == "ok"
        assert backend.calls == 3

    def test_success_returns_immediately(self):
        backend = FlakyBackend(0, MockBackend(MockScript(fallback="ok")).send(_request()))
        Gateway(backend, "m", max_retries=3, jitter_seed=0, sleep=lambda s: None).complete(
            _request()
        )
        assert backend.calls == 1

    def test_exhausted_retries_carry_attempt_log(self):
        backend = FlakyBackend(99, None)
        gateway = Gateway(backend, "m", max_retries=3, jitter_seed=0, sleep=lambda s: None)
        with pytest.raises(TransportError) as err:
            gateway.complete(_request())
        assert len(err.value.attempts) == 3
        assert "attempt 1" in err.value.attempts[0]

    def test_permanent_errors_do_not_retry(self):
        backend = MockBackend(MockScript())
        gateway = Gateway(backend, model="m", sleep=lambda s: None)
        with pytest.raises(MockMissError):
            gateway.complete(_request())


class CountingBackend:
    """Tracks the peak number of concurrent send() calls."""

    def __init__(self):
        self.active = 0
        self.peak = 0
        self.lock = threading.Lock()

    def send(self, request):
        with self.lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        time.sleep(0.01)
        with self.lock:
            self.active -= 1
        return ChatResponse("ok", Usage(0, 0))


class TestInFlightCap:
    def test_concurrent_calls_bounded(self):
        backend = CountingBackend()
        gateway = Gateway(backend, model="m", max_in_flight=2)
        threads = [
            threading.Thread(target=gateway.complete, args=(_request(str(i)),))
            for i in range(10)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert backend.peak <= 2


def _completion(content="rewritten"):
    return json.dumps(
        {
            "choices": [{"message": {"content": content}, "finish_reason": "stop"}],
            "usage": {"prompt_tokens": 5, "completion_tokens": 2},
        }
    ).encode("utf-8")


class _Endpoint(http.server.BaseHTTPRequestHandler):
    """Answers each POST with the server's next queued reply and records the request."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append((self.command, self.path, dict(self.headers), body))
        status, headers, payload = self.server.replies.pop(0)
        self.send_response(status)
        for name, value in {"Content-Length": str(len(payload)), **headers}.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args):
        pass


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture
def endpoint(monkeypatch):
    """An HTTP server on 127.0.0.1 with a `replies` queue of (status, headers, body),
    a `seen` list of (method, path, headers, body) and its `url`; no proxy is set."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    server = http.server.HTTPServer(("127.0.0.1", 0), _Endpoint)
    server.replies, server.seen = [], []
    server.url = f"http://127.0.0.1:{server.server_address[1]}"
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join()


class TestHttpBackend:
    def test_posts_openai_shape_and_parses_response(self, endpoint):
        endpoint.replies.append((200, {"Content-Type": "application/json"}, _completion()))
        request = _request("rewrite me")
        response = HttpBackend(endpoint.url + "/", api_key="key").send(request)
        assert response == ChatResponse("rewritten", Usage(5, 2))
        [(method, path, headers, body)] = endpoint.seen
        assert (method, path) == ("POST", "/v1/chat/completions")
        assert headers["Content-Type"] == "application/json"
        assert headers["Authorization"] == "Bearer key"
        assert headers["Connection"] == "close"  # one connection per call
        assert json.loads(body) == request_to_wire(request)

    def test_no_key_sends_no_authorization(self, endpoint):
        endpoint.replies.append((200, {}, _completion()))
        HttpBackend(endpoint.url).send(_request())
        assert "Authorization" not in endpoint.seen[0][2]

    def test_server_error_is_transient(self, endpoint):
        endpoint.replies.append((503, {}, b"unavailable"))
        with pytest.raises(TransportError, match="returned 503") as err:
            HttpBackend(endpoint.url).send(_request())
        assert err.value.retry_after is None

    @pytest.mark.parametrize(
        "status, retry_after, waited",
        [
            (429, "7", 7.0),  # Retry-After above the backoff is the wait
            (408, "0.01", None),  # below it, the jittered backoff is
            (429, "Wed, 21 Oct 2026 07:28:00 GMT", None),  # a date is not a number of seconds
        ],
    )
    def test_rate_limit_and_timeout_retry(self, endpoint, status, retry_after, waited):
        endpoint.replies.append((status, {"Retry-After": retry_after}, b""))
        endpoint.replies.append((200, {}, _completion("ok")))
        sleeps = []
        gateway = Gateway(
            HttpBackend(endpoint.url), "m", backoff_base=0.5, jitter_seed=0, sleep=sleeps.append
        )
        assert gateway.complete(_request()).content == "ok"
        assert len(endpoint.seen) == 2
        backoff = 0.5 * (1.0 + random.Random(0).random())
        assert sleeps == [waited if waited is not None else backoff]

    @pytest.mark.parametrize("status", [400, 401, 404, 201])
    def test_other_status_is_protocol_error(self, endpoint, status):
        endpoint.replies.append((status, {}, b"bad request body"))
        gateway = Gateway(HttpBackend(endpoint.url), "m", sleep=lambda s: None)
        with pytest.raises(ProtocolError, match=f"returned {status}: bad request body"):
            gateway.complete(_request())
        assert len(endpoint.seen) == 1  # permanent: not retried

    @pytest.mark.parametrize(
        "body",
        [
            b"not json",
            b'{"unexpected": true}',
            b'{"choices": []}',
            b'{"choices": [{}]}',
            b"[1]",
            b'{"choices": [{"message": {"content": "x"}}], "usage": 5}',
            b'{"choices": [{"message": {"content": null}}]}',
            b'{"choices": [{"message": {"content": ["x"]}}]}',
        ],
        ids=[
            "not-json",
            "no-choices",
            "empty-choices",
            "choice-without-message",
            "not-an-object",
            "usage-not-an-object",
            "content-null",
            "content-a-list",
        ],
    )
    def test_malformed_body_is_protocol_error(self, endpoint, body):
        endpoint.replies.append((200, {}, body))
        with pytest.raises(ProtocolError, match="malformed chat completion"):
            HttpBackend(endpoint.url).send(_request())

    def test_truncated_body_is_transient(self, endpoint):
        endpoint.replies.append((200, {"Content-Length": "1000"}, _completion()))
        with pytest.raises(TransportError, match="failed"):
            HttpBackend(endpoint.url).send(_request())

    def test_refused_connection_is_transient(self, endpoint):
        with pytest.raises(TransportError, match="failed"):
            HttpBackend(f"http://127.0.0.1:{_closed_port()}").send(_request())

    def test_http_proxy_from_the_environment(self, endpoint, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", endpoint.url)
        endpoint.replies.append((200, {}, _completion()))
        target = f"http://127.0.0.1:{_closed_port()}"
        assert HttpBackend(target).send(_request()).content == "rewritten"
        assert endpoint.seen[0][1] == f"{target}/v1/chat/completions"

    def test_no_proxy_bypasses_the_proxy(self, endpoint, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{_closed_port()}")
        with pytest.raises(TransportError):
            HttpBackend(endpoint.url).send(_request())
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        endpoint.replies.append((200, {}, _completion()))
        assert HttpBackend(endpoint.url).send(_request()).content == "rewritten"
        assert endpoint.seen[0][1] == "/v1/chat/completions"


def test_import_loads_no_http_client():
    # A fresh interpreter: this one has loaded the HTTP modules for the tests above.
    src = str(Path(patternqr.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import patternqr, patternqr.cli\n"
        "http = ('requests', 'urllib.request', 'http.client')\n"
        "print(sorted(m for m in http if m in sys.modules))\n"
        "patternqr.HttpBackend('http://127.0.0.1:1')\n"
        "print(sorted(m for m in http if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == ["[]", "['http.client', 'urllib.request']"]


class TestGatewayConfig:
    def test_from_env(self):
        env = {
            "PATTERNQR_BASE_URL": "http://host:1234",
            "PATTERNQR_API_KEY": "secret",
            "PATTERNQR_MODEL": "my-model",
        }
        config = GatewayConfig.from_env(env)
        assert config.base_url == "http://host:1234"
        assert config.api_key == "secret"
        assert config.model == "my-model"

    def test_mock_script_takes_precedence(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"entries": {}, "fallback": "x"}), encoding="utf-8")
        config = GatewayConfig(base_url="http://ignored", mock_script=str(path))
        gateway = config.build()
        assert isinstance(gateway.backend, MockBackend)

    @pytest.mark.parametrize("field", ["max_retries", "max_in_flight"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_counts_below_one_rejected(self, field, value):
        config = GatewayConfig(base_url="http://localhost:8000", **{field: value})
        with pytest.raises(ConfigError, match=f"{field} must be >= 1"):
            config.build()

    @pytest.mark.parametrize("field", ["max_retries", "max_in_flight"])
    def test_gateway_rejects_counts_below_one(self, field):
        # In-flight 0 would block the first call forever; 0 retries would never send.
        with pytest.raises(ConfigError, match=f"{field} must be >= 1, got 0"):
            Gateway(MockBackend(MockScript(fallback="x")), "m", **{field: 0})

    def test_unconfigured_rejected(self):
        with pytest.raises(ConfigError):
            GatewayConfig().build()
