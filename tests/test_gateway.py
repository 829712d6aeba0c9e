import json
import random
import threading
import time
from dataclasses import replace

import pytest
import requests

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
    complete_chat,
    fingerprint,
    request_from_wire,
    request_to_wire,
    reask,
)
from patternqr.index import ContextEntry, RetrievalContext
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

    def test_wire_round_trip(self):
        request = ChatRequest(
            model="m",
            messages=(ChatMessage("system", "s"), ChatMessage("user", "u")),
            max_tokens=64,
            temperature=0.2,
            seed=7,
        )
        assert request_from_wire(request_to_wire(request)) == request

    def test_wire_round_trip_without_seed(self):
        request = _request()
        wire = request_to_wire(request)
        assert "seed" not in wire
        assert request_from_wire(wire) == request


class RecordingBackend:
    """Answers every request with the same unusable text and keeps the requests."""

    def __init__(self):
        self.requests = []

    def send(self, request):
        self.requests.append(request)
        return ChatResponse("not a pattern name", "stop", Usage(0, 0))


# Fingerprints of the three re-asks below, as first computed; mock scripts key on them.
REASK_FINGERPRINTS = {
    "consolidate": "38d383c2128f3fb430d2e08e2809b9364d38a35bb8e035d478c8aeef82732abc",
    "label": "2e895b17f7a13ae7d1c97fafdf616eddc4a9c2bcc33c033be819a9edbbf2e9af",
    "select": "b5779ba44aa26d806ed8ed68142ee0331ffe2bfea1cbb5670c0315a7a6d5337d",
}


class TestReask:
    def test_appends_to_last_message_and_keeps_parameters(self):
        request = ChatRequest(
            model="m",
            messages=(ChatMessage("system", "sys"), ChatMessage("user", "question")),
            max_tokens=7,
            temperature=0.2,
            seed=5,
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
        context = RetrievalContext("q1", (ContextEntry("d1", 1.5, "wage info passage"),), 3)
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


class TestFingerprint:
    def test_ignores_sampling_parameters(self):
        a = ChatRequest(model="m", messages=(ChatMessage("user", "x"),), temperature=0.1)
        b = ChatRequest(model="m", messages=(ChatMessage("user", "x"),), temperature=0.9)
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

    def test_bad_script_file(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(ConfigError):
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
        response = complete_chat(backend, _request(), max_retries=3, sleep=lambda s: None)
        assert response.content == "ok"
        assert backend.calls == 3

    def test_success_returns_immediately(self):
        backend = FlakyBackend(0, MockBackend(MockScript(fallback="ok")).send(_request()))
        complete_chat(backend, _request(), max_retries=3, sleep=lambda s: None)
        assert backend.calls == 1

    def test_exhausted_retries_carry_attempt_log(self):
        backend = FlakyBackend(99, None)
        with pytest.raises(TransportError) as err:
            complete_chat(backend, _request(), max_retries=3, sleep=lambda s: None)
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
        return ChatResponse("ok", "stop", Usage(0, 0))


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


class TestHttpBackend:
    def test_posts_openai_shape_and_parses_response(self, monkeypatch):
        captured = {}

        class FakeResponse:
            status_code = 200

            def json(self):
                return {
                    "choices": [{"message": {"content": "rewritten"}, "finish_reason": "stop"}],
                    "usage": {"prompt_tokens": 5, "completion_tokens": 2},
                }

        def fake_post(url, json=None, headers=None, timeout=None):
            captured["url"] = url
            captured["json"] = json
            captured["headers"] = headers
            return FakeResponse()

        monkeypatch.setattr(requests, "post", fake_post)
        backend = HttpBackend("http://localhost:8000", api_key="key")
        response = backend.send(_request("rewrite me"))
        assert response.content == "rewritten"
        assert captured["url"] == "http://localhost:8000/v1/chat/completions"
        assert captured["json"]["max_tokens"] == 512
        assert captured["json"]["temperature"] == 1.0
        assert captured["headers"]["Authorization"] == "Bearer key"

    def test_server_error_is_transient(self, monkeypatch):
        class FakeResponse:
            status_code = 503
            text = "unavailable"
            headers = {}

        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse())
        with pytest.raises(TransportError):
            HttpBackend("http://localhost:8000").send(_request())

    @pytest.mark.parametrize(
        "status, retry_after, waited",
        [
            (429, "7", 7.0),  # Retry-After above the backoff is the wait
            (408, "0.01", None),  # below it, the jittered backoff is
            (429, "Wed, 21 Oct 2026 07:28:00 GMT", None),  # a date is not a number of seconds
        ],
    )
    def test_rate_limit_and_timeout_retry(self, monkeypatch, status, retry_after, waited):
        class FakeResponse:
            def __init__(self, status_code, headers):
                self.status_code = status_code
                self.headers = headers
                self.text = ""

            def json(self):
                return {"choices": [{"message": {"content": "ok"}}]}

        replies = [FakeResponse(status, {"Retry-After": retry_after}), FakeResponse(200, {})]
        posts = []

        def fake_post(url, **kwargs):
            posts.append(url)
            return replies[len(posts) - 1]

        monkeypatch.setattr(requests, "post", fake_post)
        sleeps = []
        response = complete_chat(
            HttpBackend("http://localhost:8000"),
            _request(),
            backoff_base=0.5,
            jitter_rng=random.Random(0),
            sleep=sleeps.append,
        )
        assert response.content == "ok"
        assert len(posts) == 2
        backoff = 0.5 * (1.0 + random.Random(0).random())
        assert sleeps == [waited if waited is not None else backoff]

    def test_malformed_body_is_protocol_error(self, monkeypatch):
        class FakeResponse:
            status_code = 200

            def json(self):
                return {"unexpected": True}

        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse())
        with pytest.raises(ProtocolError):
            HttpBackend("http://localhost:8000").send(_request())


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

    def test_unconfigured_rejected(self):
        with pytest.raises(ConfigError):
            GatewayConfig().build()
