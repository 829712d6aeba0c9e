"""Tests of the benchmark's own code: generator, stub endpoint, span arithmetic,
host-speed scaling."""

import json
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gen
import layers
import probe
import run
import stub
from spans import Recorder, Span, covered, max_overlap, self_times

SMALL = {"prf": (300, 10, 0, 0), "reformer": (300, 10, 20, 20)}


def _files(directory: Path) -> dict:
    """File contents by name; .npz bundles by their arrays (zip entries carry timestamps)."""
    contents = {}
    for path in sorted(directory.iterdir()):
        if path.suffix == ".npz":
            with np.load(path) as bundle:
                contents[path.name] = {k: bundle[k].tobytes() for k in bundle.files}
        else:
            contents[path.name] = path.read_bytes()
    return contents


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(
    workload, tmp_path, monkeypatch
):
    monkeypatch.setitem(gen.SIZES, workload, SMALL[workload])
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        gen.generate(workload, seed, tmp_path / name)
    first, again, other = (_files(tmp_path / n) for n in "abc")
    assert first == again
    assert first.keys() == other.keys()
    assert first["corpus.tsv"] != other["corpus.tsv"]


def test_generated_queries_have_one_head_term_and_a_grade3_source(tmp_path, monkeypatch):
    monkeypatch.setitem(gen.SIZES, "prf", SMALL["prf"])
    gen.generate("prf", 3, tmp_path)
    ranks = {gen.word(r): r for r in range(gen.VOCAB_SIZE)}
    docs = dict(line.split("\t") for line in (tmp_path / "corpus.tsv").read_text().splitlines())
    qrels = [line.split() for line in (tmp_path / "qrels.txt").read_text().splitlines()]
    for (query_id, text), (qrel_qid, _, doc_id, grade) in zip(
        (line.split("\t") for line in (tmp_path / "queries.tsv").read_text().splitlines()), qrels
    ):
        terms = text.split()
        assert (qrel_qid, grade) == (query_id, "3")
        assert sum(ranks[t] < gen.HEAD_RANKS for t in terms) == 1
        assert 2 <= len(terms) <= 5
        assert set(terms) <= set(docs[doc_id].split())


def test_vocabulary_words_are_unique_single_tokens():
    from patternqr.index import tokenize

    words = [gen.word(r) for r in range(gen.VOCAB_SIZE)]
    assert len(set(words)) == gen.VOCAB_SIZE
    assert all(tokenize(w) == [w] for w in words[:: 97])


def _generation_messages(query="alpha beta", passages=("gamma delta", "epsilon zeta")):
    user = "\n".join(
        ["Pattern: X", "", "Top retrieved passages:", *(f"- {p}" for p in passages)]
        + ["", f"Query: {query}", "Reformulated query:"]
    )
    return [{"role": "system", "content": "rewrite"}, {"role": "user", "content": user}]


def test_stub_reply_is_a_pure_function_of_the_messages():
    messages = _generation_messages()
    assert stub.reply_for(messages) == stub.reply_for(json.loads(json.dumps(messages)))
    replies = {stub.reply_for(_generation_messages(query=f"alpha q{i}")) for i in range(200)}
    assert "" in replies  # the empty-reply share exercises re-ask and fallback
    for reply in replies - {""}:
        words = reply.split()
        assert words[0] == "alpha"
        assert set(words[2:]) <= {"gamma", "delta", "epsilon", "zeta"}


def test_stub_serves_the_chat_wire_format_and_counts_requests():
    from patternqr.gateway import ChatMessage, ChatRequest, HttpBackend

    server = stub.StubServer(("127.0.0.1", 0), service_s=0.0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        messages = _generation_messages()
        chat = tuple(ChatMessage(m["role"], m["content"]) for m in messages)
        request = ChatRequest(model="m", messages=chat)
        replies = [HttpBackend(url).send(request) for _ in range(2)]
        assert replies[0] == replies[1]
        assert replies[0].content == stub.reply_for(messages)
        assert replies[0].usage.completion_tokens == len(replies[0].content.split())
        assert server.served == 2
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_stub_keeps_a_session_connection_open():
    import requests

    server = stub.StubServer(("127.0.0.1", 0), service_s=0.0)
    connections = []
    accept = server.process_request
    server.process_request = lambda request, address: (
        connections.append(address), accept(request, address)
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        body = {"model": "m", "messages": _generation_messages()}
        with requests.Session() as session:
            session.trust_env = False
            statuses = [session.post(url + path, json=body).status_code
                        for path in ("/v1/chat/completions", "/other", "/v1/chat/completions")]
        assert statuses == [200, 404, 200]
        assert (len(connections), server.served) == (1, 2)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a: children cover [1, 6]
        Span("a.child", 2.0, 3.0, parent=1),
        Span("late", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])
    assert covered([(5.0, 7.0), (1.0, 2.0), (1.5, 3.0)], 0.0, 6.0) == pytest.approx(3.0)


def test_scaled_rescales_only_the_cpu_busy_share():
    assert probe.slowdown([0.3, 0.5]) == pytest.approx(0.4 / probe.REFERENCE_S)
    # 2 s of CPU in 5 s of wall time on a host twice as slow as the reference:
    # the 3 s of waiting stay, the CPU share halves.
    assert probe.scaled(5.0, 2.0, 2.0) == pytest.approx(4.0)
    # CPU time above wall time (threads) counts as fully busy.
    assert probe.scaled(4.0, 6.0, 2.0) == pytest.approx(2.0)
    assert probe.scaled(3.0, 3.0, 1.0) == pytest.approx(3.0)
    assert probe.scaled(0.0, 0.0, 2.0) == 0.0


def test_max_overlap_counts_concurrent_intervals_not_touching_ones():
    assert max_overlap([(0, 2), (1, 3), (2, 4)]) == 2
    assert max_overlap([(0, 1), (1, 2)]) == 1
    assert max_overlap([]) == 0


def test_recorder_nests_spans_records_errors_and_restores():
    class Backend:
        def send(self, x):
            if x < 0:
                raise ValueError("negative")
            return x

    layer = SimpleNamespace(backend=Backend())
    layer.outer = lambda x, query_id="": layer.backend.send(x) + 1
    original_outer, original_send = layer.outer, Backend.send
    recorder = Recorder()
    recorder.wrap(Backend, "send", "send", lambda a, kw, r: {"result": r})
    recorder.wrap(layer, "outer", "outer")
    assert layer.outer(2, query_id="q1") == 3
    with pytest.raises(ValueError):
        layer.backend.send(-1)
    recorder.restore()
    assert (layer.outer, Backend.send) == (original_outer, original_send)
    outer, inner, failed = recorder.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert (inner.query_id, inner.attrs) == ("q1", {"result": 2})
    assert (failed.parent, failed.error) == (None, "ValueError")
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_check_mapping_flags_missing_and_unexpected_layers():
    present = [Span(key, 0.0, 1.0, attrs={}) for key in sorted(layers.PRESENT["prf"])]
    for span in present:
        if span.name.startswith("index.retrieve"):
            span.name, span.attrs = "index.retrieve", {"k": layers.K_EVAL}
    assert layers.check_mapping("prf", present) == []
    errors = layers.check_mapping("prf", present[1:] + [Span("gateway.complete", 0.0, 1.0)])
    assert any("predicted on prf but recorded 0" in e for e in errors)
    assert any("gateway.complete is predicted absent" in e for e in errors)


def test_every_input_seed_of_the_pinned_workloads_has_digests():
    pins = run.load_pins()
    for workload in run.PINNED_WORKLOADS:
        assert sorted(map(int, pins[workload])) == list(range(run.INPUT_SEEDS))
