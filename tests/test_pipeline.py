import json
import sys
import threading
import time
import typing
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from patternqr import pipeline, selector
from patternqr.errors import ConfigError, DataError, GatewayError
from patternqr.evaluation import parse_run
from patternqr.gateway import GatewayConfig, MockBackend, MockScript, fingerprint
from patternqr.generator import build_generation_prompt, read_reformulation_log
from patternqr.index import build_index, read_corpus_tsv, retrieve_topk
from patternqr.induction import (
    PatternLibrary,
    ReformulationPattern,
    default_library,
    save_library,
)
from patternqr.pipeline import (
    REFORMER_MODES,
    PipelineConfig,
    config_from_dict,
    config_hash,
    load_hook_passages,
    run_pipeline,
)
from patternqr.selector import SelectorModel, TrainConfig, save_model

CORPUS = """\
d1\tcat sat
d2\tdog sat sat
d3\tjaguar cat feline predator rainforest
d4\tjaguar spotted fur south america
d5\tcat whiskers paws domestic pet
d6\tweather forecast sunny tomorrow
"""

QUERIES = "q1\tsat\nq2\tjaguar\n"

QRELS = """\
q1 0 d2 3
q1 0 d1 1
q2 0 d3 3
q2 0 d5 2
"""


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "corpus.tsv").write_text(CORPUS, encoding="utf-8")
    (tmp_path / "queries.tsv").write_text(QUERIES, encoding="utf-8")
    (tmp_path / "qrels.txt").write_text(QRELS, encoding="utf-8")
    model = SelectorModel.zeros(10, "seed-1")
    save_model(model, tmp_path / "selector.npz")
    return tmp_path


def _mock_script_for(workspace, reformulation_of, k_context=3):
    """Script every generation prompt the pipeline will build."""
    index = build_index(read_corpus_tsv(workspace / "corpus.tsv"))
    library = default_library()
    pattern = library.patterns[0]  # zero model picks pattern 0 by argmax tie-break
    entries = {}
    for query_id, text in (("q1", "sat"), ("q2", "jaguar")):
        context = retrieve_topk(index, text, k_context, query_id=query_id)
        request = build_generation_prompt(text, context, pattern, model="mock-model")
        entries[fingerprint(request)] = reformulation_of(text)
    path = workspace / "mock.json"
    MockScript(entries=entries).save(path)
    return path


def _config(workspace, mode, mock_path=None, **overrides):
    gateway = GatewayConfig(
        mock_script=str(mock_path) if mock_path else None, model="mock-model"
    )
    defaults = dict(
        corpus=str(workspace / "corpus.tsv"),
        queries=str(workspace / "queries.tsv"),
        qrels=str(workspace / "qrels.txt"),
        mode=mode,
        selector_model=str(workspace / "selector.npz"),
        gateway=gateway,
        k_eval=10,
        out_dir=str(workspace / "out"),
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def _within_5_seconds(fn, *args):
    """`fn(*args)`, called on a thread that must end within 5 s; its error is raised here."""
    outcome = {}

    def call():
        try:
            outcome["result"] = fn(*args)
        except BaseException as exc:  # raised again on the test's thread
            outcome["error"] = exc

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive(), f"{fn.__name__} did not end within 5 s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


class TestBaselineModes:
    def test_bm25_ranks_fixture_correctly(self, workspace):
        result = run_pipeline(_config(workspace, "bm25"))
        run = parse_run(result.run_path)
        assert run["q1"].doc_ids == ("d2", "d1")
        assert result.report is not None
        assert result.report.num_judged == 2

    def test_judged_query_that_retrieves_nothing_scores_zero(self, workspace):
        (workspace / "queries.tsv").write_text(QUERIES + "q3\tzebra\n", encoding="utf-8")
        (workspace / "qrels.txt").write_text(QRELS + "q3 0 d6 2\n", encoding="utf-8")
        report = run_pipeline(_config(workspace, "bm25")).report
        assert (report.num_judged, report.num_missing) == (3, 1)
        assert report.per_query["q3"].ndcg10 == 0.0
        ranked = [report.per_query[q].ndcg10 for q in ("q1", "q2")]
        assert report.mean_ndcg10 == pytest.approx(sum(ranked) / 3)

    def test_rm3_mode_produces_run_and_report(self, workspace):
        result = run_pipeline(_config(workspace, "rm3", fb_docs=2, fb_terms=5))
        run = parse_run(result.run_path)
        assert "q2" in run
        # co-occurring "cat" vocabulary pulls in the cat-only document
        assert "d5" in run["q2"].doc_ids

    def test_rocchio_mode_runs(self, workspace):
        result = run_pipeline(_config(workspace, "rocchio"))
        assert result.run_path.exists()

    def test_failed_metrics_write_leaves_no_csv(self, workspace, monkeypatch):
        write_text = Path.write_text

        def write_then_fail(self, data, *args, **kwargs):
            # The metrics writer is atomic itself, so the failure is injected into it.
            if ".csv" not in self.name:
                return write_text(self, data, *args, **kwargs)
            write_text(self, "partial", *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", write_then_fail)
        with pytest.raises(OSError):
            run_pipeline(_config(workspace, "bm25"))
        assert not list((workspace / "out").glob("*.csv*"))

    @pytest.mark.parametrize(
        "mode, step",
        [("bm25", "retrieve_topk"), ("rm3", "rm3_expand"), ("rocchio", "rocchio_expand")],
    )
    def test_the_first_failing_query_in_input_order_stops_the_run(
        self, workspace, monkeypatch, mode, step
    ):
        original = getattr(pipeline, step)

        def fail_q3_and_q7(index, query, *args, **kwargs):
            if query in ("cat pet", "feline predator"):
                raise DataError(f"cannot rank {query!r}")
            return original(index, query, *args, **kwargs)

        monkeypatch.setattr(pipeline, step, fail_q3_and_q7)
        config = _config(workspace, mode, queries=str(_many_queries(workspace)))
        with pytest.raises(DataError, match="^stage retrieve: query q3: cannot rank 'cat pet'$"):
            _within_5_seconds(run_pipeline, config)
        assert not list((workspace / "out").glob("*"))

    @pytest.mark.parametrize("mode", ["bm25", "rm3", "rocchio"])
    def test_a_prf_run_ranks_on_one_thread(self, workspace, monkeypatch, mode):
        # No LLM wait to overlap with: more threads would only contend for the interpreter.
        threads = []
        original = pipeline.retrieve_topk

        def retrieve(*args, **kwargs):
            threads.append(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "retrieve_topk", retrieve)
        config = _config(workspace, mode, queries=str(_many_queries(workspace)))
        _within_5_seconds(run_pipeline, config)
        assert len(threads) == len(MANY_QUERIES)
        assert len(set(threads)) == 1

    def test_run_tag_embeds_mode_and_config_hash(self, workspace):
        config = _config(workspace, "bm25")
        result = run_pipeline(config)
        run = parse_run(result.run_path)
        digest = config_hash(config)
        for ranking in run.values():
            assert ranking.tag == f"bm25-{digest}"


class TestReformerMode:
    def test_two_executions_are_byte_identical(self, workspace):
        mock = _mock_script_for(workspace, lambda q: f"{q} rewritten with detail")
        config = _config(workspace, "reformer", mock)
        first = run_pipeline(config)
        run_bytes = first.run_path.read_bytes()
        log_bytes = first.log_path.read_bytes()
        report_bytes = first.report_path.read_bytes()
        second = run_pipeline(config)
        assert second.run_path.read_bytes() == run_bytes
        assert second.log_path.read_bytes() == log_bytes
        assert second.report_path.read_bytes() == report_bytes

    def test_unhashed_settings_change_no_artifact_byte(self, workspace):
        mock = _mock_script_for(workspace, lambda q: f"{q} rewritten with detail")
        artifacts = []
        for out_dir, api_key, max_retries, max_in_flight in (
            ("out1", None, 1, 1),
            ("out2", "secret", 5, 3),
        ):
            gateway = GatewayConfig(
                mock_script=str(mock),
                model="mock-model",
                api_key=api_key,
                max_retries=max_retries,
                max_in_flight=max_in_flight,
            )
            out_dir = str(workspace / out_dir)
            result = run_pipeline(_config(workspace, "reformer", gateway=gateway, out_dir=out_dir))
            paths = (result.run_path, result.log_path, result.report_path)
            artifacts.append([path.read_bytes() for path in paths])
        assert artifacts[0] == artifacts[1]

    def test_identity_reformulation_matches_bm25_ranking(self, workspace):
        mock = _mock_script_for(workspace, lambda q: q)
        reformer = run_pipeline(_config(workspace, "reformer", mock))
        bm25 = run_pipeline(_config(workspace, "bm25", out_dir=str(workspace / "out2")))
        reformer_run = parse_run(reformer.run_path)
        bm25_run = parse_run(bm25.run_path)
        assert set(reformer_run) == set(bm25_run)
        for query_id in bm25_run:
            assert reformer_run[query_id].doc_ids == bm25_run[query_id].doc_ids

    def test_log_records_pattern_and_hybrid(self, workspace):
        mock = _mock_script_for(workspace, lambda q: f"{q} extended")
        result = run_pipeline(_config(workspace, "reformer", mock))
        records = read_reformulation_log(result.log_path)
        assert [r.query_id for r in records] == ["q1", "q2"]
        assert records[0].pattern_name == "Clarify Intent"
        assert records[0].hybrid_query == "sat sat extended"
        assert records[0].fallback is False
        header = json.loads(result.log_path.read_text(encoding="utf-8").splitlines()[0])
        assert header["config_hash"] == result.config_hash

    def test_repetition_weights_original_phrasing(self, workspace):
        mock = _mock_script_for(workspace, lambda q: f"{q} extended")
        result = run_pipeline(_config(workspace, "reformer", mock, repetition=3))
        records = read_reformulation_log(result.log_path)
        assert records[0].hybrid_query == "sat sat sat sat extended"

    def test_gateway_miss_aborts_without_partial_run(self, workspace):
        empty_mock = workspace / "empty.json"
        MockScript().save(empty_mock)
        config = _config(workspace, "reformer", empty_mock)
        with pytest.raises(GatewayError, match="stage reformulate"):
            run_pipeline(config)
        assert not (workspace / "out" / "reformer.run").exists()

    def test_mock_run_touches_no_network(self, workspace, monkeypatch):
        import socket

        def explode(*args, **kwargs):
            raise AssertionError("network call attempted")

        monkeypatch.setattr(socket.socket, "connect", explode)
        monkeypatch.setattr(socket.socket, "connect_ex", explode)
        mock = _mock_script_for(workspace, lambda q: f"{q} more")
        run_pipeline(_config(workspace, "reformer", mock))

    def test_a_blank_query_falls_back_to_itself_and_is_left_out_of_the_run(self, workspace):
        (workspace / "queries.tsv").write_text("q1\tcat\nq2\t   \n", encoding="utf-8")
        library = PatternLibrary((ReformulationPattern(0, "Only", "d", "r"),), version="one")
        save_library(library, workspace / "library.json")
        mock = workspace / "mock.json"
        MockScript(fallback="").save(mock)  # every generation is empty: both fall back
        config = _config(
            workspace, "reformer", mock, library=str(workspace / "library.json"), selector="prompt"
        )
        result = run_pipeline(config)
        records = read_reformulation_log(result.log_path)
        assert [(r.query_id, r.reformulation, r.fallback) for r in records] == [
            ("q1", "cat", True),
            ("q2", "   ", True),
        ]
        assert list(parse_run(result.run_path)) == ["q1"]


class TestHookMode:
    def test_hook_passages_reach_the_generation_prompt(self, workspace):
        hook_path = workspace / "hook.tsv"
        hook_path.write_text(
            "q1\tpseudo passage about seating\nq2\tpseudo passage about big cats\n",
            encoding="utf-8",
        )
        index = build_index(read_corpus_tsv(workspace / "corpus.tsv"))
        library = default_library()
        pattern = library.patterns[0]
        hooks = load_hook_passages(hook_path)
        entries = {}
        for query_id, text in (("q1", "sat"), ("q2", "jaguar")):
            context = retrieve_topk(index, text, 3, query_id=query_id)
            request = build_generation_prompt(
                text, context, pattern, model="mock-model", extra_context=[hooks[query_id]]
            )
            entries[fingerprint(request)] = f"{text} via hook"
        mock_path = workspace / "hook_mock.json"
        MockScript(entries=entries).save(mock_path)  # no fallback: a miss would abort

        config = _config(workspace, "reformer+hook", mock_path, hook_file=str(hook_path))
        result = run_pipeline(config)
        records = read_reformulation_log(result.log_path)
        assert [r.reformulation for r in records] == ["sat via hook", "jaguar via hook"]

    def test_duplicate_query_id_in_the_hook_file_names_its_line(self, workspace):
        hook_path = workspace / "hook.tsv"
        hook_path.write_text("q1\tfirst passage\nq1\tsecond passage\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"{hook_path}:2: duplicate query_id 'q1'"):
            load_hook_passages(hook_path)

    def test_hook_mode_requires_hook_file(self, workspace):
        with pytest.raises(ConfigError):
            run_pipeline(_config(workspace, "reformer+hook"))


# Where the artifacts go, and settings that change none of their bytes.
UNHASHED_FIELDS = {"out_dir", "api_key", "max_in_flight", "max_retries"}


def _values_of(hint):
    """Values of a config field's type: str, int, float, or any of them or None."""
    kinds = {
        str: st.text(),
        int: st.integers(),
        float: st.floats(allow_nan=False),
        type(None): st.none(),
    }
    return st.one_of(*(kinds[kind] for kind in typing.get_args(hint) or (hint,)))


class TestConfigHandling:
    def test_unknown_mode_rejected(self, workspace):
        with pytest.raises(ConfigError):
            _config(workspace, "dense").validate()

    def test_missing_corpus_rejected(self, workspace):
        config = _config(workspace, "bm25", corpus=str(workspace / "nope.tsv"))
        with pytest.raises(ConfigError):
            run_pipeline(config)

    def test_selector_model_required_for_reformer(self, workspace):
        config = _config(workspace, "reformer", selector_model=None)
        with pytest.raises(ConfigError):
            config.validate()

    @pytest.mark.parametrize("mode", REFORMER_MODES)
    def test_reformer_without_a_backend_rejected_as_the_gateway_rejects_it(self, workspace, mode):
        with pytest.raises(ConfigError) as built:
            GatewayConfig().build()
        config = _config(workspace, mode, hook_file=str(workspace / "queries.tsv"))
        with pytest.raises(ConfigError) as validated:
            config.validate()
        assert str(validated.value) == str(built.value)
        _config(workspace, "bm25").validate()  # no LLM call, so no backend needed

    def test_hash_is_stable_and_sensitive(self, workspace):
        a = _config(workspace, "bm25")
        b = _config(workspace, "bm25")
        c = _config(workspace, "bm25", k_context=4)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)

    @pytest.mark.parametrize(
        "owner, name",
        [("pipeline", name) for name in typing.get_type_hints(PipelineConfig) if name != "gateway"]
        + [("gateway", name) for name in typing.get_type_hints(GatewayConfig)],
    )
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_hash_covers_exactly_the_settings_that_decide_the_result(self, owner, name, data):
        base = PipelineConfig(corpus="c.tsv", queries="q.tsv")
        target = base if owner == "pipeline" else base.gateway
        value = data.draw(_values_of(typing.get_type_hints(type(target))[name]))
        assume(value != getattr(target, name))
        changed = replace(target, **{name: value})
        if owner == "gateway":
            changed = replace(base, gateway=changed)
        assert (config_hash(changed) == config_hash(base)) == (name in UNHASHED_FIELDS)

    def test_config_from_dict_round_trip(self, workspace):
        payload = {
            "corpus": str(workspace / "corpus.tsv"),
            "queries": str(workspace / "queries.tsv"),
            "mode": "rm3",
            "gateway": {"model": "m2"},
            "k_eval": 5,
        }
        config = config_from_dict(payload)
        assert config.mode == "rm3"
        assert config.gateway.model == "m2"
        assert config.k_eval == 5

    @pytest.mark.parametrize(
        "config",
        [
            PipelineConfig(queries="q", index="i", mode="rm3", k1=1.5,
                           gateway=GatewayConfig(model="m2", max_retries=5)),
            TrainConfig(epochs=3, learning_rate=0.5, seed=4),
        ],
        ids=["pipeline", "train"],
    )
    def test_config_from_dict_builds_any_config_with_its_nested_ones(self, config):
        assert config_from_dict(asdict(config), type(config)) == config

    def test_config_from_dict_names_a_nested_config_and_its_key(self):
        with pytest.raises(ConfigError, match="unknown gateway config keys: \\['hash_seed'\\]"):
            config_from_dict({"corpus": "c", "queries": "q", "gateway": {"hash_seed": 0}})
        with pytest.raises(ConfigError, match="unknown train config keys: \\['feature_config'\\]"):
            config_from_dict({"feature_config": {"dimension": 64}}, TrainConfig)
        with pytest.raises(ConfigError, match="gateway config key 'model' must be str"):
            config_from_dict({"corpus": "c", "queries": "q", "gateway": {"model": 5}})

    @pytest.mark.parametrize(
        "extra, key",
        [
            ({"mystery": 1}, "mystery"),
            ({"gateway": {"mystery": 1}}, "mystery"),
            ({"k_eval": "5"}, "k_eval"),
            ({"k1": True}, "k1"),
            ({"gateway": {"max_retries": "3"}}, "max_retries"),
            ({"gateway": "local"}, "gateway"),
        ],
        ids=["unknown", "unknown-gateway", "mistyped", "bool-for-float", "mistyped-gateway",
             "gateway-not-object"],
    )
    def test_config_from_dict_rejects_unknown_keys(self, extra, key):
        with pytest.raises(ConfigError, match=key):
            config_from_dict({"corpus": "c", "queries": "q", **extra})

    @pytest.mark.parametrize("key", ["k1", "b", "orig_weight", "alpha", "beta"])
    def test_int_for_a_float_field_hashes_like_the_float(self, key):
        as_int = config_from_dict({"corpus": "c", "queries": "q", key: 1})
        as_float = config_from_dict({"corpus": "c", "queries": "q", key: 1.0})
        assert type(getattr(as_int, key)) is float
        assert config_hash(as_int) == config_hash(as_float)

    @pytest.mark.parametrize("field", ["max_retries", "max_in_flight"])
    def test_gateway_count_below_one_rejected_by_validate(self, workspace, field):
        config = _config(workspace, "bm25", gateway=GatewayConfig(**{field: 0}))
        with pytest.raises(ConfigError, match=f"{field} must be >= 1"):
            config.validate()


MANY_QUERIES = [
    (f"q{i}", text)
    for i, text in enumerate(
        [
            "sat",
            "jaguar",
            "cat pet",
            "weather tomorrow",
            "jaguar fur",
            "dog",
            "feline predator",
            "sunny forecast",
            "south america cat",
            "domestic paws",
            "rainforest",
            "spotted whiskers",
        ],
        start=1,
    )
]


def _reformulate(config, index, queries):
    """The reformulation records of `queries`."""
    reformer = pipeline.load_reformer(config)
    return pipeline.rank_queries(config, index, queries, "tag", reformer)[1]


def _many_queries(workspace):
    path = workspace / "many.tsv"
    path.write_text("".join(f"{qid}\t{text}\n" for qid, text in MANY_QUERIES), encoding="utf-8")
    return path


class CountingSend:
    """Wraps `MockBackend.send`, counting calls; `before` runs first in each."""

    def __init__(self, monkeypatch, before=lambda: None):
        self.calls = 0
        self._lock = threading.Lock()
        original = MockBackend.send

        def send(backend, request):
            with self._lock:
                self.calls += 1
            before()
            return original(backend, request)

        monkeypatch.setattr(MockBackend, "send", send)


class TurnLog:
    """Logs the reformer fan-out's starts and its failure under the fan-out's own
    lock, so the log holds them in the order the fan-out decided them, whatever
    the schedule; and, per `MockBackend.send`, the query that made the call and
    whether a failure had been recorded by then."""

    def __init__(self, monkeypatch):
        self.started, self.at_failure, self.calls = [], [], []
        current = {}
        start, fail, send = pipeline._Turns.start, pipeline._Turns.fail, MockBackend.send

        def logged_start(turns, i):
            with turns.lock:
                go = start(turns, i)
                if go:
                    self.started.append(i)
                    current[threading.get_ident()] = i
                return go

        def logged_fail(turns, i, exc):
            with turns.lock:
                self.at_failure.append(set(self.started))
                fail(turns, i, exc)

        def logged_send(backend, request):
            self.calls.append((current[threading.get_ident()], bool(self.at_failure)))
            return send(backend, request)

        monkeypatch.setattr(pipeline._Turns, "start", logged_start)
        monkeypatch.setattr(pipeline._Turns, "fail", logged_fail)
        monkeypatch.setattr(MockBackend, "send", logged_send)

    def clear(self) -> None:
        for entries in (self.started, self.at_failure, self.calls):
            entries.clear()


def _sends_of(queries) -> typing.Callable[[object], str]:
    """The id of the query whose generation prompt `request` is."""
    lines = {f"\nQuery: {text}\n": query_id for query_id, text in queries}

    def query_of(request) -> str:
        prompt = request.messages[-1].content
        return next(query_id for line, query_id in lines.items() if line in prompt)

    return query_of


def _predicted(monkeypatch, text) -> threading.Event:
    """An event set once `predict_distribution` has run for the query `text`."""
    done = threading.Event()
    original = selector.predict_distribution

    def predict(model, query, context):
        distribution = original(model, query, context)
        if query == text:
            done.set()
        return distribution

    monkeypatch.setattr(selector, "predict_distribution", predict)
    return done


class TestConcurrentReformulation:
    """`max_in_flight` queries are reformulated at once; the artifacts do not change."""

    @pytest.mark.parametrize(
        "mode, overrides, fallback",
        [
            ("reformer", {}, "{user}"),
            ("reformer", {"selector": "prompt"}, "Temporal Adjustment"),
            ("reformer+hook", {}, "{user}"),
        ],
        ids=["argmax", "prompt", "hook"],
    )
    def test_artifacts_do_not_depend_on_max_in_flight(
        self, workspace, mode, overrides, fallback
    ):
        # Random weights on every feature that the queries' own contexts give.
        index = build_index(read_corpus_tsv(workspace / "corpus.tsv"))
        contexts = [(text, retrieve_topk(index, text, 3)) for _, text in MANY_QUERIES]
        columns = np.unique(np.concatenate([selector.featurize(*c).indices for c in contexts]))
        rng = np.random.default_rng(4)
        model = SelectorModel(
            rng.normal(size=(10, columns.size)), rng.normal(size=10), "seed-1", columns
        )
        save_model(model, workspace / "random.npz")
        hook_path = workspace / "hook.tsv"
        hook_path.write_text(
            "".join(f"{qid}\tpassage on {text}\n" for qid, text in MANY_QUERIES[::2]),
            encoding="utf-8",
        )
        mock = workspace / "mock.json"
        MockScript(fallback=fallback).save(mock)

        artifacts = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to surface any shared-state race
        try:
            for max_in_flight in (1, 4):
                config = _config(
                    workspace,
                    mode,
                    queries=str(_many_queries(workspace)),
                    selector_model=str(workspace / "random.npz"),
                    hook_file=str(hook_path),
                    gateway=GatewayConfig(
                        mock_script=str(mock), model="mock-model", max_in_flight=max_in_flight
                    ),
                    out_dir=str(workspace / f"out{max_in_flight}"),
                    **overrides,
                )
                result = run_pipeline(config)
                artifacts.append(
                    [
                        path.read_bytes()
                        for path in (result.run_path, result.log_path, result.report_path)
                    ]
                )
        finally:
            sys.setswitchinterval(interval)
        assert artifacts[0] == artifacts[1]
        records = read_reformulation_log(workspace / "out4" / f"{mode}.reformulations.jsonl")
        assert [r.query_id for r in records] == [qid for qid, _ in MANY_QUERIES]
        assert overrides.get("selector") == "prompt" or len({r.pattern_id for r in records}) > 1

    def test_generations_overlap(self, workspace, monkeypatch):
        # Each generation waits until four are in flight; run one at a time, the
        # first wait times out and breaks the barrier.
        barrier = threading.Barrier(4, timeout=5)
        sends = CountingSend(monkeypatch, before=barrier.wait)
        mock = workspace / "mock.json"
        MockScript(fallback="rewritten").save(mock)
        config = _config(
            workspace,
            "reformer",
            gateway=GatewayConfig(mock_script=str(mock), model="mock-model", max_in_flight=4),
        )
        index = build_index(read_corpus_tsv(workspace / "corpus.tsv"))
        records = _reformulate(config, index, MANY_QUERIES[:8])
        assert [r.query_id for r in records] == [qid for qid, _ in MANY_QUERIES[:8]]
        assert sends.calls == 8

    def test_a_slow_query_does_not_hold_back_the_rest(self, workspace, monkeypatch):
        # Query 0's generation waits until queries 1 to window+1 have been sent.
        # A window that moves only past the oldest query never starts query
        # window+1 while query 0 runs, and the wait times out.
        window = 4
        queries = MANY_QUERIES[: window + 2]
        others = {f"\nQuery: {text}\n" for _, text in queries[1:]}
        slow = f"\nQuery: {queries[0][1]}\n"
        sent: set[str] = set()
        lock = threading.Lock()
        others_sent = threading.Event()
        original = MockBackend.send

        def send(backend, request):
            prompt = request.messages[-1].content
            if slow in prompt:
                assert others_sent.wait(timeout=5), f"only {len(sent)} later queries were sent"
            with lock:
                sent.update(line for line in others if line in prompt)
                if sent == others:
                    others_sent.set()
            return original(backend, request)

        monkeypatch.setattr(MockBackend, "send", send)
        mock = workspace / "mock.json"
        MockScript(fallback="rewritten").save(mock)
        config = _config(
            workspace,
            "reformer",
            gateway=GatewayConfig(mock_script=str(mock), model="mock-model", max_in_flight=window),
        )
        index = build_index(read_corpus_tsv(workspace / "corpus.tsv"))
        records = _reformulate(config, index, queries)
        assert [r.query_id for r in records] == [qid for qid, _ in queries]

    def _scripted_except(self, workspace, index, queries, missing):
        """A mock script answering every generation prompt but those of `missing`."""
        pattern = default_library().patterns[0]  # zero model: argmax picks pattern 0
        entries = {}
        for query_id, text in queries:
            if query_id not in missing:
                context = retrieve_topk(index, text, 3, query_id=query_id)
                request = build_generation_prompt(text, context, pattern, model="mock-model")
                entries[fingerprint(request)] = f"{text} rewritten"
        mock = workspace / "mock.json"
        MockScript(entries=entries).save(mock)
        return mock

    def test_error_is_the_first_failure_in_input_order(self, workspace, monkeypatch):
        # q01 fails late and q06 fails early; the run reports q01, as a serial run would.
        index = build_index(read_corpus_tsv(workspace / "corpus.tsv"))
        queries = [(f"q{i:02d}", text) for i, (_, text) in enumerate(MANY_QUERIES)]
        mock = self._scripted_except(workspace, index, queries, {"q01", "q06"})
        late = f"\nQuery: {queries[1][1]}\n"
        original = MockBackend.send

        def send(backend, request):
            if late in request.messages[-1].content:
                time.sleep(0.2)
            return original(backend, request)

        monkeypatch.setattr(MockBackend, "send", send)
        config = _config(
            workspace,
            "reformer",
            gateway=GatewayConfig(mock_script=str(mock), model="mock-model", max_in_flight=4),
        )
        with pytest.raises(GatewayError, match="^query q01: mock script has no entry"):
            _reformulate(config, index, queries)

    def test_many_workers_under_fast_thread_switching(self, workspace):
        # More workers than cores and a switch every microsecond: a lost update
        # to the shared start and failure state would change a record, the error
        # raised, or leave a worker waiting forever.
        index = build_index(read_corpus_tsv(workspace / "corpus.tsv"))
        texts = [text for _, text in MANY_QUERIES]
        queries = [(f"q{i:02d}", f"{texts[i % 12]} {'dog ' * (i // 12)}") for i in range(48)]
        mock = self._scripted_except(workspace, index, queries, {"q29", "q41"})
        outcomes = {}

        def reformulate(max_in_flight, n):
            config = _config(
                workspace,
                "reformer",
                gateway=GatewayConfig(
                    mock_script=str(mock), model="mock-model", max_in_flight=max_in_flight
                ),
            )
            try:
                records = _reformulate(config, index, queries[:n])
                outcomes[max_in_flight, n] = [r.to_json() for r in records]
            except GatewayError as exc:
                outcomes[max_in_flight, n] = str(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for args in [(1, 29), (8, 29), (1, 48), (8, 48)]:
                thread = threading.Thread(target=reformulate, args=args)
                thread.start()
                thread.join(timeout=60)
                assert not thread.is_alive(), f"reformulate_queries{args} did not finish"
        finally:
            sys.setswitchinterval(interval)
        assert outcomes[8, 29] == outcomes[1, 29]
        assert len(outcomes[1, 29]) == 29
        assert outcomes[8, 48] == outcomes[1, 48]
        assert outcomes[1, 48].startswith("query q29: mock script has no entry")

    def test_first_failing_query_stops_the_run(self, workspace, monkeypatch):
        index = build_index(read_corpus_tsv(workspace / "corpus.tsv"))
        pattern = default_library().patterns[0]  # zero model: argmax picks pattern 0
        texts = [text for _, text in MANY_QUERIES]
        texts += [f"{text} dog" for text in texts[:8]]  # distinct prompts
        queries = [(f"q{i:02d}", text) for i, text in enumerate(texts)]
        entries = {}
        for query_id, text in queries:
            if query_id != "q02":
                context = retrieve_topk(index, text, 3, query_id=query_id)
                request = build_generation_prompt(text, context, pattern, model="mock-model")
                entries[fingerprint(request)] = f"{text} rewritten"
        mock = workspace / "mock.json"
        MockScript(entries=entries).save(mock)  # no fallback: q02 misses

        # How many calls the run makes depends on the schedule. What does not: a
        # query after q02 that starts once q02's failure is recorded makes no
        # backend call (q00 and q01, before it, may still start).
        log = TurnLog(monkeypatch)
        errors = {}
        for max_in_flight in (1, 4):
            log.clear()
            config = _config(
                workspace,
                "reformer",
                gateway=GatewayConfig(
                    mock_script=str(mock), model="mock-model", max_in_flight=max_in_flight
                ),
            )
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-4)
            try:
                with pytest.raises(GatewayError) as err:
                    _reformulate(config, index, queries)
            finally:
                sys.setswitchinterval(interval)
            errors[max_in_flight] = str(err.value)
            (running,) = log.at_failure
            callers = [i for i, _ in log.calls]
            assert 2 in running and all(i < 2 for i in set(callers) - running)
            if max_in_flight == 1:
                assert callers == [0, 1, 2]
        assert errors[1] == errors[4]
        assert errors[1].startswith("query q02: mock script has no entry")

    def test_the_next_query_selects_while_the_first_waits_on_the_llm(self, workspace, monkeypatch):
        # One call in flight: query 0's call waits until query 1 has chosen its
        # pattern. A query that selects only once the previous one has ended
        # never lets query 1 select, and the wait times out.
        index = build_index(read_corpus_tsv(workspace / "corpus.tsv"))
        queries = MANY_QUERIES[:3]
        predicted = _predicted(monkeypatch, queries[1][1])
        query_of, original = _sends_of(queries), MockBackend.send

        def send(backend, request):
            if query_of(request) == queries[0][0]:
                assert predicted.wait(timeout=5), "query 1 did not select during query 0's call"
            return original(backend, request)

        monkeypatch.setattr(MockBackend, "send", send)
        mock = workspace / "mock.json"
        MockScript(fallback="rewritten").save(mock)
        gateway = GatewayConfig(mock_script=str(mock), model="mock-model", max_in_flight=1)
        records = _reformulate(_config(workspace, "reformer", gateway=gateway), index, queries)
        assert [r.query_id for r in records] == [qid for qid, _ in queries]

    def test_the_next_query_calls_while_the_first_ranks(self, workspace, monkeypatch):
        # One call in flight: query 1's call waits until query 0's k_eval
        # retrieval has run. Ranking only after the last call never runs it.
        index = build_index(read_corpus_tsv(workspace / "corpus.tsv"))
        queries = MANY_QUERIES[:3]
        config = _config(
            workspace,
            "reformer",
            gateway=GatewayConfig(
                mock_script=str(workspace / "mock.json"), model="mock-model", max_in_flight=1
            ),
        )
        MockScript(fallback="rewritten").save(workspace / "mock.json")
        ranked = threading.Event()
        retrieve = pipeline.retrieve_topk

        def retrieve_and_note(index, query, k, **kwargs):
            result = retrieve(index, query, k, **kwargs)
            if k == config.k_eval and kwargs.get("query_id") == queries[0][0]:
                ranked.set()
            return result

        monkeypatch.setattr(pipeline, "retrieve_topk", retrieve_and_note)
        query_of, original = _sends_of(queries), MockBackend.send

        def send(backend, request):
            if query_of(request) == queries[1][0]:
                assert ranked.wait(timeout=5), "query 0 did not rank during query 1's call"
            return original(backend, request)

        monkeypatch.setattr(MockBackend, "send", send)
        records = _reformulate(config, index, queries)
        assert [r.query_id for r in records] == [qid for qid, _ in queries]

    def test_after_a_failure_a_query_that_has_selected_makes_no_call(self, workspace, monkeypatch):
        # Query 1 retrieves and selects while query 0 waits on its call, which
        # then fails: query 1 is refused its turn and calls nothing.
        index = build_index(read_corpus_tsv(workspace / "corpus.tsv"))
        queries = [(f"q{i:02d}", text) for i, (_, text) in enumerate(MANY_QUERIES[:4])]
        mock = self._scripted_except(workspace, index, queries, {"q00"})
        predicted = _predicted(monkeypatch, queries[1][1])
        query_of, original = _sends_of(queries), MockBackend.send
        sent = []

        def send(backend, request):
            sent.append(query_of(request))
            if sent == ["q00"]:
                assert predicted.wait(timeout=5), "query 1 did not select during query 0's call"
            return original(backend, request)

        monkeypatch.setattr(MockBackend, "send", send)
        config = _config(
            workspace,
            "reformer",
            gateway=GatewayConfig(mock_script=str(mock), model="mock-model", max_in_flight=1),
        )
        with pytest.raises(GatewayError, match="^query q00: mock script has no entry"):
            _reformulate(config, index, queries)
        assert predicted.is_set()
        assert sent == ["q00"]

    @pytest.mark.parametrize("window", [2, 4, 8])
    def test_after_a_failure_only_queries_already_started_call_the_backend(
        self, workspace, monkeypatch, window
    ):
        # The first query fails, so every other query is a later one.
        index = build_index(read_corpus_tsv(workspace / "corpus.tsv"))
        texts = [text for _, text in MANY_QUERIES]
        queries = [(f"q{i:02d}", f"{texts[i % 12]} {'dog ' * (i // 12)}") for i in range(48)]
        mock = self._scripted_except(workspace, index, queries, {"q00"})
        log = TurnLog(monkeypatch)
        config = _config(
            workspace,
            "reformer",
            gateway=GatewayConfig(mock_script=str(mock), model="mock-model", max_in_flight=window),
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with pytest.raises(GatewayError, match="^query q00: mock script has no entry"):
                _reformulate(config, index, queries)
        finally:
            sys.setswitchinterval(interval)
        (running,) = log.at_failure
        late = {i for i, after_failure in log.calls if after_failure}
        assert late <= running - {0}
        assert len(late) <= window - 1
