import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from patternqr import pipeline
from patternqr.errors import ConfigError, GatewayError
from patternqr.evaluation import parse_run
from patternqr.gateway import GatewayConfig, MockBackend, MockScript, fingerprint
from patternqr.generator import build_generation_prompt, read_reformulation_log
from patternqr.index import build_index, read_corpus_tsv, retrieve_topk
from patternqr.induction import default_library
from patternqr.pipeline import (
    PipelineConfig,
    config_from_dict,
    config_hash,
    load_hook_passages,
    run_pipeline,
)
from patternqr.selector import FeatureConfig, SelectorModel, save_model

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
    model = SelectorModel.zeros(10, FeatureConfig(dimension=2**12), "seed-1")
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
        seed=7,
        out_dir=str(workspace / "out"),
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestBaselineModes:
    def test_bm25_ranks_fixture_correctly(self, workspace):
        result = run_pipeline(_config(workspace, "bm25"))
        run = parse_run(result.run_path)
        assert [e.doc_id for e in run["q1"]] == ["d2", "d1"]
        assert result.report is not None
        assert result.report.num_judged == 2

    def test_rm3_mode_produces_run_and_report(self, workspace):
        result = run_pipeline(_config(workspace, "rm3", fb_docs=2, fb_terms=5))
        run = parse_run(result.run_path)
        assert "q2" in run
        # co-occurring "cat" vocabulary pulls in the cat-only document
        assert "d5" in [e.doc_id for e in run["q2"]]

    def test_rocchio_mode_runs(self, workspace):
        result = run_pipeline(_config(workspace, "rocchio"))
        assert result.run_path.exists()

    def test_failed_metrics_write_leaves_no_csv(self, workspace, monkeypatch):
        def write_then_fail(report, path, config_hash=""):
            Path(path).write_text("partial", encoding="utf-8")
            raise OSError("disk full")

        monkeypatch.setattr(pipeline, "write_report_csv", write_then_fail)
        with pytest.raises(OSError):
            run_pipeline(_config(workspace, "bm25"))
        assert not list((workspace / "out").glob("*.csv*"))

    def test_run_tag_embeds_mode_and_config_hash(self, workspace):
        config = _config(workspace, "bm25")
        result = run_pipeline(config)
        run = parse_run(result.run_path)
        digest = config_hash(config)
        for entries in run.values():
            for entry in entries:
                assert entry.tag == f"bm25-{digest}"


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

    def test_identity_reformulation_matches_bm25_ranking(self, workspace):
        mock = _mock_script_for(workspace, lambda q: q)
        reformer = run_pipeline(_config(workspace, "reformer", mock))
        bm25 = run_pipeline(_config(workspace, "bm25", out_dir=str(workspace / "out2")))
        reformer_run = parse_run(reformer.run_path)
        bm25_run = parse_run(bm25.run_path)
        assert set(reformer_run) == set(bm25_run)
        for query_id in bm25_run:
            assert [e.doc_id for e in reformer_run[query_id]] == [
                e.doc_id for e in bm25_run[query_id]
            ]

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
        import requests

        def explode(*args, **kwargs):
            raise AssertionError("network call attempted")

        monkeypatch.setattr(requests, "post", explode)
        monkeypatch.setattr(requests, "get", explode)
        mock = _mock_script_for(workspace, lambda q: f"{q} more")
        run_pipeline(_config(workspace, "reformer", mock))


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

    def test_hook_mode_requires_hook_file(self, workspace):
        with pytest.raises(ConfigError):
            run_pipeline(_config(workspace, "reformer+hook"))


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

    def test_hash_is_stable_and_sensitive(self, workspace):
        a = _config(workspace, "bm25")
        b = _config(workspace, "bm25")
        c = _config(workspace, "bm25", seed=8)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)

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

    def test_unknown_select_mode_rejected(self, workspace):
        config = _config(workspace, "reformer", selector="prompt", select_mode="bogus")
        with pytest.raises(ConfigError, match="bogus"):
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


class TestConcurrentReformulation:
    """`max_in_flight` queries are reformulated at once; the artifacts do not change."""

    @pytest.mark.parametrize(
        "mode, overrides, fallback",
        [
            ("reformer", {}, "{user}"),
            ("reformer", {"select_mode": "sample"}, "{user}"),
            ("reformer", {"selector": "prompt"}, "Temporal Adjustment"),
            ("reformer+hook", {}, "{user}"),
        ],
        ids=["argmax", "sample", "prompt", "hook"],
    )
    def test_artifacts_do_not_depend_on_max_in_flight(
        self, workspace, mode, overrides, fallback
    ):
        rng = np.random.default_rng(4)
        model = SelectorModel(
            rng.normal(size=(10, 2**12)), rng.normal(size=10), FeatureConfig(2**12), "seed-1"
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
                # The config hash covers every field, max_in_flight included.
                artifacts.append(
                    [
                        path.read_text(encoding="utf-8").replace(result.config_hash, "HASH")
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
        records = pipeline.reformulate_queries(config, index, MANY_QUERIES[:8])
        assert [r.query_id for r in records] == [qid for qid, _ in MANY_QUERIES[:8]]
        assert sends.calls == 8

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

        errors = {}
        for max_in_flight in (1, 4):
            sends = CountingSend(monkeypatch)
            config = _config(
                workspace,
                "reformer",
                gateway=GatewayConfig(
                    mock_script=str(mock), model="mock-model", max_in_flight=max_in_flight
                ),
            )
            with pytest.raises(GatewayError) as err:
                pipeline.reformulate_queries(config, index, queries)
            errors[max_in_flight] = str(err.value)
            assert sends.calls <= 2 + max_in_flight
        assert errors[1] == errors[4]
        assert errors[1].startswith("query q02: mock script has no entry")
