import json
from pathlib import Path

import pytest

from patternqr import pipeline
from patternqr.errors import ConfigError, GatewayError
from patternqr.evaluation import parse_run
from patternqr.gateway import GatewayConfig, MockScript, fingerprint
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
