"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import functools
import math
import os
import random
import time

import numpy as np
import pytest

import oracles
from conftest import SEED_PATTERN_NAMES, consolidation_payload
from oracles import (
    oracle_average_precision,
    oracle_bm25_all,
    oracle_ndcg,
    oracle_rank,
    oracle_recall,
    run_from_rankings,
)
from patternqr.evaluation import (
    average_precision_at_k,
    evaluate_run,
    ndcg_at_k,
    parse_run,
)
from patternqr.feedback import rm3_expand
from patternqr.gateway import GatewayConfig, MockScript, fingerprint
from patternqr.generator import build_generation_prompt
from patternqr.index import (
    Document,
    RetrievalContext,
    build_index,
    query_term_weights,
    read_corpus_tsv,
    retrieve_topk,
)
from patternqr.induction import (
    TrainingPair,
    default_library,
    induce_patterns,
    load_library,
    save_library,
)
from patternqr.pipeline import PipelineConfig, run_pipeline
from patternqr.selector import (
    FeatureConfig,
    FeatureVector,
    SelectorModel,
    TrainConfig,
    _cross_entropy,
    predict_distribution,
    save_model,
    select_pattern,
    train_selector,
)

# The exact-gradient reference, through the trainer's cross-entropy kernel.
loss_and_gradient = functools.partial(oracles.loss_and_gradient, _cross_entropy)


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {title}")
                raise
            print(f"ACCEPTANCE {number} PASS: {title}")

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# Criterion 1: BM25 oracle equivalence on 100 randomized corpora, < 5 s.
# ---------------------------------------------------------------------------


@criterion(1, "BM25 matches the exhaustive reference scorer")
def test_bm25_oracle_equivalence():
    rng = random.Random(1729)
    started = time.perf_counter()
    for _ in range(100):
        vocab = [f"t{i}" for i in range(rng.randint(5, 200))]
        docs = {
            f"doc{i:03d}": " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 30)))
            for i in range(rng.randint(1, 50))
        }
        query = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6)))
        k = rng.randint(1, 60)

        index = build_index([Document(d, t) for d, t in docs.items()])
        got = retrieve_topk(index, query, k)
        expected = oracle_rank(oracle_bm25_all(docs, query_term_weights(query)), k)

        assert got.doc_ids == [d for d, _ in expected], "ranking mismatch"
        for got_score, (_, score) in zip(got.scores, expected):
            assert abs(got_score - score) <= 1e-9, "score mismatch beyond 1e-9"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget is 5s"


# ---------------------------------------------------------------------------
# Criterion 2: metric oracle equivalence + exact hand-checked values.
# ---------------------------------------------------------------------------


@criterion(2, "metrics match the brute-force reference and frozen hand checks")
def test_metric_oracle_equivalence():
    ndcg = ndcg_at_k(["a", "b", "c"], {"a": 3, "c": 2}, k=10)
    assert abs(ndcg - 0.95583058934618) < 1e-12
    assert round(ndcg, 4) == 0.9558
    ap = average_precision_at_k(["a", "b", "c"], {"a": 2, "c": 3})
    assert abs(ap - 5 / 6) < 1e-12

    rng = random.Random(271828)
    for _ in range(50):
        doc_pool = [f"d{i}" for i in range(rng.randint(5, 40))]
        rankings = {}
        qrels = {}
        for q in range(rng.randint(1, 5)):
            query = f"q{q}"
            judged = rng.sample(doc_pool, rng.randint(1, len(doc_pool)))
            qrels[query] = {d: rng.randint(0, 3) for d in judged}
            depth = rng.randint(1, len(doc_pool))
            docs = rng.sample(doc_pool, depth)
            scores = sorted((rng.uniform(0, 10) for _ in range(depth)), reverse=True)
            rankings[query] = list(zip(docs, scores))
        report = evaluate_run(run_from_rankings(rankings, tag="t"), qrels)
        for query, metrics in report.per_query.items():
            ranked = [d for d, _ in rankings[query]]
            judged = qrels[query]
            assert abs(metrics.ndcg10 - oracle_ndcg(ranked, judged, 10)) <= 1e-6
            assert (
                abs(metrics.map - oracle_average_precision(ranked, judged, 1000, 2)) <= 1e-6
            )
            assert abs(metrics.recall1k - oracle_recall(ranked, judged, 1000, 2)) <= 1e-6


# ---------------------------------------------------------------------------
# Criterion 3: selector correctness (uniform loss, gradients, separable fit).
# ---------------------------------------------------------------------------


def _separable_examples(num_classes, per_class, seed):
    rng = np.random.default_rng(seed)
    vocab = [f"noise{i}" for i in range(50)]
    examples = []
    for label in range(num_classes):
        for _ in range(per_class):
            noise = " ".join(rng.choice(vocab) for _ in range(4))
            context = RetrievalContext("q", ["d"], [1.0], 1, (f"ctx{label} filler text",))
            examples.append((f"key{label} {noise}", context, label))
    order = rng.permutation(len(examples))
    return [examples[i] for i in order]


@criterion(3, "selector: ln M zero loss, exact gradients, separable accuracy")
def test_selector_correctness():
    library = default_library()
    m = len(library)
    assert m == 10

    # zero-weight loss is ln M
    config = FeatureConfig(dimension=2**10)
    vectors = [
        FeatureVector(np.array([1, 5], dtype=np.int64), np.array([1.0, 2.0]), 2**10),
        FeatureVector(np.empty(0, dtype=np.int64), np.empty(0), 2**10),
    ]
    loss, _, _ = loss_and_gradient(
        np.zeros((m, 2**10)), np.zeros(m), vectors, np.array([0, 9]), 1e-5
    )
    assert abs(loss - math.log(10)) < 1e-9
    assert abs(loss - 2.302585) < 1e-6

    # analytic gradient matches central finite differences on small instances
    rng = np.random.default_rng(99)
    for _ in range(3):
        mm = int(rng.integers(2, 5))
        ff = int(rng.integers(4, 33))
        nn = int(rng.integers(1, 9))
        vecs = []
        for _ in range(nn):
            size = int(rng.integers(0, 5))
            idx = np.sort(rng.choice(ff, size=size, replace=False)).astype(np.int64)
            vecs.append(FeatureVector(idx, rng.uniform(0.5, 3.0, size=size), ff))
        labels = rng.integers(0, mm, size=nn)
        weights = rng.normal(scale=0.5, size=(mm, ff))
        bias = rng.normal(scale=0.5, size=mm)
        _, grad_w, grad_b = loss_and_gradient(weights, bias, vecs, labels, 1e-4)
        h = 1e-6
        for _ in range(20):
            i = int(rng.integers(0, mm))
            j = int(rng.integers(0, ff))
            up, down = weights.copy(), weights.copy()
            up[i, j] += h
            down[i, j] -= h
            lu, _, _ = loss_and_gradient(up, bias, vecs, labels, 1e-4)
            ld, _, _ = loss_and_gradient(down, bias, vecs, labels, 1e-4)
            numeric = (lu - ld) / (2 * h)
            assert np.isclose(grad_w[i, j], numeric, rtol=1e-5, atol=1e-7)

    # synthetic separable fixture: loss < 0.1*ln M, held-out accuracy >= 0.95
    started = time.perf_counter()
    train = _separable_examples(m, per_class=100, seed=1)
    held_out = _separable_examples(m, per_class=20, seed=2)
    model, history = train_selector(train, library, TrainConfig(epochs=20, seed=0))
    elapsed = time.perf_counter() - started
    assert history[-1] < 0.1 * math.log(m), f"final loss {history[-1]:.4f}"
    hits = sum(
        1
        for query, ctx, label in held_out
        if select_pattern(predict_distribution(model, query, ctx)) == label
    )
    accuracy = hits / len(held_out)
    assert accuracy >= 0.95, f"held-out accuracy {accuracy:.3f}"
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget is 30s"


# ---------------------------------------------------------------------------
# Criterion 4: induction determinism + lossless library round-trip.
# ---------------------------------------------------------------------------


@criterion(4, "scripted induction reproduces the ten pattern names; library round-trips")
def test_induction_determinism(mock_gateway_factory, tmp_path):
    pairs = [
        TrainingPair(f"p{i}", f"query number {i}", f"rewritten query number {i}")
        for i in range(6)
    ]
    gateway = mock_gateway_factory(fallback=consolidation_payload(SEED_PATTERN_NAMES))
    library = induce_patterns(pairs, gateway, batch_size=3)
    assert library.names == SEED_PATTERN_NAMES

    path = tmp_path / "library.json"
    save_library(library, path)
    assert load_library(path) == library

    # a fresh run over the same script is bit-identical
    gateway2 = mock_gateway_factory(fallback=consolidation_payload(SEED_PATTERN_NAMES))
    assert induce_patterns(pairs, gateway2, batch_size=3) == library


# ---------------------------------------------------------------------------
# Criterion 5: end-to-end reproducibility under the mock gateway.
# ---------------------------------------------------------------------------

E2E_CORPUS = """\
d1\tcat sat
d2\tdog sat sat
d3\tjaguar cat feline predator rainforest
d4\tjaguar spotted fur south america
d5\tcat whiskers paws domestic pet
d6\tweather forecast sunny tomorrow
"""
E2E_QUERIES = "q1\tsat\nq2\tjaguar\n"
E2E_QRELS = "q1 0 d2 3\nq2 0 d3 3\n"


def _e2e_workspace(tmp_path, reformulation_of):
    (tmp_path / "corpus.tsv").write_text(E2E_CORPUS, encoding="utf-8")
    (tmp_path / "queries.tsv").write_text(E2E_QUERIES, encoding="utf-8")
    (tmp_path / "qrels.txt").write_text(E2E_QRELS, encoding="utf-8")
    model = SelectorModel.zeros(10, FeatureConfig(dimension=2**12), "seed-1")
    save_model(model, tmp_path / "selector.npz")

    index = build_index(read_corpus_tsv(tmp_path / "corpus.tsv"))
    pattern = default_library().patterns[0]  # argmax over the uniform zero model
    entries = {}
    for query_id, text in (("q1", "sat"), ("q2", "jaguar")):
        context = retrieve_topk(index, text, 3, query_id=query_id)
        request = build_generation_prompt(text, context, pattern, model="mock-model")
        entries[fingerprint(request)] = reformulation_of(text)
    MockScript(entries=entries).save(tmp_path / "mock.json")

    def config(mode, out_dir):
        return PipelineConfig(
            corpus=str(tmp_path / "corpus.tsv"),
            queries=str(tmp_path / "queries.tsv"),
            qrels=str(tmp_path / "qrels.txt"),
            mode=mode,
            selector_model=str(tmp_path / "selector.npz"),
            gateway=GatewayConfig(mock_script=str(tmp_path / "mock.json"), model="mock-model"),
            k_eval=10,
            out_dir=str(tmp_path / out_dir),
        )

    return config


@criterion(5, "reformer runs are byte-identical; identity mock equals plain BM25")
def test_end_to_end_reproducibility(tmp_path):
    config = _e2e_workspace(tmp_path, lambda q: q)  # identity reformulation

    reformer_cfg = config("reformer", "out")
    first = run_pipeline(reformer_cfg)
    snapshot = (
        first.run_path.read_bytes(),
        first.log_path.read_bytes(),
        first.report_path.read_bytes(),
    )
    second = run_pipeline(reformer_cfg)
    assert second.run_path.read_bytes() == snapshot[0], "run files differ between executions"
    assert second.log_path.read_bytes() == snapshot[1]
    assert second.report_path.read_bytes() == snapshot[2]

    bm25 = run_pipeline(config("bm25", "out_bm25"))
    reformer_run = parse_run(first.run_path)
    bm25_run = parse_run(bm25.run_path)
    assert set(reformer_run) == set(bm25_run)
    for query_id in bm25_run:
        assert reformer_run[query_id].doc_ids == bm25_run[query_id].doc_ids, (
            f"identity reformulation changed the ranking for {query_id}"
        )


# ---------------------------------------------------------------------------
# Criterion 6: feedback baselines.
# ---------------------------------------------------------------------------


@criterion(6, "RM3 weights form a distribution and recover the held-out relevant doc")
def test_feedback_baselines():
    docs = [
        Document("j1", "jaguar cat feline big predator rainforest"),
        Document("j2", "jaguar cat spotted fur south america"),
        Document("j3", "the jaguar is a large cat species"),
        Document("c1", "cat whiskers paws domestic pet"),
        Document("x1", "weather forecast sunny tomorrow"),
        Document("x2", "stock market closed higher today"),
    ]
    index = build_index(docs)
    qrels = {"q1": {"j1": 3, "c1": 2}}

    expanded = rm3_expand(index, "jaguar", fb_docs=3, fb_terms=10)
    assert abs(sum(expanded.terms.values()) - 1.0) <= 1e-9
    assert all(w > 0 for w in expanded.terms.values())

    plain_top10 = retrieve_topk(index, "jaguar", 10).doc_ids
    expanded_top10 = retrieve_topk(index, expanded.terms, 10).doc_ids
    relevant = {d for d, g in qrels["q1"].items() if g >= 2}
    recovered = (set(expanded_top10) - set(plain_top10)) & relevant
    assert recovered, "expansion did not surface any new relevant document"


# ---------------------------------------------------------------------------
# Criterion 7: published full-benchmark numbers are out of desk-scale reach;
# the optional full-corpus smoke target below documents the procedure and
# only runs when a prepared benchmark directory is supplied.
# ---------------------------------------------------------------------------

BENCHMARK_ENV = "PATTERNQR_DL19_DIR"


@pytest.mark.skipif(
    BENCHMARK_ENV not in os.environ,
    reason=(
        "full-corpus smoke target: requires the 8.8M-passage benchmark corpus and is "
        f"not part of CI. Set {BENCHMARK_ENV} to a directory holding corpus.tsv "
        "(doc_id<TAB>text), queries.tsv (query_id<TAB>text), and qrels.txt "
        "(TREC qrels) to run it; the BM25 row should land within +/-0.01 "
        "nDCG@10 of 0.497."
    ),
)
@criterion(7, "full-corpus BM25 smoke lands near the published nDCG@10")
def test_full_corpus_bm25_smoke(tmp_path):
    base = os.environ[BENCHMARK_ENV]
    config = PipelineConfig(
        corpus=os.path.join(base, "corpus.tsv"),
        queries=os.path.join(base, "queries.tsv"),
        qrels=os.path.join(base, "qrels.txt"),
        mode="bm25",
        out_dir=str(tmp_path),
    )
    result = run_pipeline(config)
    assert result.report is not None
    assert abs(result.report.mean_ndcg10 - 0.497) <= 0.01
