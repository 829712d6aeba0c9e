import math
import random

import pytest

from oracles import oracle_tokenize
from patternqr.errors import DataError
from patternqr.feedback import rm3_expand, rocchio_expand
from patternqr.index import Document, build_index, retrieve_topk


@pytest.fixture
def cooccurrence_index():
    """Relevant docs co-mention "jaguar" and "cat"; c1 mentions only "cat"."""
    docs = [
        Document("j1", "jaguar cat feline big predator rainforest"),
        Document("j2", "jaguar cat spotted fur south america"),
        Document("j3", "the jaguar is a large cat species"),
        Document("c1", "cat whiskers paws domestic pet"),
        Document("x1", "weather forecast sunny tomorrow"),
        Document("x2", "stock market closed higher today"),
    ]
    return build_index(docs)


class TestRm3:
    def test_orig_weight_one_returns_query_distribution(self, tiny_index):
        expanded = rm3_expand(tiny_index, "cat sat sat", orig_weight=1.0)
        assert expanded.terms == {"cat": 1 / 3, "sat": 2 / 3}

    def test_single_doc_support_and_normalization(self):
        index = build_index([Document("d1", "apple pie recipe")])
        expanded = rm3_expand(index, "apple", fb_terms=10)
        assert set(expanded.terms) <= {"apple", "pie", "recipe"}
        assert sum(expanded.terms.values()) == pytest.approx(1.0, abs=1e-9)

    def test_weights_form_distribution(self, cooccurrence_index):
        expanded = rm3_expand(cooccurrence_index, "jaguar")
        assert sum(expanded.terms.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(w > 0 for w in expanded.terms.values())

    def test_expansion_reaches_cooccurring_vocabulary(self, cooccurrence_index):
        plain = retrieve_topk(cooccurrence_index, "jaguar", 10)
        assert "c1" not in plain.doc_ids
        expanded = rm3_expand(cooccurrence_index, "jaguar", fb_docs=3, fb_terms=10)
        assert "cat" in expanded.terms
        rerun = retrieve_topk(cooccurrence_index, expanded.terms, 10)
        assert "c1" in rerun.doc_ids

    def test_no_first_pass_hits_returns_original(self, tiny_index):
        expanded = rm3_expand(tiny_index, "zebra quagga")
        assert expanded.terms == {"zebra": 0.5, "quagga": 0.5}

    def test_deterministic(self, cooccurrence_index):
        a = rm3_expand(cooccurrence_index, "jaguar", fb_docs=3, fb_terms=5)
        b = rm3_expand(cooccurrence_index, "jaguar", fb_docs=3, fb_terms=5)
        assert a == b

    def test_endpoint_ranking_matches_plain_bm25(self, cooccurrence_index):
        expanded = rm3_expand(cooccurrence_index, "jaguar cat", fb_terms=10_000, orig_weight=1.0)
        plain = retrieve_topk(cooccurrence_index, "jaguar cat", 10)
        rerun = retrieve_topk(cooccurrence_index, expanded.terms, 10)
        assert rerun.doc_ids == plain.doc_ids

    def test_parameter_validation(self, tiny_index):
        with pytest.raises(DataError):
            rm3_expand(tiny_index, "sat", fb_docs=0)
        with pytest.raises(DataError):
            rm3_expand(tiny_index, "sat", orig_weight=1.5)


def _oracle_centroid(docs: dict[str, str], feedback_ids: list[str]) -> dict[str, float]:
    """Mean tf*idf over the feedback docs, recomputed from scratch."""
    token_lists = {d: oracle_tokenize(t) for d, t in docs.items()}
    n = len(docs)
    df: dict[str, int] = {}
    for toks in token_lists.values():
        for term in set(toks):
            df[term] = df.get(term, 0) + 1
    centroid: dict[str, float] = {}
    for doc_id in feedback_ids:
        toks = token_lists[doc_id]
        for term in set(toks):
            idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
            centroid[term] = centroid.get(term, 0.0) + toks.count(term) * idf / len(feedback_ids)
    return centroid


class TestRocchio:
    def test_beta_zero_is_query_counts(self, tiny_index):
        expanded = rocchio_expand(tiny_index, "cat sat sat", alpha=2.0, beta=0.0)
        assert expanded.terms == {"cat": 2.0, "sat": 4.0}

    def test_alpha_zero_single_doc_is_tfidf(self):
        docs = {
            "d1": "apple pie recipe apple",
            "d2": "weather report rain",
            "d3": "sports scores last night",
        }
        index = build_index([Document(d, t) for d, t in docs.items()])
        expanded = rocchio_expand(index, "apple", fb_docs=1, alpha=0.0, beta=1.0)
        centroid = _oracle_centroid(docs, ["d1"])
        assert set(expanded.terms) == set(centroid)
        for term, weight in expanded.terms.items():
            assert weight == pytest.approx(centroid[term], rel=1e-12)

    def test_top_terms_are_highest_centroid_nonquery_terms(self, cooccurrence_index):
        docs = {
            "j1": "jaguar cat feline big predator rainforest",
            "j2": "jaguar cat spotted fur south america",
            "j3": "the jaguar is a large cat species",
            "c1": "cat whiskers paws domestic pet",
            "x1": "weather forecast sunny tomorrow",
            "x2": "stock market closed higher today",
        }
        fb_terms = 3
        first_pass = retrieve_topk(cooccurrence_index, "jaguar", 10)
        centroid = _oracle_centroid(docs, first_pass.doc_ids)
        non_query = {t: w for t, w in centroid.items() if t != "jaguar"}
        expected = sorted(non_query.items(), key=lambda kv: (-kv[1], kv[0]))[:fb_terms]
        expanded = rocchio_expand(cooccurrence_index, "jaguar", fb_docs=10, fb_terms=fb_terms)
        assert set(expanded.terms) - {"jaguar"} == {t for t, _ in expected}

    def test_endpoint_ranking_matches_plain_bm25(self, cooccurrence_index):
        expanded = rocchio_expand(cooccurrence_index, "jaguar cat", fb_terms=10_000, beta=0.0)
        plain = retrieve_topk(cooccurrence_index, "jaguar cat", 10)
        rerun = retrieve_topk(cooccurrence_index, expanded.terms, 10)
        assert rerun.doc_ids == plain.doc_ids

    def test_no_first_pass_hits_returns_scaled_query(self, tiny_index):
        expanded = rocchio_expand(tiny_index, "zebra", alpha=1.5)
        assert expanded.terms == {"zebra": 1.5}


class TestFeedbackRanking:
    def test_deterministic_over_random_corpora(self):
        rng = random.Random(99)
        vocab = [f"w{i}" for i in range(40)]
        docs = [
            Document(f"d{i}", " ".join(rng.choice(vocab) for _ in range(rng.randint(3, 15))))
            for i in range(20)
        ]
        index = build_index(docs)
        for query in ("w0 w1", "w5", "w10 w10 w3"):
            assert rm3_expand(index, query) == rm3_expand(index, query)
            assert rocchio_expand(index, query) == rocchio_expand(index, query)
