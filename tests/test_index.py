import json
import random
import tempfile
from collections import Counter
from itertools import accumulate
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import oracle_bm25_all, oracle_postings, oracle_rank, oracle_tokenize
from patternqr.errors import DataError
from patternqr.index import (
    Document,
    RetrievalContext,
    bm25_score,
    build_index,
    load_index,
    query_term_weights,
    read_corpus_tsv,
    read_queries_tsv,
    retrieve_topk,
    save_index,
    tokenize,
)

# Frozen by the standalone brute-force script run before the build.
SCORE_D1 = 0.18950271220378215
SCORE_D2 = 0.23311639159388542


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("What is BM25?") == ["what", "is", "bm25"]

    def test_empty(self):
        assert tokenize("") == []

    def test_maximal_runs(self):
        assert tokenize("cat-sat  CAT") == ["cat", "sat", "cat"]

    def test_underscore_is_a_separator(self):
        assert tokenize("a_b") == ["a", "b"]

    def test_unicode(self):
        assert tokenize("Café au lait") == ["café", "au", "lait"]

    @given(st.text(max_size=200))
    def test_matches_character_scan_reference(self, text):
        assert tokenize(text) == oracle_tokenize(text)

    @given(st.text(st.characters(max_codepoint=127), max_size=200))
    def test_ascii_matches_character_scan_reference(self, text):
        assert tokenize(text) == oracle_tokenize(text)

    def test_every_ascii_character_splits_or_joins(self):
        ascii_chars = [chr(cp) for cp in range(128)]
        splitting = [c for c in ascii_chars if tokenize(f"a{c}b") == ["a", "b"]]
        joining = [c for c in ascii_chars if tokenize(f"a{c}b") == [f"a{c.lower()}b"]]
        assert splitting == [c for c in ascii_chars if not c.isalnum()]
        assert joining == [c for c in ascii_chars if c.isalnum()]

    def test_lowercasing_into_ascii(self):
        # U+212A KELVIN SIGN lowercases to ASCII "k".
        assert tokenize("\u212aelvin 5\u212a") == ["kelvin", "5k"]

    def test_lowercasing_out_of_ascii(self):
        # U+0130 lowercases to "i" plus U+0307 COMBINING DOT ABOVE, which is not alphanumeric.
        assert "\u0130".lower() == "i\u0307"
        assert tokenize("\u0130stanbul") == ["i", "stanbul"]

    @given(st.text(max_size=200))
    def test_deterministic(self, text):
        assert tokenize(text) == tokenize(text)


class TestBuildIndex:
    def test_small_corpus_statistics(self, tiny_index):
        assert tiny_index.num_docs == 2
        assert tiny_index.avg_doc_length == 2.5
        assert tiny_index.document_frequency("sat") == 2

    def test_empty_corpus(self):
        index = build_index([])
        assert index.num_docs == 0
        assert index.avg_doc_length == 0.0

    def test_empty_document(self):
        index = build_index([Document("d1", "")])
        assert index.num_docs == 1
        assert index.doc_lengths == [0]
        assert index.terms == []
        assert index.offsets.tolist() == [0]
        assert index.ordinals.size == 0 and index.tfs.size == 0

    def test_duplicate_doc_id_rejected(self):
        with pytest.raises(DataError, match="d1"):
            build_index([Document("d1", "a"), Document("d1", "b")])

    def test_posting_frequencies_sum_to_doc_length(self):
        docs = [Document(f"d{i}", "a b c a b a"[: 2 * i + 1]) for i in range(5)]
        index = build_index(docs)
        totals = np.bincount(index.ordinals, weights=index.tfs, minlength=index.num_docs)
        assert totals.tolist() == index.doc_lengths
        assert (index.tfs >= 1).all()
        for term in index.terms:
            ordinals, _ = index.postings(term)
            assert (np.diff(ordinals) > 0).all()


class TestBm25Score:
    def test_frozen_example_scores(self, tiny_index):
        weights = query_term_weights("sat")
        assert bm25_score(tiny_index, weights, 0) == pytest.approx(SCORE_D1, abs=1e-12)
        assert bm25_score(tiny_index, weights, 1) == pytest.approx(SCORE_D2, abs=1e-12)

    def test_unknown_terms_contribute_zero(self, tiny_index):
        assert bm25_score(tiny_index, {"zebra": 1.0}, 0) == 0.0

    def test_linear_in_weights(self, tiny_index):
        single = bm25_score(tiny_index, {"sat": 1.0}, 1)
        double = bm25_score(tiny_index, {"sat": 2.0}, 1)
        assert double == pytest.approx(2 * single, rel=1e-12)

    def test_empty_index_rejected(self):
        index = build_index([])
        with pytest.raises(DataError):
            bm25_score(index, {"a": 1.0}, 0)


class TestRetrieveTopk:
    def test_k1_returns_best(self, tiny_index):
        ctx = retrieve_topk(tiny_index, "sat", 1)
        assert ctx.doc_ids == ["d2"]

    def test_k10_returns_both_ranked(self, tiny_index):
        ctx = retrieve_topk(tiny_index, "sat", 10)
        assert ctx.doc_ids == ["d2", "d1"]
        assert ctx.scores[0] == pytest.approx(SCORE_D2, abs=1e-12)

    def test_no_match_is_empty(self, tiny_index):
        assert retrieve_topk(tiny_index, "zebra", 10).doc_ids == []

    def test_k_zero_rejected(self, tiny_index):
        with pytest.raises(DataError):
            retrieve_topk(tiny_index, "sat", 0)

    def test_snippet_truncation(self):
        index = build_index([Document("d1", "w " * 100)])
        ctx = retrieve_topk(index, "w", 1, snippet_tokens=5)
        assert ctx.snippets[0] == "w w w w w"

    def test_snippet_rejoins_with_single_spaces(self):
        index = build_index([Document("d1", "The  cat--sat!")])
        ctx = retrieve_topk(index, "cat", 1)
        assert ctx.snippets[0] == "the cat sat"

    def test_tie_break_ascending_doc_id(self):
        docs = [Document(d, "same text here") for d in ("dz", "da", "dm")]
        index = build_index(docs)
        ctx = retrieve_topk(index, "same", 10)
        assert ctx.doc_ids == ["da", "dm", "dz"]
        assert ctx.scores[0] == ctx.scores[2]

    def test_empty_corpus_is_empty(self):
        assert retrieve_topk(build_index([]), "sat", 5).doc_ids == []

    def test_empty_document_is_never_retrieved(self):
        index = build_index([Document("d1", ""), Document("d2", "sat")])
        assert retrieve_topk(index, "sat", 5).doc_ids == ["d2"]
        assert retrieve_topk(build_index([Document("d1", "")]), "sat", 5).doc_ids == []

    @pytest.mark.parametrize(
        "query",
        ["", "zebra okapi", {"zebra": 1.0}, {"sat": 0.0, "cat": 0.0}, {"sat": -1.0}],
        ids=["empty", "unknown-only", "unknown-mapping", "all-zero-weights", "negative-only"],
    )
    def test_queries_without_a_positive_score_are_empty(self, tiny_index, query):
        ctx = retrieve_topk(tiny_index, query, 5)
        assert (ctx.doc_ids, ctx.scores, len(ctx.snippets)) == ([], [], 0)

    def test_negative_weight_in_a_mapping(self, tiny_index):
        weights = MappingProxyType({"cat": 1.0, "sat": -0.5})
        docs = {"d1": "cat sat", "d2": "dog sat sat"}
        ctx = retrieve_topk(tiny_index, weights, 5)
        assert list(zip(ctx.doc_ids, ctx.scores)) == oracle_rank(
            oracle_bm25_all(docs, dict(weights)), 5
        )

    def test_k_above_the_number_of_hits(self, tiny_index):
        ctx = retrieve_topk(tiny_index, "sat", 1000)
        assert ctx.k == 1000
        assert ctx.doc_ids == ["d2", "d1"]

    def test_snippets_are_built_only_when_read(self, monkeypatch):
        index = build_index([Document(f"d{i}", f"w{i} common") for i in range(20)])
        built = []
        original = index.snippet

        def snippet(*args, **kwargs):
            built.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(index, "snippet", snippet)
        ctx = retrieve_topk(index, "common", 1000, snippet_tokens=1)
        assert built == []
        assert len(ctx.snippets) == 20
        assert built == []
        assert ctx.snippets[0] == "w0"
        assert built == [index.ordinal("d0")]
        assert list(ctx.snippets)[:3] == ["w0", "w1", "w10"]
        assert ctx.snippets[-1] == "w9"

    def test_entries_pair_the_doc_ids_with_the_scores(self):
        index = build_index([Document(f"d{i}", f"w{i} common " * i) for i in range(1, 6)])
        ctx = retrieve_topk(index, "common", 3)
        assert ctx.doc_ids == ["d5", "d4", "d3"]
        assert ctx.entries == tuple(zip(ctx.doc_ids, ctx.scores))
        assert (ctx.entries[0].doc_id, ctx.entries[0].score) == ("d5", ctx.scores[0])

    def test_context_columns_must_align_within_k(self):
        ctx = RetrievalContext("q", ["a", "b"], [2.0, 1.0], 3, ("x y", "z"))
        assert (ctx.query_id, ctx.doc_ids, ctx.scores, ctx.k) == ("q", ["a", "b"], [2.0, 1.0], 3)
        assert list(ctx.snippets) == ["x y", "z"]
        with pytest.raises(DataError, match="k=1"):
            RetrievalContext("q", ["a", "b"], [2.0, 1.0], 1, ("x y", "z"))
        for doc_ids, scores, snippets in [
            (["a"], [2.0, 1.0], ("x y", "z")),
            (["a", "b"], [2.0], ("x y", "z")),
            (["a", "b"], [2.0, 1.0], ("x y",)),
        ]:
            with pytest.raises(DataError, match="context of"):
                RetrievalContext("q", doc_ids, scores, 3, snippets)


def _random_corpus(rng: random.Random):
    vocab = [f"t{i}" for i in range(rng.randint(5, 200))]
    docs = {}
    for i in range(rng.randint(1, 50)):
        length = rng.randint(0, 30)
        docs[f"doc{i:03d}"] = " ".join(rng.choice(vocab) for _ in range(length))
    query = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6)))
    return docs, query


class TestOracleEquivalence:
    def test_matches_exhaustive_reference_on_random_corpora(self):
        rng = random.Random(20240809)
        for _ in range(30):
            docs, query = _random_corpus(rng)
            index = build_index([Document(d, t) for d, t in docs.items()])
            k = rng.randint(1, 60)
            got = retrieve_topk(index, query, k)
            expected = oracle_rank(oracle_bm25_all(docs, query_term_weights(query)), k)
            assert got.doc_ids == [d for d, _ in expected]
            for got_score, (_, score) in zip(got.scores, expected):
                assert got_score == pytest.approx(score, abs=1e-9)

    def test_insertion_order_does_not_change_results(self):
        rng = random.Random(7)
        docs, query = _random_corpus(rng)
        items = [Document(d, t) for d, t in docs.items()]
        shuffled = list(items)
        rng.shuffle(shuffled)
        a = retrieve_topk(build_index(items), query, 20)
        b = retrieve_topk(build_index(shuffled), query, 20)
        assert (a.doc_ids, a.scores) == (b.doc_ids, b.scores)

    def test_scores_are_bit_identical_to_the_oracle(self):
        rng = random.Random(31)
        straddled = 0
        for _ in range(40):
            docs, query = _random_corpus(rng)
            # Copies score exactly alike, so ties fall across the k-th rank.
            for i, text in enumerate(list(docs.values())[: rng.randint(1, 10)]):
                docs[f"dup{i:03d}"] = text
            weights = query_term_weights(query)
            if rng.random() < 0.5:
                weights = {t: rng.choice([0.0, -0.5, rng.uniform(0.1, 3.0)]) for t in weights}
            index = build_index([Document(d, t) for d, t in docs.items()])
            scores = oracle_bm25_all(docs, weights)
            full = oracle_rank(scores, len(docs))
            tied = [i + 1 for i in range(len(full) - 1) if full[i][1] == full[i + 1][1]]
            straddled += bool(tied)
            for k in {1, rng.randint(1, 60), len(docs) + 5, *tied[:3]}:
                got = retrieve_topk(index, weights, k)
                assert list(zip(got.doc_ids, got.scores)) == full[:k]
            for doc_id, score in scores.items():
                assert bm25_score(index, weights, index.ordinal(doc_id)) == score
        assert straddled >= 10

    @given(st.data())
    def test_permuting_documents_leaves_rankings_unchanged(self, data):
        words = st.sampled_from(["a", "b", "c", "d", "e"])
        texts = data.draw(st.lists(st.lists(words, max_size=8).map(" ".join), max_size=20))
        docs = [Document(f"d{i:02d}", text) for i, text in enumerate(texts)]
        shuffled = data.draw(st.permutations(docs))
        query = " ".join(data.draw(st.lists(words, min_size=1, max_size=4)))
        k = data.draw(st.integers(1, 25))
        a = retrieve_topk(build_index(docs), query, k)
        b = retrieve_topk(build_index(shuffled), query, k)
        assert (a.doc_ids, a.scores) == (b.doc_ids, b.scores)


# Corpora with empty documents, repeated tokens and non-ASCII text (including
# the Kelvin sign, whose lowercase form is ASCII, and underscores between tokens).
_CORPORA = st.lists(
    st.one_of(
        st.just(""),
        st.text(max_size=40),
        st.lists(st.sampled_from(["a", "B", "b", "é", "ΣΑ", "x_1", "İ", "\u212a", "7", "a.a"]))
        .map(" ".join),
    ),
    max_size=8,
)


def _words(index):
    return [index.terms[i] for i in index.stream.tolist()]


class TestTermIdStream:
    @given(_CORPORA)
    def test_matches_the_postings_oracle(self, texts):
        index = build_index([Document(f"d{i}", text) for i, text in enumerate(texts)])
        expected = oracle_postings(texts)
        pairs = [pair for term in expected for pair in expected[term]]
        assert index.terms == list(expected)
        assert index.offsets.tolist() == [0, *accumulate(map(len, expected.values()))]
        assert index.ordinals.tolist() == [ordinal for ordinal, _ in pairs]
        assert index.tfs.tolist() == [tf for _, tf in pairs]
        assert index.doc_lengths == [len(oracle_tokenize(text)) for text in texts]
        assert _words(index) == [token for text in texts for token in oracle_tokenize(text)]
        for i, text in enumerate(texts):
            tokens = tokenize(text)
            assert list(index.term_frequencies(i).items()) == list(Counter(tokens).items())
            for k in (0, 1, 64):
                assert index.snippet(i, k) == " ".join(tokens[:k])

    @given(_CORPORA)
    def test_save_and_load_keep_postings_and_documents(self, texts):
        built = build_index([Document(f"d{i}", text) for i, text in enumerate(texts)])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.json"
            save_index(built, path)
            loaded = load_index(path)
            save_index(loaded, path)
            reloaded = load_index(path)
        # A loaded index numbers its terms in file order, so compare by term.
        assert sorted(loaded.terms) == sorted(built.terms)
        for term in built.terms:
            for got, want in zip(loaded.postings(term), built.postings(term)):
                assert np.array_equal(got, want)
        assert loaded.doc_ids == built.doc_ids
        assert loaded.doc_lengths == built.doc_lengths
        assert _words(loaded) == _words(built)
        for i in range(built.num_docs):
            assert list(loaded.term_frequencies(i).items()) == list(
                built.term_frequencies(i).items()
            )
        assert reloaded.terms == loaded.terms
        for name in ("offsets", "ordinals", "tfs", "stream"):
            assert np.array_equal(getattr(reloaded, name), getattr(loaded, name))


class TestTsvIO:
    def test_corpus_round_trip(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("d1\tcat sat\nd2\tdog sat sat\n", encoding="utf-8")
        docs = read_corpus_tsv(path)
        assert docs == [Document("d1", "cat sat"), Document("d2", "dog sat sat")]

    def test_corpus_empty_text_allowed(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("d1\t\n", encoding="utf-8")
        assert read_corpus_tsv(path) == [Document("d1", "")]

    def test_corpus_missing_tab_names_line(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("d1\tok\nbroken line\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2"):
            read_corpus_tsv(path)

    def test_queries(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("q1\twhat is bm25\n", encoding="utf-8")
        assert read_queries_tsv(path) == [("q1", "what is bm25")]


class TestIndexPersistence:
    def test_save_load_preserves_retrieval(self, tiny_index, tmp_path):
        path = tmp_path / "index.json"
        save_index(tiny_index, path, config_hash="abc123")
        loaded = load_index(path)
        a = retrieve_topk(tiny_index, "sat", 10)
        b = retrieve_topk(loaded, "sat", 10)
        assert (a.doc_ids, a.scores, list(a.snippets)) == (b.doc_ids, b.scores, list(b.snippets))

    def test_load_rejects_other_files(self, tmp_path):
        path = tmp_path / "not_index.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(DataError):
            load_index(path)


# `patternqr-index-v1` files of two corpora, frozen: saved indexes must keep these bytes.
FROZEN_INDEX_FILES = {
    "tiny": (
        [("d1", "cat sat"), ("d2", "dog sat sat")],
        '{"format": "patternqr-index-v1", "config_hash": "abc123", "k1": 0.9, "b": 0.4, '
        '"doc_ids": ["d1", "d2"], "doc_tokens": [["cat", "sat"], ["dog", "sat", "sat"]], '
        '"postings": {"cat": [[0, 1]], "sat": [[0, 1], [1, 2]], "dog": [[1, 1]]}}',
    ),
    "first-ordinal-order": (
        [("z", "zeta alpha zeta"), ("a", "beta alpha"), ("e", "")],
        '{"format": "patternqr-index-v1", "config_hash": "abc123", "k1": 0.9, "b": 0.4, '
        '"doc_ids": ["z", "a", "e"], "doc_tokens": [["zeta", "alpha", "zeta"], '
        '["beta", "alpha"], []], "postings": {"alpha": [[0, 1], [1, 1]], "zeta": [[0, 2]], '
        '"beta": [[1, 1]]}}',
    ),
}


class TestIndexFileFormat:
    @pytest.mark.parametrize("name", sorted(FROZEN_INDEX_FILES))
    def test_saved_bytes_are_frozen(self, name, tmp_path):
        docs, expected = FROZEN_INDEX_FILES[name]
        path = tmp_path / "index.json"
        save_index(build_index([Document(d, t) for d, t in docs]), path, config_hash="abc123")
        assert path.read_text(encoding="utf-8") == expected
        resaved = tmp_path / "resaved.json"
        save_index(load_index(path), resaved, config_hash="abc123")
        assert resaved.read_text(encoding="utf-8") == expected

    def test_failed_write_leaves_no_partial_file(self, tiny_index, tmp_path, half_write_text):
        path = tmp_path / "index.json"
        path.write_bytes(b"previous index")
        with pytest.raises(OSError, match="disk full"):
            save_index(tiny_index, path)
        assert path.read_bytes() == b"previous index"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index.json"]

    @pytest.mark.parametrize(
        "postings",
        [
            {"cat": [[0, 1]], "sat": [[1, 2], [0, 1]]},
            {"cat": [[0, 1], [0, 1]]},
            {"cat": [[2, 1]]},
            {"cat": [[-1, 1]]},
            {"cat": "zero"},
            ["cat", "sat", "dog"],
        ],
        ids=["unsorted", "repeated", "out-of-range", "negative", "not-a-list", "not-an-object"],
    )
    def test_load_rejects_malformed_postings(self, tiny_index, tmp_path, postings):
        path = tmp_path / "index.json"
        save_index(tiny_index, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**payload, "postings": postings}), encoding="utf-8")
        with pytest.raises(DataError, match="malformed"):
            load_index(path)

    @pytest.mark.parametrize(
        "doc_tokens",
        [
            [["cat", "sat"], "dog"],
            [["cat", "sat"], {"dog": 1, "sat": 2}],
            [["cat", "sat"], ["dog", "sat", 1]],
            [["cat", "sat"], ["dog", ["sat"]]],
            [["cat", "sat"], 3],
        ],
        ids=["string", "object", "number-token", "list-token", "number"],
    )
    def test_load_rejects_documents_that_are_not_lists_of_terms(
        self, tiny_index, tmp_path, doc_tokens
    ):
        path = tmp_path / "index.json"
        save_index(tiny_index, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**payload, "doc_tokens": doc_tokens}), encoding="utf-8")
        with pytest.raises(DataError, match="malformed index file"):
            load_index(path)

    @pytest.mark.parametrize(
        "doc_ids",
        [5, "d1d2", [1, 2], ["", "d2"], [None, "d2"]],
        ids=["number", "string", "numbers", "empty-id", "null-id"],
    )
    def test_load_rejects_doc_ids_that_are_not_non_empty_strings(
        self, tiny_index, tmp_path, doc_ids
    ):
        path = tmp_path / "index.json"
        save_index(tiny_index, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**payload, "doc_ids": doc_ids}), encoding="utf-8")
        with pytest.raises(DataError, match="malformed index file .*: doc_ids must be"):
            load_index(path)

    def test_load_rejects_a_document_term_without_postings(self, tiny_index, tmp_path):
        path = tmp_path / "index.json"
        save_index(tiny_index, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["doc_tokens"][1].append("bird")
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError, match="malformed index file .*: postings do not match"):
            load_index(path)
