import json
import math
import random
import re
import tempfile
import tracemalloc
from collections import Counter
from itertools import accumulate
from pathlib import Path
from types import MappingProxyType
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    oracle_bm25_all,
    oracle_index_arrays,
    oracle_postings,
    oracle_rank,
    oracle_tokenize,
)
from patternqr import index as index_module
from patternqr.errors import ConfigError, DataError
from patternqr.index import (
    Document,
    RetrievalContext,
    bm25_score,
    build_index,
    iter_corpus_tsv,
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

    @pytest.mark.parametrize(
        "around",
        ["{}", "A{}", "\u03a3{}\u03a3"],
        ids=["alone", "after-a-cased-letter", "between-sigmas"],
    )
    def test_every_term_tokenizes_to_itself(self, around):
        # `featurize` reads an index snippet's terms from their ids, in place of
        # tokenizing the terms joined by spaces; that holds only if every term
        # is its own one token. Between sigmas, the second is final after a cased
        # or case-ignorable character. Items are space-separated, and a space is
        # neither cased nor case-ignorable, so each lowers as it would alone.
        text = " ".join(around.format(chr(cp)) for cp in range(0x110000))
        terms = set(tokenize(text))
        assert len(terms) > 100_000
        assert [t for t in sorted(terms) if tokenize(t) != [t]] == []

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

    @pytest.mark.parametrize("bad_id", ["", "d 1", "d\t1", "d\u20281"])
    def test_a_doc_id_holding_whitespace_is_rejected(self, bad_id):
        with pytest.raises(DataError, match=re.escape(f"doc_id {bad_id!r}")):
            build_index([Document("d0", "a"), Document(bad_id, "b")])

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

    def test_snippet_truncation(self, monkeypatch):
        index = build_index([Document("d1", "w " * 100)])
        assert retrieve_topk(index, "w", 1).snippets[0] == " ".join(["w"] * 64)
        monkeypatch.setattr(index_module, "SNIPPET_TOKENS", 5)
        ctx = retrieve_topk(index, "w", 1)
        assert ctx.snippets[0] == "w w w w w"
        assert ctx.snippets.terms() == [["w"] * 5]

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
        monkeypatch.setattr(index_module, "SNIPPET_TOKENS", 1)
        ctx = retrieve_topk(index, "common", 1000)
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
# the Kelvin sign, whose lowercase form is ASCII, and underscores between tokens),
# and texts holding "\n", which would split a joined block, or another ASCII control.
_CORPORA = st.lists(
    st.one_of(
        st.just(""),
        st.text(max_size=40),
        st.lists(st.sampled_from(["a", "B", "b", "é", "ΣΑ", "x_1", "İ", "\u212a", "7", "a.a", "c\nd", "\x1f"]))
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
                with mock.patch.object(index_module, "SNIPPET_TOKENS", k):
                    assert index.snippet(i) == " ".join(tokens[:k])

    @given(_CORPORA, st.floats(0.0, 3.0), st.floats(0.0, 1.0))
    def test_save_and_load_keep_postings_and_documents(self, texts, k1, b):
        built = build_index([Document(f"d{i}", text) for i, text in enumerate(texts)], k1, b)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.npz"
            save_index(built, path)
            loaded = load_index(path)
        assert loaded.terms == built.terms
        for name in ("offsets", "ordinals", "tfs", "stream"):
            assert np.array_equal(getattr(loaded, name), getattr(built, name))
            assert getattr(loaded, name).dtype == getattr(built, name).dtype
        assert loaded.doc_ids == built.doc_ids
        assert loaded.doc_lengths == built.doc_lengths
        assert (loaded.k1, loaded.b) == (built.k1, built.b)


def _assert_index_arrays(index, expected):
    assert index.terms == expected["terms"]
    for name in ("stream", "offsets", "ordinals", "tfs"):
        got, want = getattr(index, name), expected[name]
        assert (got.dtype, got.tolist()) == (want.dtype, want.tolist()), name


class TestInPlaceBuild:
    """The build sorts its (term, ordinal) keys in place; its arrays, built and
    loaded, must equal those of the `np.unique` derivation it replaced."""

    def _check(self, texts, block_docs=index_module._BLOCK_DOCS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(index_module, "_BLOCK_DOCS", block_docs)
            built = build_index([Document(f"d{i}", text) for i, text in enumerate(texts)])
        expected = oracle_index_arrays(texts)
        lengths = [len(oracle_tokenize(text)) for text in texts]
        _assert_index_arrays(built, expected)
        assert list(built.doc_lengths) == lengths
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.npz"
            save_index(built, path)
            loaded = load_index(path)
        _assert_index_arrays(loaded, expected)
        assert list(loaded.doc_lengths) == lengths

    # Blocks of 1 to 3 documents put the corpora's texts on every block edge.
    @given(_CORPORA, st.sampled_from([1, 2, 3, 16]))
    def test_arrays_equal_the_unique_reference(self, texts, block_docs):
        self._check(texts, block_docs)

    @pytest.mark.parametrize(
        "texts",
        [
            [],
            [""],
            ["", "", ""],
            ["", "caf\u00e9 \u03a3\u0391", ""],
            ["b a", "", "a a b"],
            ["a b", "c\nd e", "f", "x\x1fy\rz", "g\n", "h"],
            ["a B", "\u212a a", "b", "c \u0130 a", "C", "d", "e"],
            ["", "a", "", "", "b c", "", ""],
            ["a", "b a", "c", "a c", "d", "e"],
        ],
        ids=[
            "no-documents",
            "one-empty",
            "all-empty",
            "non-ascii",
            "empty-inside",
            "newline-in-a-text",
            "non-ascii-in-ascii-blocks",
            "empty-on-edges",
            "six-documents",
        ],
    )
    def test_edge_corpora_equal_the_unique_reference(self, texts):
        # Six documents fill blocks of 1, 2 and 3 exactly; seven leave one short.
        for block_docs in (1, 2, 3, 16):
            self._check(texts, block_docs)

    def test_a_long_corpus_with_many_terms(self):
        rng = random.Random(11)
        vocabulary = [f"w{i}" for i in range(3000)] + ["caf\u00e9", "\u03c3\u03b1", "x_y"]
        texts = [" ".join(rng.choices(vocabulary, k=rng.randrange(0, 130))) for _ in range(2500)]
        texts[1000] = ""
        self._check(texts)

    def test_build_peak_memory_per_token_is_bounded(self):
        # Traced peak of build_index's own allocations per token, on a Zipf-like
        # corpus: about 20 B, with the sort's int64 keys, their run mask and the
        # keys of the postings beside the stream and the per-document objects.
        # The np.unique derivation after a Python list of every id took 35 B.
        rng = np.random.default_rng(7)
        ranks = np.minimum(rng.zipf(1.3, size=(3000, 60)), 5000)
        docs = [Document(f"d{i}", " ".join(f"w{r}" for r in row)) for i, row in enumerate(ranks)]
        tracemalloc.start()
        try:
            index = build_index(docs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / index.stream.size < 24


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

    def test_duplicate_query_id_names_its_line(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("q1\tcat\nq2\tsat\nq1\tdog\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}:3: duplicate query_id 'q1'")):
            read_queries_tsv(path)

    @pytest.mark.parametrize("bad_id", ["d 1", " d1", "d1\u00a0", "d\x1c1", "d\u30001"])
    @pytest.mark.parametrize(
        "reader, kind", [(read_corpus_tsv, "doc_id"), (read_queries_tsv, "query_id")]
    )
    def test_an_id_holding_whitespace_names_its_line(self, tmp_path, reader, kind, bad_id):
        # A run file and qrels are whitespace-separated: such an id could not be read back.
        path = tmp_path / "input.tsv"
        path.write_text(f"a1\tcat\n{bad_id}\tsat\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}:2: {kind} {bad_id!r}")):
            reader(path)

    def test_corpus_is_read_one_document_at_a_time(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("d1\tcat\nbroken line\n", encoding="utf-8")
        docs = iter_corpus_tsv(path)
        assert next(docs) == Document("d1", "cat")
        with pytest.raises(DataError, match=":2"):
            next(docs)

    @pytest.mark.parametrize("reader", [read_corpus_tsv, read_queries_tsv])
    def test_non_utf8_file_is_a_data_error_naming_it(self, tmp_path, reader):
        path = tmp_path / "input.tsv"
        path.write_bytes(b"d1\tcat\nd2\tcaf\xff sat\n")
        with pytest.raises(DataError, match=f"{re.escape(str(path))}: not UTF-8") as raised:
            reader(path)
        assert "\n" not in str(raised.value)

    @pytest.mark.parametrize(
        "text",
        ["baz\u0085d3\tqux", "foo\u2028bar", "a\u2029b\vc\fd\x1ce\x1df\x1eg", "a\rb"],
        ids=["next-line", "line-separator", "other-breaks", "inner-cr"],
    )
    def test_only_a_newline_ends_a_line(self, tmp_path, text):
        path = tmp_path / "corpus.tsv"
        path.write_text(f"d1\tcat\nd2\t{text}\n", encoding="utf-8")
        assert read_corpus_tsv(path) == [Document("d1", "cat"), Document("d2", text)]

    def test_one_trailing_carriage_return_is_dropped(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_bytes(b"d1\tcat sat\r\nd2\tdog\r\r\n\r\nd3\tend\r")
        assert read_corpus_tsv(path) == [
            Document("d1", "cat sat"),
            Document("d2", "dog\r"),
            Document("d3", "end"),
        ]

    @given(st.text().filter(lambda t: "\t" not in t and "\n" not in t and not t.endswith("\r")))
    def test_any_text_without_tab_or_newline_is_one_document(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.tsv"
            path.write_bytes(f"d1\t{text}\n".encode("utf-8"))
            assert read_corpus_tsv(path) == [Document("d1", text)]


class TestIndexPersistence:
    def test_save_load_preserves_retrieval(self, tiny_index, tmp_path):
        path = tmp_path / "index.npz"
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

    def test_missing_file_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot load index from"):
            load_index(tmp_path / "missing.npz")

    def test_save_to_a_directory_writes_nothing(self, tiny_index, tmp_path, monkeypatch):
        # The directory is found before the archive is written, not at the rename.
        monkeypatch.setattr(np, "savez", lambda *args, **kwargs: pytest.fail("wrote the archive"))
        (tmp_path / "index.npz").mkdir()
        with pytest.raises(ConfigError, match="index.npz: Is a directory"):
            save_index(tiny_index, tmp_path / "index.npz")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index.npz"]


# `patternqr-index-v2` files of two corpora, frozen: each file's `meta` JSON,
# then its `stream` and `doc_lengths`.
FROZEN_INDEX_FILES = {
    "tiny": (
        [("d1", "cat sat"), ("d2", "dog sat sat")],
        '{"format": "patternqr-index-v2", "config_hash": "abc123", "k1": 0.9, "b": 0.4, '
        '"doc_ids": ["d1", "d2"], "terms": ["cat", "sat", "dog"]}',
        [0, 1, 2, 1, 1],
        [2, 3],
    ),
    "first-ordinal-order": (
        [("z", "zeta alpha zeta"), ("a", "beta alpha"), ("e", "")],
        '{"format": "patternqr-index-v2", "config_hash": "abc123", "k1": 0.9, "b": 0.4, '
        '"doc_ids": ["z", "a", "e"], "terms": ["zeta", "alpha", "beta"]}',
        [0, 1, 0, 2, 1],
        [3, 2, 0],
    ),
}

# The `patternqr-index-v1` JSON file of the "tiny" corpus, as saved before v2.
V1_TINY_FILE = (
    '{"format": "patternqr-index-v1", "config_hash": "abc123", "k1": 0.9, "b": 0.4, '
    '"doc_ids": ["d1", "d2"], "doc_tokens": [["cat", "sat"], ["dog", "sat", "sat"]], '
    '"postings": {"cat": [[0, 1]], "sat": [[0, 1], [1, 2]], "dog": [[1, 1]]}}'
)

TINY_META = json.loads(FROZEN_INDEX_FILES["tiny"][1])


def _meta_bytes(meta) -> np.ndarray:
    return np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)


def _write_tiny_v2(path, meta=TINY_META, **members):
    """A v2 file of the "tiny" corpus with `meta` (JSON-encoded unless it is an
    array) and the given members replaced; a member given as None is left out."""
    arrays = {
        "stream": np.array([0, 1, 2, 1, 1], dtype=np.int32),
        "doc_lengths": np.array([2, 3], dtype=np.int64),
        "meta": meta if meta is None or isinstance(meta, np.ndarray) else _meta_bytes(meta),
        **members,
    }
    with open(path, "wb") as handle:
        np.savez(handle, **{name: a for name, a in arrays.items() if a is not None})


def _save_npy(path):
    with open(path, "wb") as handle:
        np.save(handle, np.arange(3))


def _without(key):
    return {k: v for k, v in TINY_META.items() if k != key}


# Each malformed file's replaced members, and a fragment of the reason it is refused.
MALFORMED_V2 = {
    "no-stream": ({"stream": None}, "is not a file in the archive"),
    "no-doc-lengths": ({"doc_lengths": None}, "is not a file in the archive"),
    "no-meta": ({"meta": None}, "is not a file in the archive"),
    "meta-not-json": (
        {"meta": np.frombuffer(b"{not json", dtype=np.uint8)},
        "Expecting property name",
    ),
    "meta-not-utf8": (
        {"meta": np.frombuffer(b'{"k1": "\xff"}', dtype=np.uint8)},
        "codec can't decode",
    ),
    "meta-nested-too-deep": (
        {"meta": np.frombuffer(b"[" * 100_000, dtype=np.uint8)},
        "maximum recursion depth",
    ),
    "no-k1": ({"meta": _without("k1")}, "k1 must be"),
    "no-b": ({"meta": _without("b")}, "b must be"),
    "no-doc-ids": ({"meta": _without("doc_ids")}, "doc_ids must be"),
    "no-terms": ({"meta": _without("terms")}, "terms must be"),
    "k1-string": ({"meta": {**TINY_META, "k1": "0.9"}}, "k1 must be a finite"),
    "k1-negative": ({"meta": {**TINY_META, "k1": -5.0}}, "k1 must be a finite"),
    "k1-infinite": ({"meta": {**TINY_META, "k1": math.inf}}, "k1 must be a finite"),
    "k1-nan": ({"meta": {**TINY_META, "k1": math.nan}}, "k1 must be a finite"),
    "k1-true": ({"meta": {**TINY_META, "k1": True}}, "k1 must be a finite"),
    "b-string": ({"meta": {**TINY_META, "b": "y"}}, "b must be a number in"),
    "b-above-one": ({"meta": {**TINY_META, "b": 7.0}}, "b must be a number in"),
    "b-negative": ({"meta": {**TINY_META, "b": -0.1}}, "b must be a number in"),
    "b-false": ({"meta": {**TINY_META, "b": False}}, "b must be a number in"),
    "b-null": ({"meta": {**TINY_META, "b": None}}, "b must be a number in"),
    "doc-ids-number": ({"meta": {**TINY_META, "doc_ids": 5}}, "doc_ids must be a list"),
    "doc-ids-string": ({"meta": {**TINY_META, "doc_ids": "d1d2"}}, "doc_ids must be a list"),
    "doc-ids-numbers": ({"meta": {**TINY_META, "doc_ids": [1, 2]}}, "doc_ids must be a list"),
    "doc-id-empty": ({"meta": {**TINY_META, "doc_ids": ["", "d2"]}}, "doc_ids must be a list"),
    "doc-id-null": ({"meta": {**TINY_META, "doc_ids": [None, "d2"]}}, "doc_ids must be a list"),
    "doc-ids-repeated": (
        {"meta": {**TINY_META, "doc_ids": ["d1", "d1"]}},
        "doc_ids must be a list",
    ),
    "terms-repeated": (
        {"meta": {**TINY_META, "terms": ["cat", "sat", "cat"]}},
        "terms must be a list",
    ),
    "terms-number": ({"meta": {**TINY_META, "terms": ["cat", 1, "dog"]}}, "terms must be a list"),
    "terms-string": ({"meta": {**TINY_META, "terms": "cat sat dog"}}, "terms must be a list"),
    # Each term must be the one token `tokenize` makes of it: featurize reads
    # snippets as terms and never tokenizes them again.
    "term-uppercase": ({"meta": {**TINY_META, "terms": ["cat", "Sat", "dog"]}}, "'Sat' is not one"),
    "term-two-words": ({"meta": {**TINY_META, "terms": ["cat", "s t", "dog"]}}, "'s t' is not one"),
    "term-empty": ({"meta": {**TINY_META, "terms": ["cat", "", "dog"]}}, "'' is not one token"),
    "term-sigma": ({"meta": {**TINY_META, "terms": ["cat", "\u03a3", "dog"]}}, "'Σ' is not one"),
    "stream-id-too-large": (
        {"stream": np.array([0, 1, 3, 1, 1], dtype=np.int32)},
        "stream ids must lie in",
    ),
    "stream-id-negative": (
        {"stream": np.array([0, -1, 2, 1, 1], dtype=np.int32)},
        "stream ids must lie in",
    ),
    "stream-2d": (
        {"stream": np.array([[0, 1, 2, 1, 1]], dtype=np.int32)},
        "must be 1-D integer arrays",
    ),
    "stream-float": (
        {"stream": np.array([0.0, 1.0, 2.0, 1.0, 1.5])},
        "must be 1-D integer arrays",
    ),
    "stream-pickled": (
        {"stream": np.array(["cat"], dtype=object)},
        "Object arrays cannot be loaded",
    ),
    "lengths-negative": (
        {"doc_lengths": np.array([-1, 6], dtype=np.int64)},
        "doc_lengths must be 2 counts",
    ),
    "lengths-too-few": (
        {"doc_lengths": np.array([5], dtype=np.int64)},
        "doc_lengths must be 2 counts",
    ),
    "lengths-too-many": (
        {"doc_lengths": np.array([2, 3, 0], dtype=np.int64)},
        "doc_lengths must be 2 counts",
    ),
    "lengths-wrong-sum": (
        {"doc_lengths": np.array([2, 2], dtype=np.int64)},
        "doc_lengths sum to 4, not to the stream's 5 ids",
    ),
    "lengths-float": ({"doc_lengths": np.array([2.0, 3.0])}, "must be 1-D integer arrays"),
}


class TestIndexFileFormat:
    @pytest.mark.parametrize("name", sorted(FROZEN_INDEX_FILES))
    def test_saved_file_is_frozen(self, name, tmp_path):
        docs, meta, stream, doc_lengths = FROZEN_INDEX_FILES[name]
        path = tmp_path / "index.npz"
        save_index(build_index([Document(d, t) for d, t in docs]), path, config_hash="abc123")
        with np.load(path, allow_pickle=False) as bundle:
            assert bundle.files == ["stream", "doc_lengths", "meta"]
            assert (bundle["meta"].dtype, bundle["meta"].tobytes().decode("utf-8")) == (
                np.uint8,
                meta,
            )
            assert (bundle["stream"].dtype, bundle["stream"].tolist()) == (np.int32, stream)
            assert (bundle["doc_lengths"].dtype, bundle["doc_lengths"].tolist()) == (
                np.int64,
                doc_lengths,
            )

    @pytest.mark.parametrize("name", sorted(FROZEN_INDEX_FILES))
    def test_saves_and_resaves_are_byte_identical(self, name, tmp_path):
        docs = FROZEN_INDEX_FILES[name][0]
        index = build_index([Document(d, t) for d, t in docs])
        for file_name in ("a.npz", "b.npz"):
            save_index(index, tmp_path / file_name, config_hash="abc123")
        save_index(load_index(tmp_path / "a.npz"), tmp_path / "c.npz", config_hash="abc123")
        saved = [(tmp_path / f).read_bytes() for f in ("a.npz", "b.npz", "c.npz")]
        assert saved[0] == saved[1] == saved[2]

    def test_non_ascii_terms_are_stored_as_utf8(self, tmp_path):
        path = tmp_path / "index.npz"
        save_index(build_index([Document("d\u00e9", "caf\u00e9 \u03a3\u0391")]), path)
        with np.load(path) as bundle:
            meta = bundle["meta"].tobytes()
        assert "café".encode("utf-8") in meta and b"\\u" not in meta
        assert load_index(path).terms == ["café", "σα"]

    def test_failed_write_leaves_no_partial_file(self, tiny_index, tmp_path, monkeypatch):
        path = tmp_path / "index.npz"
        path.write_bytes(b"previous index")

        def write_half_then_fail(handle, **arrays):
            handle.write(b"PK partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_index(tiny_index, path)
        assert path.read_bytes() == b"previous index"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index.npz"]

    def test_the_malformed_cases_start_from_a_valid_file(self, tiny_index, tmp_path):
        _write_tiny_v2(tmp_path / "index.npz")
        loaded = load_index(tmp_path / "index.npz")
        assert loaded.terms == tiny_index.terms and loaded.doc_ids == tiny_index.doc_ids
        assert np.array_equal(loaded.ordinals, tiny_index.ordinals)

    @pytest.mark.parametrize("members, reason", MALFORMED_V2.values(), ids=MALFORMED_V2.keys())
    def test_load_rejects_a_malformed_v2_file(self, tmp_path, members, reason):
        path = tmp_path / "index.npz"
        _write_tiny_v2(path, **members)
        with pytest.raises(DataError, match=f"malformed index file .*: .*{re.escape(reason)}"):
            load_index(path)

    @pytest.mark.parametrize(
        "damage",
        [lambda data: b"PK\x03\x04 not a zip", lambda data: data[: len(data) // 2]],
        ids=["zip-magic-only", "truncated"],
    )
    def test_load_rejects_a_bad_zip(self, tiny_index, tmp_path, damage):
        path = tmp_path / "index.npz"
        save_index(tiny_index, path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(DataError, match="malformed index file"):
            load_index(path)

    @pytest.mark.parametrize(
        "write",
        [
            lambda path: path.write_text(V1_TINY_FILE, encoding="utf-8"),
            lambda path: path.write_text("{}", encoding="utf-8"),
            _save_npy,
            lambda path: _write_tiny_v2(path, meta={**TINY_META, "format": "patternqr-index-v1"}),
            lambda path: _write_tiny_v2(path, meta=["patternqr-index-v2"]),
        ],
        ids=["v1-json", "json-object", "npy", "v1-format-in-meta", "meta-not-an-object"],
    )
    def test_load_asks_for_a_new_index_for_other_files(self, tmp_path, write):
        path = tmp_path / "index.json"
        write(path)
        with pytest.raises(DataError, match="index-v2 file: run `patternqr index` again"):
            load_index(path)

    def test_load_reads_no_member_beyond_the_index(self, tmp_path, monkeypatch):
        path = tmp_path / "index.npz"
        save_index(build_index([Document("d1", "cat sat"), Document("d2", "dog")]), path)
        with np.load(path, allow_pickle=False) as bundle:
            arrays = {name: bundle[name] for name in bundle.files}
        np.savez(path, **arrays, big=np.zeros(9))
        read = []
        getitem = np.lib.npyio.NpzFile.__getitem__
        monkeypatch.setattr(
            np.lib.npyio.NpzFile, "__getitem__", lambda self, key: read.append(key) or getitem(self, key)
        )
        assert load_index(path).doc_ids == ["d1", "d2"]
        assert sorted(read) == ["doc_lengths", "meta", "stream"]
