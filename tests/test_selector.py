import functools
import hashlib
import itertools
import json
import math
import re
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import dense_weights, oracle_featurize, oracle_tokenize, oracle_train_dense
from patternqr import selector
from patternqr.errors import ConfigError, DataError
from patternqr.gateway import Gateway, MockBackend, MockScript
from patternqr.index import Document, RetrievalContext, build_index, retrieve_topk
from patternqr.induction import PatternLibrary, ReformulationPattern, default_library
from patternqr.selector import (
    FeatureVector,
    ModelSelector,
    PatternDistribution,
    PromptSelector,
    SelectorModel,
    TrainConfig,
    _cross_entropy,
    _featurize_all,
    _softmax_rows,
    featurize,
    load_model,
    predict_distribution,
    select_pattern,
    save_model,
    train_selector,
    write_loss_curve,
)

# The exact-gradient reference, through the trainer's cross-entropy kernel.
loss_and_gradient = functools.partial(oracles.loss_and_gradient, _cross_entropy)


def _context(snippets, query_id="q"):
    doc_ids = [f"d{i}" for i in range(len(snippets))]
    scores = [1.0 - 0.1 * i for i in range(len(snippets))]
    return RetrievalContext(query_id, doc_ids, scores, max(len(snippets), 1), tuple(snippets))


EMPTY_CONTEXT = RetrievalContext("q", [], [], 0, ())
# A dimension whose full (M, F) matrix is small, and whose buckets collide.
SMALL = 2**10


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(selector, "DIMENSION", SMALL)


def _oracle_featurize(query, snippets, dimension):
    """The reference at the selector's fixed features: unigrams and bigrams, each
    snippet cut at 64 tokens, hash seed 0."""
    return oracle_featurize(query, snippets, dimension, (1, 2), 64, 0)


def _predict(model, fv):
    """`predict_distribution` of a query and context whose features are `fv`."""
    with mock.patch.object(selector, "featurize", lambda query, context: fv):
        return predict_distribution(model, "", EMPTY_CONTEXT)


def _library(m):
    return PatternLibrary(
        patterns=tuple(ReformulationPattern(i, f"Pattern {i}", "d", "r") for i in range(m)),
        version=f"test-{m}",
    )


def separable_examples(library, per_class, seed, noise_words=4):
    """Label determined by one keyword per class, planted in query and snippet."""
    rng = np.random.default_rng(seed)
    vocab = [f"noise{i}" for i in range(50)]
    examples = []
    for label in range(len(library)):
        for _ in range(per_class):
            noise = " ".join(rng.choice(vocab) for _ in range(noise_words))
            query = f"key{label} {noise}"
            context = _context([f"ctx{label} filler text"])
            examples.append((query, context, label))
    order = rng.permutation(len(examples))
    return [examples[i] for i in order]


# Words whose lowercase is not their own (U+0130, the Kelvin sign, final sigma,
# a titlecase digraph) or that split ("x_y", "A.B"), beside plain ones.
_NON_ASCII_WORDS = [
    "İstanbul", "\u212aelvin", "ΟΔΟΣ", "ΣΑΣ", "straße", "ǅemal", "naïve", "x_y", "ﬁle",
    "A.B", "日本語", "cat", "sat",
]


def _non_ascii_text(max_words):
    return st.lists(st.sampled_from(_NON_ASCII_WORDS), max_size=max_words).map(" ".join)


class TestFeaturize:
    def test_empty_inputs_give_empty_vector(self):
        fv = featurize("", EMPTY_CONTEXT)
        assert fv.indices.size == 0 and fv.values.size == 0

    def test_deterministic(self):
        ctx = _context(["alpha beta gamma"])
        a = featurize("bank rates", ctx)
        b = featurize("bank rates", ctx)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)

    def test_query_only_without_context(self):
        with_ctx = featurize("bank rates", _context(["x y z"]))
        without = featurize("bank rates", EMPTY_CONTEXT)
        assert without.indices.size > 0
        assert set(without.indices) <= set(with_ctx.indices)
        assert with_ctx.indices.size > without.indices.size

    def test_counts_accumulate(self):
        fv = featurize("cat cat", EMPTY_CONTEXT)
        # unigram "cat" occurs twice, bigram "cat cat" once
        assert sorted(fv.values.tolist()) == [1.0, 2.0]

    def test_indices_sorted_unique_in_range(self, small):
        fv = featurize("a b c d e f g", _context(["h i j k"]))
        assert np.all(np.diff(fv.indices) > 0)
        assert fv.indices.min() >= 0 and fv.indices.max() < SMALL

    @pytest.mark.parametrize("length", [63, 64, 65, 100])
    def test_snippet_cap_applies(self, length):
        # A snippet is cut at 64 tokens, whether it is a string or an index snippet.
        text = " ".join(f"w{i}" for i in range(length))
        index = build_index([Document("d0", text)])
        for context in (_context([text]), retrieve_topk(index, "w0", 1)):
            fv = featurize("", context)
            expected = _oracle_featurize("", [text], selector.DIMENSION)
            assert fv.indices.tolist() == sorted(expected)
            assert fv.values.tolist() == [expected[i] for i in sorted(expected)]
        cut = featurize("", _context([" ".join(text.split()[:64])]))
        assert fv.indices.tolist() == cut.indices.tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        query=st.lists(st.sampled_from(["a", "b", "cat", "Été", "x_y"]), max_size=8).map(" ".join),
        snippets=st.lists(
            st.lists(st.sampled_from(["a", "b", "dog", "naïve"]), max_size=10).map(" ".join),
            max_size=3,
        ),
        dimension=st.sampled_from([1, 7, 2**10]),
    )
    def test_matches_the_per_occurrence_reference(self, query, snippets, dimension):
        # Few distinct words and small dimensions: keys repeat and buckets collide.
        with mock.patch.object(selector, "DIMENSION", dimension):
            fv = featurize(query, _context(snippets))
        expected = _oracle_featurize(query, snippets, dimension)
        assert fv.indices.tolist() == sorted(expected)
        assert fv.values.tolist() == [expected[i] for i in sorted(expected)]

    @settings(max_examples=60, deadline=None)
    @given(
        docs=st.lists(_non_ascii_text(12), min_size=1, max_size=6),
        query=_non_ascii_text(4),
        snippet_tokens=st.integers(0, 9),
        dimension=st.sampled_from([1, 7, 2**10, 2**63]),
    )
    def test_index_snippets_match_the_per_occurrence_reference(
        self, docs, query, snippet_tokens, dimension
    ):
        # Index snippets' terms are read as ids, not as the joined text the
        # reference tokenizes again.
        index = build_index(Document(f"d{i}", text) for i, text in enumerate(docs))
        with mock.patch("patternqr.index.SNIPPET_TOKENS", snippet_tokens):
            context = retrieve_topk(index, query, 3)
            snippets = list(context.snippets)  # each is cut when it is read
            with mock.patch.object(selector, "DIMENSION", dimension):
                fv = featurize(query, context)
        expected = _oracle_featurize(query, snippets, dimension)
        assert fv.indices.tolist() == sorted(expected)
        assert fv.values.tolist() == [expected[i] for i in sorted(expected)]

    @pytest.mark.parametrize("chunk", [1, 2, 100])
    def test_one_call_over_many_pairs_gives_each_pair_its_vector(self, chunk):
        # A code hashed in one chunk is looked up in the runs of later ones;
        # chunks of one and two pairs merge many runs. Each distinct key is
        # hashed once in the call.
        index = build_index(
            Document(f"d{i}", " ".join(f"w{(i * j) % 23} İstanbul" for j in range(15)))
            for i in range(12)
        )
        queries = [f"w{i % 5} W{i % 7} İSTANBUL" for i in range(7)]
        pairs = [(q, retrieve_topk(index, q, 3)) for q in queries]
        pairs += [(q, _context([q.lower() + " ΣΑΣ", "x"])) for q in queries[:3]]
        hashed, blake2b = [], hashlib.blake2b
        logged = types.SimpleNamespace(blake2b=lambda **kw: _KeyLog(hashed, blake2b(**kw)))
        with mock.patch.object(selector, "_FEATURIZE_CHUNK", chunk):
            with mock.patch.object(selector, "hashlib", logged):
                with mock.patch.object(selector, "DIMENSION", 2**12):
                    vectors = _featurize_all(pairs)
        assert len(vectors) == len(pairs)
        keys = set()
        for (query, context), fv in zip(pairs, vectors):
            expected = _oracle_featurize(query, list(context.snippets), 2**12)
            assert fv.indices.tolist() == sorted(expected)
            assert fv.values.tolist() == [expected[i] for i in sorted(expected)]
            texts = [("q", oracle_tokenize(query))]
            texts += [("d", oracle_tokenize(snippet)[:64]) for snippet in context.snippets]
            for (space, tokens), order in itertools.product(texts, selector.NGRAM_ORDERS):
                keys.update(
                    f"{space}:{' '.join(tokens[i : i + order])}".encode("utf-8")
                    for i in range(len(tokens) - order + 1)
                )
        assert sorted(hashed) == sorted(keys)


class _KeyLog:
    """A salted blake2b that logs each key its copies hash."""

    def __init__(self, log, hasher):
        self.log, self.hasher = log, hasher

    def copy(self):
        return _KeyLog(self.log, self.hasher.copy())

    def update(self, data):
        self.log.append(data)
        self.hasher.update(data)

    def digest(self):
        return self.hasher.digest()


def _random_vectors(rng, n, dimension):
    vectors = []
    for _ in range(n):
        size = rng.integers(0, 6)
        indices = np.sort(rng.choice(dimension, size=size, replace=False)).astype(np.int64)
        values = rng.uniform(0.5, 3.0, size=size)
        vectors.append(FeatureVector(indices=indices, values=values))
    return vectors


class TestLossAndGradient:
    def test_zero_weights_loss_is_ln_m(self):
        m, f = 10, 2**10
        rng = np.random.default_rng(0)
        vectors = _random_vectors(rng, 8, f)
        labels = rng.integers(0, m, size=8)
        loss, _, _ = loss_and_gradient(np.zeros((m, f)), np.zeros(m), vectors, labels, 1e-5)
        assert loss == pytest.approx(math.log(m), abs=1e-9)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            m = int(rng.integers(2, 5))
            f = int(rng.integers(4, 33))
            n = int(rng.integers(1, 9))
            vectors = _random_vectors(rng, n, f)
            labels = rng.integers(0, m, size=n)
            weights = rng.normal(scale=0.5, size=(m, f))
            bias = rng.normal(scale=0.5, size=m)
            l2 = 1e-4
            _, grad_w, grad_b = loss_and_gradient(weights, bias, vectors, labels, l2)
            h = 1e-6
            num_w = np.zeros_like(weights)
            for i in range(m):
                for j in range(f):
                    up = weights.copy()
                    down = weights.copy()
                    up[i, j] += h
                    down[i, j] -= h
                    lu, _, _ = loss_and_gradient(up, bias, vectors, labels, l2)
                    ld, _, _ = loss_and_gradient(down, bias, vectors, labels, l2)
                    num_w[i, j] = (lu - ld) / (2 * h)
            num_b = np.zeros_like(bias)
            for i in range(m):
                up = bias.copy()
                down = bias.copy()
                up[i] += h
                down[i] -= h
                lu, _, _ = loss_and_gradient(weights, up, vectors, labels, l2)
                ld, _, _ = loss_and_gradient(weights, down, vectors, labels, l2)
                num_b[i] = (lu - ld) / (2 * h)
            assert np.allclose(grad_w, num_w, rtol=1e-5, atol=1e-7)
            assert np.allclose(grad_b, num_b, rtol=1e-5, atol=1e-7)


class TestTraining:
    def test_separable_fixture_reaches_high_accuracy(self):
        library = _library(4)
        train = separable_examples(library, per_class=60, seed=1)
        held_out = separable_examples(library, per_class=20, seed=2)
        hyper = TrainConfig(seed=0)
        model, history = train_selector(train, library, hyper)
        assert history[-1] < 0.1 * math.log(len(library))
        hits = sum(
            1
            for q, ctx, lbl in held_out
            if select_pattern(predict_distribution(model, q, ctx)) == lbl
        )
        assert hits / len(held_out) >= 0.95

    def test_same_seed_identical_weights(self, small):
        library = _library(3)
        examples = separable_examples(library, per_class=10, seed=5)
        hyper = TrainConfig(epochs=3, seed=11)
        model_a, hist_a = train_selector(examples, library, hyper)
        model_b, hist_b = train_selector(examples, library, hyper)
        assert np.array_equal(model_a.weights, model_b.weights)
        assert np.array_equal(model_a.bias, model_b.bias)
        assert hist_a == hist_b

    def test_one_step_on_single_example_decreases_its_loss(self, small):
        library = _library(3)
        example = [("key1 some words", _context(["ctx words"]), 1)]
        hyper = TrainConfig(epochs=1, learning_rate=0.01, decay=0.0, l2=0.0)
        model, history = train_selector(example, library, hyper)
        assert history[0] < math.log(3)

    def test_one_full_batch_step_applies_the_checked_gradient(self, small):
        library = _library(4)
        examples = separable_examples(library, per_class=6, seed=6)[:21]  # unbalanced labels
        hyper = TrainConfig(
            epochs=1,
            learning_rate=0.3,
            decay=0.0,
            l2=1e-3,
            batch_size=len(examples),
        )
        model, _ = train_selector(examples, library, hyper)
        vectors = [featurize(q, ctx) for q, ctx, _ in examples]
        labels = np.array([lbl for _, _, lbl in examples])
        m = len(library)
        _, grad_w, grad_b = loss_and_gradient(
            np.zeros((m, SMALL)), np.zeros(m), vectors, labels, hyper.l2
        )
        assert np.any(grad_w != 0.0) and np.all(grad_b != 0.0)
        # Relative to the largest entry: the batch sums in shuffled order, so
        # entries that cancel to zero in one order may leave ~1e-18 in the other.
        for trained, grad in ((dense_weights(model, SMALL), grad_w), (model.bias, grad_b)):
            expected = -hyper.learning_rate * grad
            assert np.abs(trained - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize(
        "library, per_class, empty, hyper, dimension",
        [
            # the acceptance-3 fixture: 1000 examples, 20 epochs, 2^18 columns
            (default_library(), 100, 0, TrainConfig(epochs=20, seed=0), 2**18),
            # batches of 7, some holding empty feature vectors
            (_library(3), 5, 3, TrainConfig(epochs=5, batch_size=7, l2=1e-3), SMALL),
            # one-row batches
            (_library(3), 4, 2, TrainConfig(epochs=3, batch_size=1), SMALL),
            # one batch holding the whole set
            (_library(4), 6, 2, TrainConfig(epochs=4, batch_size=64), SMALL),
            # epoch 1's L2 term differs in its last bit when summed over the
            # full (M, F) matrix in its C order, not over the active block
            (_library(4), 5, 0, TrainConfig(epochs=3, batch_size=1, l2=1e-2), SMALL),
        ],
        ids=["acceptance-3", "empty-vectors", "batch-of-one", "batch-of-all", "l2-sum-order"],
    )
    def test_matches_the_dense_reference(
        self, monkeypatch, library, per_class, empty, hyper, dimension
    ):
        monkeypatch.setattr(selector, "DIMENSION", dimension)
        data = separable_examples(library, per_class=per_class, seed=1)
        data[3:3] = [("", EMPTY_CONTEXT, label % len(library)) for label in range(empty)]
        model, history = train_selector(data, library, hyper)
        vectors = [featurize(q, ctx) for q, ctx, _ in data]
        assert sum(fv.indices.size == 0 for fv in vectors) == empty
        weights, bias, expected = oracle_train_dense(
            [(fv.indices, fv.values) for fv in vectors],
            np.array([lbl for _, _, lbl in data]),
            len(library),
            dimension,
            hyper.epochs,
            hyper.learning_rate,
            hyper.decay,
            hyper.l2,
            hyper.batch_size,
            hyper.seed,
        )
        trained = dense_weights(model, dimension)
        assert np.array_equal(trained, weights)
        assert np.array_equal(model.bias, bias)
        # Bytes as well: array_equal cannot see the sign of a zero.
        assert trained.tobytes() == weights.tobytes()
        assert model.bias.tobytes() == bias.tobytes()
        assert history == expected

    @settings(max_examples=15, deadline=None)
    @given(
        docs=st.lists(_non_ascii_text(12), min_size=1, max_size=8),
        queries=st.lists(_non_ascii_text(4), min_size=3, max_size=9),
        chunk=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_training_across_chunks_matches_the_per_example_path(
        self, docs, queries, chunk, seed
    ):
        # More examples than one featurizing chunk; index-backed and plain
        # contexts alternate. The per-example path featurizes each one alone.
        library = _library(3)
        index = build_index(Document(f"d{i}", text) for i, text in enumerate(docs))
        data = [
            (q, retrieve_topk(index, q, 3) if i % 2 else _context([q, "ΟΔΟΣ cat"]), i % 3)
            for i, q in enumerate(queries)
        ]
        hyper = TrainConfig(epochs=2, batch_size=2, seed=seed)
        with mock.patch.object(selector, "DIMENSION", SMALL):
            with mock.patch.object(selector, "_FEATURIZE_CHUNK", chunk):
                model, history = train_selector(data, library, hyper)
            vectors = [featurize(q, ctx) for q, ctx, _ in data]
        weights, bias, expected = oracle_train_dense(
            [(fv.indices, fv.values) for fv in vectors],
            np.array([lbl for _, _, lbl in data]),
            len(library),
            SMALL,
            hyper.epochs,
            hyper.learning_rate,
            hyper.decay,
            hyper.l2,
            hyper.batch_size,
            hyper.seed,
        )
        assert dense_weights(model, SMALL).tobytes() == weights.tobytes()
        assert model.bias.tobytes() == bias.tobytes()
        assert history == expected

    def test_allocates_no_full_size_matrix(self):
        library = _library(10)
        examples = separable_examples(library, per_class=2, seed=4)
        hyper = TrainConfig(epochs=2)
        tracemalloc.start()
        try:
            train_selector(examples, library, hyper)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(library) * selector.DIMENSION * 8 / 4

    def test_label_out_of_range_names_example(self):
        library = _library(2)
        with pytest.raises(DataError, match="bad query"):
            train_selector([("bad query", EMPTY_CONTEXT, 5)], library, TrainConfig())

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    def test_train_config_out_of_range_is_a_config_error(self, field, value):
        # batch_size 0 raised a bare ValueError from range(); epochs 0 gave an
        # all-zero model and an empty loss history.
        with pytest.raises(ConfigError, match=re.escape(f"{field} must be >= 1, got {value}")):
            TrainConfig(**{field: value})

    def test_empty_training_set_rejected(self):
        with pytest.raises(DataError):
            train_selector([], _library(2), TrainConfig())

    def test_a_loss_that_is_not_finite_is_a_data_error(self):
        # Such a model predicts NaN for every pattern, and so chose pattern 0 for every query.
        library = _library(3)
        examples = separable_examples(library, per_class=3, seed=1)
        hyper = TrainConfig(epochs=2, learning_rate=1e300)
        with pytest.raises(DataError, match="loss of epoch 0 is inf"):
            train_selector(examples, library, hyper)

    def test_loss_history_one_entry_per_epoch(self):
        library = _library(2)
        examples = separable_examples(library, per_class=5, seed=3)
        hyper = TrainConfig(epochs=7)
        _, history = train_selector(examples, library, hyper)
        assert len(history) == 7


def _dense_model(num_patterns, version="v"):
    """An all-zero model that lists every column, so its weights are the full (M, F) matrix."""
    weights = np.zeros((num_patterns, selector.DIMENSION))
    return SelectorModel(weights, np.zeros(num_patterns), version, np.arange(selector.DIMENSION))


class TestPrediction:
    def test_zero_model_is_uniform(self):
        model = SelectorModel.zeros(10, "v")
        dist = predict_distribution(model, "anything", EMPTY_CONTEXT)
        assert np.allclose(dist.probs, 0.1, atol=1e-12)

    def test_zero_model_holds_no_columns(self):
        dimension = selector.DIMENSION  # 2^18 features
        tracemalloc.start()
        try:
            model = SelectorModel.zeros(10, "v")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * dimension * 8 / 20
        assert model.columns.size == 0 and model.weights.shape == (10, 0)
        assert dense_weights(model, dimension).tobytes() == np.zeros((10, dimension)).tobytes()

    def test_logit_shift_invariance(self, small):
        rng = np.random.default_rng(3)
        model = _dense_model(4)
        model.weights[:, :] = rng.normal(size=model.weights.shape)
        fv = featurize("bank rates today", EMPTY_CONTEXT)
        base = _predict(model, fv)
        model.bias += 5.0  # constant on every logit
        shifted = _predict(model, fv)
        assert np.allclose(base.probs, shifted.probs, atol=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_probabilities_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        with mock.patch.object(selector, "DIMENSION", SMALL):
            model = _dense_model(5)
        model.weights[:, :] = rng.normal(scale=2.0, size=model.weights.shape)
        model.bias[:] = rng.normal(scale=2.0, size=5)
        fv = _random_vectors(rng, 1, SMALL)[0]
        dist = _predict(model, fv)
        assert abs(dist.probs.sum() - 1.0) <= 1e-9
        assert np.all(dist.probs >= 0.0)

    def test_scaling_features_with_inverse_weights_keeps_ordering(self, small):
        rng = np.random.default_rng(8)
        model = _dense_model(4)
        model.weights[:, :] = rng.normal(size=model.weights.shape)
        fv = _random_vectors(rng, 1, SMALL)[0]
        c = 3.7
        scaled_fv = FeatureVector(fv.indices, fv.values * c)
        scaled_model = SelectorModel(model.weights / c, model.bias, "v", model.columns)
        a = _predict(model, fv).probs
        b = _predict(scaled_model, scaled_fv).probs
        assert np.array_equal(np.argsort(a), np.argsort(b))

    def test_matches_the_training_kernel_bit_for_bit(self, small):
        rng = np.random.default_rng(12)
        model = _dense_model(5)
        model.weights[:, :] = rng.normal(scale=2.0, size=model.weights.shape)
        model.bias[:] = rng.normal(scale=2.0, size=5)
        vectors = _random_vectors(rng, 9, SMALL)
        assert any(fv.indices.size == 0 for fv in vectors)
        # The trainer's layout: active feature rows, features renumbered to match.
        active = np.unique(np.concatenate([fv.indices for fv in vectors]))
        weights_t = np.ascontiguousarray(model.weights[:, active].T)
        compact = [FeatureVector(np.searchsorted(active, fv.indices), fv.values) for fv in vectors]
        _, rows, _ = _softmax_rows(weights_t, model.bias, compact)
        for fv, row in zip(vectors, rows):
            assert _predict(model, fv).probs.tobytes() == row.tobytes()

    @pytest.mark.parametrize("size", [0, 1, 40], ids=["no-columns", "one-column", "40-columns"])
    def test_compact_model_predicts_as_its_dense_copy(self, small, size):
        rng = np.random.default_rng(size)
        columns = np.sort(rng.choice(np.arange(1, SMALL - 1), size, replace=False))
        compact = SelectorModel(rng.normal(size=(4, size)), rng.normal(size=4), "v", columns)
        dense = SelectorModel(dense_weights(compact, SMALL), compact.bias, "v", np.arange(SMALL))
        outside = np.setdiff1d(np.arange(SMALL), columns)
        vectors = [
            columns[::2],  # inside only
            np.union1d(columns[1::3], outside[::97]),  # partly outside
            outside[[0, 5, -1]],  # outside only, at both ends of the range
            np.array([0, SMALL - 1]),  # below and above every column
            np.array([], dtype=np.int64),
        ]
        for indices in vectors:
            fv = FeatureVector(indices, rng.uniform(0.5, 3.0, size=indices.size))
            assert _predict(compact, fv).probs.tobytes() == _predict(dense, fv).probs.tobytes()


class TestSelectPattern:
    def test_argmax(self):
        dist = PatternDistribution(np.array([0.1, 0.7, 0.2]))
        assert select_pattern(dist) == 1

    def test_uniform_tie_breaks_to_lowest_id(self):
        dist = PatternDistribution(np.full(10, 0.1))
        assert select_pattern(dist) == 0

    @pytest.mark.parametrize("probs", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]])
    def test_probabilities_that_are_not_finite_are_refused(self, probs):
        with pytest.raises(DataError, match="must be finite"):
            PatternDistribution(np.array(probs))


# The meta of a model file at the `small` dimension.
MODEL_META = {
    "format": "patternqr-selector-v2",
    "config_hash": "",
    "feature_config": {"dimension": SMALL, "ngram_orders": [1, 2], "snippet_token_cap": 64,
                       "hash_seed": 0},
    "library_version": "v1",
}


def _meta_without(key):
    return {k: v for k, v in MODEL_META.items() if k != key}


MODEL_META_V1 = {**MODEL_META, "format": "patternqr-selector-v1"}


def _save_npy(path):
    with open(path, "wb") as handle:
        np.save(handle, np.zeros(3))


def _write_raw_model(path, weights, bias, meta, **extra):
    with open(path, "wb") as handle:
        np.savez(handle, weights=weights, bias=bias, meta=np.array(json.dumps(meta)), **extra)


def _model(kind):
    if kind == "trained":
        library = _library(3)
        examples = separable_examples(library, per_class=10, seed=4)
        return train_selector(examples, library, TrainConfig(epochs=2))[0]
    if kind == "zeros":
        return SelectorModel.zeros(3, "v1")
    model = _dense_model(3, version="v1")
    if kind == "dense":
        rng = np.random.default_rng(5)
        model.weights[:] = rng.normal(size=model.weights.shape)
        model.bias[:] = rng.normal(size=3)
    if kind == "signed-zero-and-nan":
        model.weights[1, 5] = -0.0
        model.weights[0, 9] = np.nan
        model.weights[2, 700] = 1.5
        model.bias[1] = -0.0
    return model


class TestModelPersistence:
    def test_round_trip_predictions_bit_exact(self, tmp_path):
        library = _library(3)
        examples = separable_examples(library, per_class=10, seed=4)
        hyper = TrainConfig(epochs=2)
        model, _ = train_selector(examples, library, hyper)
        path = tmp_path / "model.npz"
        save_model(model, path, config_hash="cafe01")
        loaded = load_model(path)
        assert loaded.library_version == model.library_version
        for query, ctx, _ in examples[:5]:
            a = predict_distribution(model, query, ctx).probs
            b = predict_distribution(loaded, query, ctx).probs
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ["trained", "zeros", "dense", "signed-zero-and-nan"])
    def test_round_trip_is_bit_exact(self, tmp_path, small, kind):
        model = _model(kind)
        save_model(model, tmp_path / "model.npz")
        loaded = load_model(tmp_path / "model.npz")
        assert dense_weights(loaded, SMALL).tobytes() == dense_weights(model, SMALL).tobytes()
        assert loaded.bias.tobytes() == model.bias.tobytes()
        assert loaded.library_version == model.library_version

    def test_file_names_the_fixed_features(self, tmp_path):
        # The meta of every model file before the dimension was fixed, at its default.
        save_model(SelectorModel.zeros(3, "v1"), tmp_path / "model.npz", config_hash="cafe01")
        with np.load(tmp_path / "model.npz") as bundle:
            assert str(bundle["meta"]) == (
                '{"format": "patternqr-selector-v2", "config_hash": "cafe01", "feature_config": '
                '{"dimension": 262144, "ngram_orders": [1, 2], "snippet_token_cap": 64, '
                '"hash_seed": 0}, "library_version": "v1"}'
            )

    def test_trained_model_reloads_as_it_was_trained(self, tmp_path, small):
        model = _model("trained")
        assert model.columns.size < SMALL
        assert model.weights.shape == (3, model.columns.size)
        save_model(model, tmp_path / "model.npz")
        loaded = load_model(tmp_path / "model.npz")
        for name in ("columns", "weights", "bias"):
            assert getattr(loaded, name).dtype == getattr(model, name).dtype
            assert getattr(loaded, name).shape == getattr(model, name).shape
            assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes()

    def test_load_and_predict_allocate_no_full_matrix(self, tmp_path):
        dimension = selector.DIMENSION  # 2^18 features
        rng = np.random.default_rng(9)
        columns = np.sort(rng.choice(dimension, 50, replace=False))
        features = {**MODEL_META["feature_config"], "dimension": dimension}
        meta = {**MODEL_META, "feature_config": features}
        path = tmp_path / "model.npz"
        _write_raw_model(path, rng.normal(size=(10, 50)), np.zeros(10), meta, columns=columns)
        context = _context(["a passage about wages and the law", "another passage"])
        tracemalloc.start()
        try:
            model = load_model(path)
            predict_distribution(model, "minimum wage by state", context)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * dimension * 8 / 20

    def test_file_holds_only_columns_with_a_nonzero_bit(self, tmp_path, small):
        model = _model("signed-zero-and-nan")
        save_model(model, tmp_path / "model.npz")
        with np.load(tmp_path / "model.npz") as bundle:
            assert bundle["columns"].tolist() == [5, 9, 700]
            assert bundle["weights"].tobytes() == model.weights[:, [5, 9, 700]].tobytes()
            assert json.loads(str(bundle["meta"]))["format"] == "patternqr-selector-v2"

    def test_refuses_dense_v1_files(self, tmp_path):
        # v1 files store the full (M, F) weight matrix and no columns.
        model = _model("dense")
        path = tmp_path / "model.npz"
        _write_raw_model(path, model.weights, model.bias, MODEL_META_V1)
        message = f"{path} is not a patternqr-selector-v2 file: run `patternqr train-selector` again"
        with pytest.raises(DataError, match=re.escape(message)):
            load_model(path)

    @pytest.mark.parametrize(
        "columns, width",
        [
            (np.array([[1, 2]]), 2),
            (np.array([1.0, 2.0]), 2),
            (np.array([2, 1]), 2),
            (np.array([1, 1]), 2),
            (np.array([-1, 2]), 2),
            (np.array([2, 2**10]), 2),
            (np.array([1, 2, 3]), 2),
            (None, 2),
        ],
        ids=[
            "not-1d",
            "not-integer",
            "descending",
            "repeated",
            "negative",
            "at-dimension",
            "width-not-columns",
            "missing",
        ],
    )
    def test_load_rejects_malformed_columns(self, tmp_path, small, columns, width):
        good = tmp_path / "good.npz"
        _write_raw_model(good, np.ones((3, 2)), np.zeros(3), MODEL_META, columns=[1, 2])
        assert dense_weights(load_model(good), SMALL)[:, 1:3].tolist() == [[1.0, 1.0]] * 3
        extra = {} if columns is None else {"columns": columns}
        path = tmp_path / "model.npz"
        _write_raw_model(path, np.ones((3, width)), np.zeros(3), MODEL_META, **extra)
        with pytest.raises(DataError):
            load_model(path)

    @pytest.mark.parametrize("meta", [MODEL_META_V1, MODEL_META], ids=["v1", "v2"])
    def test_load_reads_no_member_beyond_the_model(self, tmp_path, monkeypatch, small, meta):
        path = tmp_path / "model.npz"
        columns = {"columns": [1, 2]} if meta is MODEL_META else {}
        width = 2 if columns else 2**10
        _write_raw_model(path, np.ones((3, width)), np.zeros(3), meta, **columns, big=np.zeros(9))
        read = []
        getitem = np.lib.npyio.NpzFile.__getitem__
        monkeypatch.setattr(
            np.lib.npyio.NpzFile, "__getitem__", lambda self, key: read.append(key) or getitem(self, key)
        )
        if columns:
            load_model(path)
            assert sorted(read) == ["bias", "columns", "meta", "weights"]
        else:  # a v1 file is refused once its meta is read
            with pytest.raises(DataError, match="train-selector"):
                load_model(path)
            assert read == ["meta"]

    def test_save_writes_exactly_the_given_path(self, tmp_path, small):
        model = SelectorModel.zeros(3, "v1")
        path = tmp_path / "model.bin"
        save_model(model, path)
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
        assert np.array_equal(dense_weights(load_model(path), SMALL), dense_weights(model, SMALL))

    def test_load_rejects_other_files(self, tmp_path):
        path = tmp_path / "model.npz"
        np.savez(path, x=np.zeros(3))
        with pytest.raises(DataError):
            load_model(path)

    @pytest.mark.parametrize(
        "write",
        [
            _save_npy,
            lambda path: path.write_bytes(b"PK\x03\x04 not a zip"),
            lambda path: path.write_bytes(path.read_bytes()[:100]),
        ],
        ids=["npy", "zip-magic-only", "truncated"],
    )
    def test_load_rejects_files_that_are_not_npz_archives(self, tmp_path, write):
        path = tmp_path / "model.npz"
        save_model(SelectorModel.zeros(3, "v1"), path)
        write(path)
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_model(path)

    @pytest.mark.parametrize(
        "weights, bias, meta",
        [
            (np.zeros((3, 2)), np.zeros(3), _meta_without("feature_config")),
            (np.zeros((3, 2)), np.zeros(3), _meta_without("library_version")),
            (np.zeros((3, 2)), np.zeros(3), {**MODEL_META, "feature_config": "1024"}),
            (np.zeros((3, 2)), np.zeros(3), {**MODEL_META, "feature_config": {"dimension": 2**10}}),
            (np.zeros((3, 2)), np.zeros(3), ["patternqr-selector-v2"]),
            (np.zeros((3, 2**10 + 1)), np.zeros(3), MODEL_META),
            (np.zeros(2), np.zeros(1), MODEL_META),
            (np.zeros((3, 2)), np.zeros(4), MODEL_META),
            (np.zeros((3, 2)), np.zeros((3, 1)), MODEL_META),
            (np.full((3, 2), "w"), np.zeros(3), MODEL_META),
        ],
        ids=[
            "no-feature-config",
            "no-library-version",
            "feature-config-not-object",
            "feature-config-incomplete",
            "meta-not-object",
            "width-not-dimension",
            "weights-not-2d",
            "bias-length",
            "bias-not-1d",
            "weights-not-numbers",
        ],
    )
    def test_load_rejects_malformed_models(self, tmp_path, small, weights, bias, meta):
        _write_raw_model(tmp_path / "good.npz", np.zeros((3, 2)), np.zeros(3), MODEL_META,
                         columns=[1, 2])
        assert load_model(tmp_path / "good.npz").num_patterns == 3
        path = tmp_path / "model.npz"
        _write_raw_model(path, weights, bias, meta, columns=np.arange(weights.shape[-1]))
        with pytest.raises(DataError):
            load_model(path)

    @pytest.mark.parametrize(
        "columns, weights, bias, message",
        [
            ([7, 3], [[5, 1], [0, 2]], [0, 0], "columns must ascend strictly within [0, 16)"),
            ([3, 3], [[5, 1], [0, 2]], [0, 0], "columns must ascend strictly"),
            ([-1, 3], [[5, 1], [0, 2]], [0, 0], "columns must ascend strictly"),
            ([3, 16], [[5, 1], [0, 2]], [0, 0], "columns must ascend strictly"),
            ([3.0, 7.0], [[5, 1], [0, 2]], [0, 0], "columns must be a 1-D integer array"),
            ([[3, 7]], [[5, 1], [0, 2]], [0, 0], "columns must be a 1-D integer array"),
            ([3, 7], [5, 1], [0, 0], "lack 2 columns"),
            ([3, 7], [[5, 1, 0], [0, 2, 0]], [0, 0], "lack 2 columns"),
            ([3, 7], [[5, 1], [0, 2]], [0], "does not fit weights"),
        ],
        ids=["descending", "repeated", "negative", "beyond-dimension", "float", "2-d",
             "weights-1-d", "weights-wider", "bias-length"],
    )
    def test_a_model_checks_its_own_layout(self, monkeypatch, columns, weights, bias, message):
        # Listed as [7, 3], the weights of [3, 7] used to predict [0.5, 0.5] for
        # feature 7 rather than [0.27, 0.73], and saved to a file that would not load.
        monkeypatch.setattr(selector, "DIMENSION", 16)
        ascending = SelectorModel(np.array([[5.0, 1.0], [0.0, 2.0]]), np.zeros(2), "v",
                                  np.array([3, 7]))
        fv = FeatureVector(np.array([7]), np.array([1.0]))
        assert _predict(ascending, fv).probs.round(2).tolist() == [0.27, 0.73]
        with pytest.raises(DataError, match=re.escape(message)):
            SelectorModel(np.array(weights, float), np.array(bias, float), "v", np.array(columns))

    @pytest.mark.parametrize(
        "change",
        [
            {"dimension": 0},
            {"dimension": 2**64},
            {"ngram_orders": [1, 0]},
            {"ngram_orders": [1, 3]},
            {"snippet_token_cap": -1},
            {"snippet_token_cap": 32},
            {"hash_seed": -1},
            {"hash_seed": 1},
            {"hash_seed": 2**64},
            {"dimension": 2**18},
            {"dimension": float(SMALL)},
            {"dimension": str(SMALL)},
            {"ngram_orders": [1.0, 2]},
            {"ngram_orders": [True, 2]},
            {"snippet_token_cap": 64.0},
            {"hash_seed": False},
            {"bias": 0},
        ],
        ids=["dimension-0", "dimension-2**64", "order-0", "orders-1-3", "cap-negative", "cap-32",
             "seed-negative", "seed-1", "seed-2**64", "dimension-other", "dimension-float",
             "dimension-string", "order-float", "order-true", "cap-float", "seed-false",
             "extra-key"],
    )
    def test_load_rejects_feature_configs_out_of_range(self, tmp_path, small, change):
        # No columns, so no other check sees the dimension.
        meta = {**MODEL_META, "feature_config": {**MODEL_META["feature_config"], **change}}
        path, no_columns = tmp_path / "model.npz", np.zeros(0, np.int64)
        _write_raw_model(path, np.ones((3, 0)), np.zeros(3), MODEL_META, columns=no_columns)
        assert load_model(path).num_patterns == 3
        _write_raw_model(path, np.ones((3, 0)), np.zeros(3), meta, columns=no_columns)
        message = f"{path}: malformed selector model meta: the features must be "
        with pytest.raises(DataError, match=re.escape(message)):
            load_model(path)

    def test_a_model_of_another_dimension_is_refused(self, tmp_path):
        # Trained with `train-selector --dimension 1024`, which is gone.
        path = tmp_path / "model.npz"
        _write_raw_model(path, np.ones((3, 2)), np.zeros(3), MODEL_META, columns=[1, 2])
        message = (f"{path}: malformed selector model meta: the features must be "
                   "{'dimension': 262144, 'ngram_orders': [1, 2], 'snippet_token_cap': 64, "
                   "'hash_seed': 0}, got {'dimension': 1024, ")
        with pytest.raises(DataError, match=re.escape(message)):
            load_model(path)

    def test_failed_save_leaves_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.npz"
        path.write_bytes(b"previous model")

        def write_half_then_fail(handle, **arrays):
            handle.write(b"PK partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_model(SelectorModel.zeros(3, "v1"), path)
        assert path.read_bytes() == b"previous model"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]

    def test_failed_loss_curve_write_leaves_previous_file(self, tmp_path, half_write_text):
        path = tmp_path / "loss.csv"
        path.write_bytes(b"previous curve")
        with pytest.raises(OSError, match="disk full"):
            write_loss_curve([2.3, 1.1, 0.4], path, config_hash="cafe01")
        assert path.read_bytes() == b"previous curve"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["loss.csv"]


class TestSelectorInterfaces:
    def test_model_selector_checks_library_version(self):
        model = SelectorModel.zeros(3, "other-version")
        with pytest.raises(ConfigError):
            ModelSelector(model, _library(3))

    def test_model_selector_refuses_a_model_that_predicts_nan(self):
        model = SelectorModel.zeros(3, "test-3")
        model.bias[:] = np.nan
        with pytest.raises(DataError, match="must be finite"):
            ModelSelector(model, _library(3)).choose("minimum wage", EMPTY_CONTEXT)

    def test_model_selector_checks_class_count(self):
        model = SelectorModel.zeros(4, "test-3")
        with pytest.raises(ConfigError):
            ModelSelector(model, _library(3))

    def test_prompt_selector_resolves_name(self, seed_library, mock_gateway_factory):
        gateway = mock_gateway_factory(fallback="Location Specification")
        chooser = PromptSelector(gateway, seed_library)
        picked = chooser.choose("minimum wage", _context(["wage info passage"]))
        assert picked == seed_library.resolve_name("Location Specification")

    def test_prompt_selector_reads_a_name_as_label_does(self, seed_library):
        # Label and select share one name parser: a trailing period costs no re-ask.
        sent = []

        class Backend(MockBackend):
            def send(self, request):
                sent.append(request)
                return super().send(request)

        gateway = Gateway(Backend(MockScript(fallback="Clarify Intent.")), model="m")
        picked = PromptSelector(gateway, seed_library).choose("minimum wage", EMPTY_CONTEXT)
        assert picked == seed_library.resolve_name("Clarify Intent")
        assert len(sent) == 1

    def test_prompt_selector_with_one_pattern_makes_no_call(self):
        sent = []

        class Backend(MockBackend):
            def send(self, request):
                sent.append(request)
                return super().send(request)

        gateway = Gateway(Backend(MockScript(fallback="Nonsense")), model="m")
        chooser = PromptSelector(gateway, _library(1))
        assert chooser.choose("minimum wage", _context(["wage info passage"])) == 0
        assert chooser.choose("minimum wage", EMPTY_CONTEXT) == 0
        assert sent == []

    def test_prompt_selector_bad_name_twice_errors(self, seed_library, mock_gateway_factory):
        gateway = mock_gateway_factory(fallback="Nonsense")
        chooser = PromptSelector(gateway, seed_library)
        with pytest.raises(DataError):
            chooser.choose("minimum wage", EMPTY_CONTEXT)
