import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_train_dense
from patternqr.errors import ConfigError, DataError
from patternqr.index import ContextEntry, RetrievalContext
from patternqr.induction import PatternLibrary, ReformulationPattern, default_library
from patternqr.selector import (
    FeatureConfig,
    FeatureVector,
    ModelSelector,
    PatternDistribution,
    PromptSelector,
    SelectorModel,
    TrainConfig,
    featurize,
    load_model,
    loss_and_gradient,
    predict_distribution,
    predict_from_vector,
    select_pattern,
    save_model,
    train_selector,
    write_loss_curve,
)


def _context(snippets, query_id="q"):
    entries = tuple(
        ContextEntry(f"d{i}", 1.0 - 0.1 * i, snippet) for i, snippet in enumerate(snippets)
    )
    return RetrievalContext(query_id=query_id, entries=entries, k=max(len(entries), 1))


EMPTY_CONTEXT = RetrievalContext(query_id="q", entries=(), k=0)
SMALL = FeatureConfig(dimension=2**10)


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


class TestFeaturize:
    def test_empty_inputs_give_empty_vector(self):
        fv = featurize("", EMPTY_CONTEXT, SMALL)
        assert fv.indices.size == 0 and fv.values.size == 0

    def test_deterministic(self):
        ctx = _context(["alpha beta gamma"])
        a = featurize("bank rates", ctx, SMALL)
        b = featurize("bank rates", ctx, SMALL)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)

    def test_query_only_without_context(self):
        with_ctx = featurize("bank rates", _context(["x y z"]), SMALL)
        without = featurize("bank rates", EMPTY_CONTEXT, SMALL)
        assert without.indices.size > 0
        assert set(without.indices) <= set(with_ctx.indices)
        assert with_ctx.indices.size > without.indices.size

    def test_counts_accumulate(self):
        fv = featurize("cat cat", EMPTY_CONTEXT, SMALL)
        # unigram "cat" occurs twice, bigram "cat cat" once
        assert sorted(fv.values.tolist()) == [1.0, 2.0]

    def test_indices_sorted_unique_in_range(self):
        fv = featurize("a b c d e f g", _context(["h i j k"]), SMALL)
        assert np.all(np.diff(fv.indices) > 0)
        assert fv.indices.min() >= 0 and fv.indices.max() < SMALL.dimension

    def test_hash_seed_changes_layout(self):
        a = featurize("bank rates", EMPTY_CONTEXT, SMALL)
        b = featurize("bank rates", EMPTY_CONTEXT, FeatureConfig(dimension=2**10, hash_seed=1))
        assert not np.array_equal(a.indices, b.indices)

    def test_snippet_cap_applies(self):
        long_snippet = " ".join(f"w{i}" for i in range(100))
        capped = FeatureConfig(dimension=2**10, snippet_token_cap=3)
        fv_capped = featurize("", _context([long_snippet]), capped)
        fv_full = featurize("", _context([long_snippet]), SMALL)
        assert fv_capped.indices.size < fv_full.indices.size


def _random_vectors(rng, n, dimension):
    vectors = []
    for _ in range(n):
        size = rng.integers(0, 6)
        indices = np.sort(rng.choice(dimension, size=size, replace=False)).astype(np.int64)
        values = rng.uniform(0.5, 3.0, size=size)
        vectors.append(FeatureVector(indices=indices, values=values, dimension=dimension))
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
        hyper = TrainConfig(feature_config=FeatureConfig(dimension=2**14), seed=0)
        model, history = train_selector(train, library, hyper)
        assert history[-1] < 0.1 * math.log(len(library))
        hits = sum(
            1
            for q, ctx, lbl in held_out
            if select_pattern(predict_distribution(model, q, ctx)) == lbl
        )
        assert hits / len(held_out) >= 0.95

    def test_same_seed_identical_weights(self):
        library = _library(3)
        examples = separable_examples(library, per_class=10, seed=5)
        hyper = TrainConfig(epochs=3, feature_config=SMALL, seed=11)
        model_a, hist_a = train_selector(examples, library, hyper)
        model_b, hist_b = train_selector(examples, library, hyper)
        assert np.array_equal(model_a.weights, model_b.weights)
        assert np.array_equal(model_a.bias, model_b.bias)
        assert hist_a == hist_b

    def test_one_step_on_single_example_decreases_its_loss(self):
        library = _library(3)
        example = [("key1 some words", _context(["ctx words"]), 1)]
        hyper = TrainConfig(
            epochs=1, learning_rate=0.01, decay=0.0, l2=0.0, feature_config=SMALL
        )
        model, history = train_selector(example, library, hyper)
        assert history[0] < math.log(3)

    def test_one_full_batch_step_applies_the_checked_gradient(self):
        library = _library(4)
        examples = separable_examples(library, per_class=6, seed=6)[:21]  # unbalanced labels
        hyper = TrainConfig(
            epochs=1,
            learning_rate=0.3,
            decay=0.0,
            l2=1e-3,
            batch_size=len(examples),
            feature_config=SMALL,
        )
        model, _ = train_selector(examples, library, hyper)
        vectors = [featurize(q, ctx, SMALL) for q, ctx, _ in examples]
        labels = np.array([lbl for _, _, lbl in examples])
        m = len(library)
        _, grad_w, grad_b = loss_and_gradient(
            np.zeros((m, SMALL.dimension)), np.zeros(m), vectors, labels, hyper.l2
        )
        assert np.any(grad_w != 0.0) and np.all(grad_b != 0.0)
        # Relative to the largest entry: the batch sums in shuffled order, so
        # entries that cancel to zero in one order may leave ~1e-18 in the other.
        for trained, grad in ((model.weights, grad_w), (model.bias, grad_b)):
            expected = -hyper.learning_rate * grad
            assert np.abs(trained - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize(
        "library, per_class, empty, hyper",
        [
            # the acceptance-3 fixture: 1000 examples, 20 epochs, 2^18 columns
            (default_library(), 100, 0, TrainConfig(epochs=20, seed=0)),
            # batches of 7, some holding empty feature vectors
            (
                _library(3),
                5,
                3,
                TrainConfig(epochs=5, batch_size=7, l2=1e-3, feature_config=SMALL),
            ),
        ],
        ids=["acceptance-3", "empty-vectors"],
    )
    def test_matches_the_dense_reference(self, library, per_class, empty, hyper):
        data = separable_examples(library, per_class=per_class, seed=1)
        data[3:3] = [("", EMPTY_CONTEXT, label % len(library)) for label in range(empty)]
        model, history = train_selector(data, library, hyper)
        vectors = [featurize(q, ctx, hyper.feature_config) for q, ctx, _ in data]
        assert sum(fv.indices.size == 0 for fv in vectors) == empty
        weights, bias, expected = oracle_train_dense(
            [(fv.indices, fv.values) for fv in vectors],
            np.array([lbl for _, _, lbl in data]),
            len(library),
            hyper.feature_config.dimension,
            hyper.epochs,
            hyper.learning_rate,
            hyper.decay,
            hyper.l2,
            hyper.batch_size,
            hyper.seed,
        )
        assert np.array_equal(model.weights, weights)
        assert np.array_equal(model.bias, bias)
        assert history == expected

    def test_label_out_of_range_names_example(self):
        library = _library(2)
        with pytest.raises(DataError, match="bad query"):
            train_selector([("bad query", EMPTY_CONTEXT, 5)], library, TrainConfig())

    def test_empty_training_set_rejected(self):
        with pytest.raises(DataError):
            train_selector([], _library(2), TrainConfig())

    def test_loss_history_one_entry_per_epoch(self):
        library = _library(2)
        examples = separable_examples(library, per_class=5, seed=3)
        hyper = TrainConfig(epochs=7, feature_config=SMALL)
        _, history = train_selector(examples, library, hyper)
        assert len(history) == 7


class TestPrediction:
    def test_zero_model_is_uniform(self):
        model = SelectorModel.zeros(10, SMALL, "v")
        dist = predict_distribution(model, "anything", EMPTY_CONTEXT)
        assert np.allclose(dist.probs, 0.1, atol=1e-12)

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(3)
        model = SelectorModel.zeros(4, SMALL, "v")
        model.weights[:, :] = rng.normal(size=model.weights.shape)
        fv = featurize("bank rates today", EMPTY_CONTEXT, SMALL)
        base = predict_from_vector(model, fv)
        model.bias += 5.0  # constant on every logit
        shifted = predict_from_vector(model, fv)
        assert np.allclose(base.probs, shifted.probs, atol=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_probabilities_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        model = SelectorModel.zeros(5, SMALL, "v")
        model.weights[:, :] = rng.normal(scale=2.0, size=model.weights.shape)
        model.bias[:] = rng.normal(scale=2.0, size=5)
        fv = _random_vectors(rng, 1, SMALL.dimension)[0]
        dist = predict_from_vector(model, fv)
        assert abs(dist.probs.sum() - 1.0) <= 1e-9
        assert np.all(dist.probs >= 0.0)

    def test_scaling_features_with_inverse_weights_keeps_ordering(self):
        rng = np.random.default_rng(8)
        model = SelectorModel.zeros(4, SMALL, "v")
        model.weights[:, :] = rng.normal(size=model.weights.shape)
        fv = _random_vectors(rng, 1, SMALL.dimension)[0]
        c = 3.7
        scaled_fv = FeatureVector(fv.indices, fv.values * c, fv.dimension)
        scaled_model = SelectorModel(model.weights / c, model.bias, SMALL, "v")
        a = predict_from_vector(model, fv).probs
        b = predict_from_vector(scaled_model, scaled_fv).probs
        assert np.array_equal(np.argsort(a), np.argsort(b))

    def test_dimension_mismatch_rejected(self):
        model = SelectorModel.zeros(3, SMALL, "v")
        fv = FeatureVector(np.array([0]), np.array([1.0]), dimension=2**12)
        with pytest.raises(ConfigError):
            predict_from_vector(model, fv)


class TestSelectPattern:
    def test_argmax(self):
        dist = PatternDistribution(np.array([0.1, 0.7, 0.2]))
        assert select_pattern(dist) == 1

    def test_uniform_tie_breaks_to_lowest_id(self):
        dist = PatternDistribution(np.full(10, 0.1))
        assert select_pattern(dist) == 0

    def test_seeded_sampling_is_deterministic(self):
        dist = PatternDistribution(np.array([0.2, 0.3, 0.5]))
        a = select_pattern(dist, mode="sample", seed=123)
        b = select_pattern(dist, mode="sample", seed=123)
        assert a == b

    def test_sample_without_seed_rejected(self):
        with pytest.raises(ConfigError):
            select_pattern(PatternDistribution(np.array([1.0])), mode="sample")


MODEL_META = {
    "format": "patternqr-selector-v1",
    "config_hash": "",
    "feature_config": SMALL.to_dict(),
    "library_version": "v1",
}


def _meta_without(key):
    return {k: v for k, v in MODEL_META.items() if k != key}


def _write_raw_model(path, weights, bias, meta):
    with open(path, "wb") as handle:
        np.savez(handle, weights=weights, bias=bias, meta=np.array(json.dumps(meta)))


class TestModelPersistence:
    def test_round_trip_predictions_bit_exact(self, tmp_path):
        library = _library(3)
        examples = separable_examples(library, per_class=10, seed=4)
        hyper = TrainConfig(epochs=2, feature_config=SMALL)
        model, _ = train_selector(examples, library, hyper)
        path = tmp_path / "model.npz"
        save_model(model, path, config_hash="cafe01")
        loaded = load_model(path)
        assert loaded.library_version == model.library_version
        for query, ctx, _ in examples[:5]:
            a = predict_distribution(model, query, ctx).probs
            b = predict_distribution(loaded, query, ctx).probs
            assert np.array_equal(a, b)

    def test_save_writes_exactly_the_given_path(self, tmp_path):
        model = SelectorModel.zeros(3, SMALL, "v1")
        path = tmp_path / "model.bin"
        save_model(model, path)
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
        assert np.array_equal(load_model(path).weights, model.weights)

    def test_load_rejects_other_files(self, tmp_path):
        path = tmp_path / "model.npz"
        np.savez(path, x=np.zeros(3))
        with pytest.raises(DataError):
            load_model(path)

    @pytest.mark.parametrize(
        "weights, bias, meta",
        [
            (np.zeros((3, 2**10)), np.zeros(3), _meta_without("feature_config")),
            (np.zeros((3, 2**10)), np.zeros(3), _meta_without("library_version")),
            (np.zeros((3, 2**10)), np.zeros(3), {**MODEL_META, "feature_config": "1024"}),
            (
                np.zeros((3, 2**10)),
                np.zeros(3),
                {**MODEL_META, "feature_config": {"dimension": 2**10}},
            ),
            (np.zeros((3, 2**10)), np.zeros(3), ["patternqr-selector-v1"]),
            (np.zeros((10, 16)), np.zeros(10), MODEL_META),
            (np.zeros(2**10), np.zeros(1), MODEL_META),
            (np.zeros((3, 2**10)), np.zeros(4), MODEL_META),
            (np.zeros((3, 2**10)), np.zeros((3, 1)), MODEL_META),
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
        ],
    )
    def test_load_rejects_malformed_models(self, tmp_path, weights, bias, meta):
        _write_raw_model(tmp_path / "good.npz", np.zeros((3, 2**10)), np.zeros(3), MODEL_META)
        assert load_model(tmp_path / "good.npz").num_patterns == 3
        path = tmp_path / "model.npz"
        _write_raw_model(path, weights, bias, meta)
        with pytest.raises(DataError):
            load_model(path)

    def test_failed_save_leaves_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.npz"
        path.write_bytes(b"previous model")

        def write_half_then_fail(handle, **arrays):
            handle.write(b"PK partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_model(SelectorModel.zeros(3, SMALL, "v1"), path)
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
        model = SelectorModel.zeros(3, SMALL, "other-version")
        with pytest.raises(ConfigError):
            ModelSelector(model, _library(3))

    def test_model_selector_checks_class_count(self):
        model = SelectorModel.zeros(4, SMALL, "test-3")
        with pytest.raises(ConfigError):
            ModelSelector(model, _library(3))

    def test_prompt_selector_resolves_name(self, seed_library, mock_gateway_factory):
        gateway = mock_gateway_factory(fallback="Location Specification")
        chooser = PromptSelector(gateway, seed_library)
        picked = chooser.choose("minimum wage", _context(["wage info passage"]))
        assert picked == seed_library.resolve_name("Location Specification")
        dist = chooser.distribution("minimum wage", _context(["wage info passage"]))
        assert dist.probs[picked] == 1.0

    def test_prompt_selector_bad_name_twice_errors(self, seed_library, mock_gateway_factory):
        gateway = mock_gateway_factory(fallback="Nonsense")
        chooser = PromptSelector(gateway, seed_library)
        with pytest.raises(DataError):
            chooser.choose("minimum wage", EMPTY_CONTEXT)
