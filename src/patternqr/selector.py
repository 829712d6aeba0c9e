"""Context-aware pattern selector.

Featurizes (query, retrieval context) with seeded hashed word n-grams and
trains a multinomial logistic regression on induced pattern labels via
mini-batch gradient descent. The objective is the mean cross-entropy of the
label under the softmax distribution plus an L2 penalty on the weights, so
training is convex and gradients are exactly checkable.

A prompt-only selector (LLM picks a name from the pattern menu) sits behind
the same choose/distribution interface.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .gateway import ChatMessage, ChatRequest, Gateway, reask
from .index import RetrievalContext, atomic_write, tokenize
from .induction import PatternLibrary

DEFAULT_DIMENSION = 2**18
MODEL_FORMAT = "patternqr-selector-v1"

SELECT_SYSTEM = (
    "You choose how a search query should be rewritten. Given a query, "
    "snippets of its top retrieved documents, and a list of named "
    "reformulation patterns, answer with exactly one pattern name from the "
    "list and nothing else."
)


@dataclass(frozen=True)
class FeatureConfig:
    dimension: int = DEFAULT_DIMENSION
    ngram_orders: tuple[int, ...] = (1, 2)
    snippet_token_cap: int = 64
    hash_seed: int = 0

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "ngram_orders": list(self.ngram_orders),
            "snippet_token_cap": self.snippet_token_cap,
            "hash_seed": self.hash_seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureConfig":
        return cls(
            dimension=int(d["dimension"]),
            ngram_orders=tuple(int(n) for n in d["ngram_orders"]),
            snippet_token_cap=int(d["snippet_token_cap"]),
            hash_seed=int(d["hash_seed"]),
        )


@dataclass(frozen=True)
class FeatureVector:
    indices: np.ndarray  # sorted unique ints in [0, dimension)
    values: np.ndarray  # positive floats, aligned with indices
    dimension: int


@dataclass(frozen=True)
class PatternDistribution:
    probs: np.ndarray

    def __post_init__(self):
        if self.probs.ndim != 1:
            raise DataError("distribution must be one-dimensional")
        if np.any(self.probs < 0.0) or np.any(self.probs > 1.0):
            raise DataError("probabilities must lie in [0, 1]")
        if abs(float(self.probs.sum()) - 1.0) > 1e-9:
            raise DataError(f"probabilities sum to {self.probs.sum()}, not 1")


def _stable_hash(key: str, seed: int, dimension: int) -> int:
    digest = hashlib.blake2b(
        key.encode("utf-8"), digest_size=8, salt=seed.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little") % dimension


def featurize(query: str, context: RetrievalContext, config: FeatureConfig) -> FeatureVector:
    """Hashed word n-grams: query terms under "q:", snippet terms under "d:"."""
    counts: dict[int, float] = {}

    def add(namespace: str, tokens: list[str]):
        for order in config.ngram_orders:
            for i in range(len(tokens) - order + 1):
                gram = " ".join(tokens[i : i + order])
                idx = _stable_hash(f"{namespace}:{gram}", config.hash_seed, config.dimension)
                counts[idx] = counts.get(idx, 0.0) + 1.0

    add("q", tokenize(query))
    for entry in context.entries:
        add("d", tokenize(entry.snippet)[: config.snippet_token_cap])

    if not counts:
        return FeatureVector(
            indices=np.empty(0, dtype=np.int64),
            values=np.empty(0, dtype=np.float64),
            dimension=config.dimension,
        )
    indices = np.array(sorted(counts), dtype=np.int64)
    values = np.array([counts[i] for i in indices], dtype=np.float64)
    return FeatureVector(indices=indices, values=values, dimension=config.dimension)


@dataclass
class SelectorModel:
    weights: np.ndarray  # (M, F)
    bias: np.ndarray  # (M,)
    feature_config: FeatureConfig
    library_version: str

    @property
    def num_patterns(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def zeros(cls, num_patterns: int, feature_config: FeatureConfig, library_version: str):
        return cls(
            weights=np.zeros((num_patterns, feature_config.dimension), dtype=np.float64),
            bias=np.zeros(num_patterns, dtype=np.float64),
            feature_config=feature_config,
            library_version=library_version,
        )


def _softmax(
    weights: np.ndarray, bias: np.ndarray, fv: FeatureVector
) -> tuple[np.ndarray, np.ndarray, float]:
    """One vector's pattern logits, shifted by their max, with their softmax and log-partition."""
    logits = weights[:, fv.indices] @ fv.values + bias if fv.indices.size else bias.copy()
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    z = exp.sum()
    return shifted, exp / z, np.log(z)


def _cross_entropy(
    weights: np.ndarray, bias: np.ndarray, vectors: list[FeatureVector], labels: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """Summed cross-entropy of the labels, and each vector's softmax minus its label's one-hot."""
    total = 0.0
    deltas = []
    for fv, label in zip(vectors, labels):
        shifted, delta, log_z = _softmax(weights, bias, fv)
        total -= shifted[label] - log_z
        delta[label] -= 1.0
        deltas.append(delta)
    return total, deltas


def predict_from_vector(model: SelectorModel, fv: FeatureVector) -> PatternDistribution:
    if fv.dimension != model.feature_config.dimension:
        raise ConfigError(
            f"feature vector dimension {fv.dimension} does not match model "
            f"dimension {model.feature_config.dimension}"
        )
    return PatternDistribution(probs=_softmax(model.weights, model.bias, fv)[1])


def predict_distribution(
    model: SelectorModel, query: str, context: RetrievalContext
) -> PatternDistribution:
    """Softmax over pattern logits for (query, context) under the model's features."""
    return predict_from_vector(model, featurize(query, context, model.feature_config))


def select_pattern(
    distribution: PatternDistribution, mode: str = "argmax", seed: int | None = None
) -> int:
    """Argmax (lowest-id tie-break) or a seeded categorical sample."""
    probs = distribution.probs
    if mode == "argmax":
        return int(np.argmax(probs))
    if mode == "sample":
        if seed is None:
            raise ConfigError("sample mode requires a seed")
        rng = np.random.default_rng(seed)
        return int(rng.choice(len(probs), p=probs / probs.sum()))
    raise ConfigError(f"unknown selection mode {mode!r}")


def loss_and_gradient(
    weights: np.ndarray,
    bias: np.ndarray,
    vectors: list[FeatureVector],
    labels: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy + l2*||weights||^2 with its exact gradient."""
    n = len(vectors)
    total, deltas = _cross_entropy(weights, bias, vectors, labels)
    grad_w = np.zeros_like(weights)
    grad_b = np.zeros_like(bias)
    for fv, delta in zip(vectors, deltas):
        if fv.indices.size:
            grad_w[:, fv.indices] += np.outer(delta, fv.values)
        grad_b += delta
    loss = total / n + l2 * float((weights**2).sum())
    grad_w = grad_w / n + 2.0 * l2 * weights
    grad_b /= n
    return loss, grad_w, grad_b


def selection_loss(
    weights: np.ndarray,
    bias: np.ndarray,
    vectors: list[FeatureVector],
    labels: np.ndarray,
    l2: float,
) -> float:
    """Objective value only; no gradient is accumulated."""
    total, _ = _cross_entropy(weights, bias, vectors, labels)
    return total / len(vectors) + l2 * float(np.dot(weights.ravel(), weights.ravel()))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 0.1
    decay: float = 1e-3
    l2: float = 1e-5
    batch_size: int = 32
    seed: int = 0
    feature_config: FeatureConfig = field(default_factory=FeatureConfig)


def _apply_batch(
    weights: np.ndarray,
    bias: np.ndarray,
    vectors: list[FeatureVector],
    labels: np.ndarray,
    eta: float,
    l2: float,
) -> None:
    """One in-place step of theta -= eta * (data gradient + 2*l2*theta).

    The L2 part becomes a single in-place scaling; the data part touches only
    active feature columns. Deltas are computed before either is applied, so
    this matches the batch gradient at the pre-update weights exactly.
    """
    n = len(vectors)
    _, deltas = _cross_entropy(weights, bias, vectors, labels)
    bias_grad = sum(deltas, np.zeros_like(bias))
    weights *= 1.0 - 2.0 * l2 * eta
    for fv, delta in zip(vectors, deltas):
        if fv.indices.size:
            weights[:, fv.indices] -= (eta / n) * np.outer(delta, fv.values)
    bias -= (eta / n) * bias_grad


def train_selector(
    examples: list[tuple[str, RetrievalContext, int]],
    library: PatternLibrary,
    hyper: TrainConfig = TrainConfig(),
) -> tuple[SelectorModel, list[float]]:
    """Mini-batch gradient descent on the selection loss; returns (model, loss per epoch).

    Shuffling is seeded and the learning rate follows eta_0 / (1 + t * decay)
    over update steps t, so identical data and seed reproduce identical weights.
    """
    if not examples:
        raise DataError("training set is empty")
    m = len(library)
    for query, _, label in examples:
        if not 0 <= label < m:
            raise DataError(f"label {label} out of range [0, {m}) for query {query!r}")

    config = hyper.feature_config
    vectors = [featurize(q, ctx, config) for q, ctx, _ in examples]
    labels = np.array([lbl for _, _, lbl in examples], dtype=np.int64)

    model = SelectorModel.zeros(m, config, library.version)
    # A column no example activates starts at +0.0 and stays exactly +0.0 under
    # the L2 scaling, so the steps run on the active columns alone: every
    # weight gets the same operations as on the full matrix.
    active = np.unique(np.concatenate([fv.indices for fv in vectors]))
    compact = [
        FeatureVector(np.searchsorted(active, fv.indices), fv.values, active.size)
        for fv in vectors
    ]
    weights = np.zeros((m, active.size), dtype=np.float64)
    rng = np.random.default_rng(hyper.seed)
    step = 0
    history: list[float] = []
    for _ in range(hyper.epochs):
        order = rng.permutation(len(vectors))
        for start in range(0, len(order), hyper.batch_size):
            batch = order[start : start + hyper.batch_size]
            eta = hyper.learning_rate / (1.0 + step * hyper.decay)
            batch_vectors = [compact[i] for i in batch]
            _apply_batch(weights, model.bias, batch_vectors, labels[batch], eta, hyper.l2)
            step += 1
        # The loss sums the L2 term over the full matrix, in the order it always has.
        model.weights[:, active] = weights
        history.append(selection_loss(model.weights, model.bias, vectors, labels, hyper.l2))
    return model, history


def save_model(model: SelectorModel, path: str | Path, config_hash: str = "") -> None:
    meta = {
        "format": MODEL_FORMAT,
        "config_hash": config_hash,
        "feature_config": model.feature_config.to_dict(),
        "library_version": model.library_version,
    }
    arrays = {"weights": model.weights, "bias": model.bias, "meta": np.array(json.dumps(meta))}

    def write(tmp: Path) -> None:
        # Through a handle: given a path, numpy appends ".npz" to any other suffix.
        with open(tmp, "wb") as handle:
            np.savez_compressed(handle, **arrays)

    atomic_write(Path(path), write)


def load_model(path: str | Path) -> SelectorModel:
    try:
        with np.load(path, allow_pickle=False) as bundle:
            meta = json.loads(str(bundle["meta"]))
            weights = bundle["weights"]
            bias = bundle["bias"]
    except (OSError, KeyError, ValueError) as exc:
        raise DataError(f"cannot load selector model from {path}: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("format") != MODEL_FORMAT:
        raise DataError(f"{path} is not a patternqr selector model")
    try:
        feature_config = FeatureConfig.from_dict(meta["feature_config"])
        library_version = meta["library_version"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed selector model meta: {exc!r}") from exc
    if weights.ndim != 2 or weights.shape[1] != feature_config.dimension:
        raise DataError(f"{path}: weights {weights.shape} lack {feature_config.dimension} columns")
    if bias.shape != weights.shape[:1]:
        raise DataError(f"{path}: bias {bias.shape} does not fit weights {weights.shape}")
    return SelectorModel(weights, bias, feature_config, library_version)


def write_loss_curve(history: list[float], path: str | Path, config_hash: str = "") -> None:
    lines = [f"# config_hash={config_hash}", "epoch,loss"]
    lines += [f"{epoch},{loss:.10f}" for epoch, loss in enumerate(history)]
    text = "\n".join(lines) + "\n"
    atomic_write(Path(path), lambda tmp: tmp.write_text(text, encoding="utf-8"))


class ModelSelector:
    """Trained-model selection behind the common choose/distribution interface."""

    def __init__(self, model: SelectorModel, library: PatternLibrary):
        if model.library_version != library.version:
            raise ConfigError(
                f"model was trained against library version {model.library_version!r} "
                f"but the loaded library is {library.version!r}"
            )
        if model.num_patterns != len(library):
            raise ConfigError(
                f"model has {model.num_patterns} classes but the library holds "
                f"{len(library)} patterns"
            )
        self.model = model
        self.library = library

    def distribution(self, query: str, context: RetrievalContext) -> PatternDistribution:
        return predict_distribution(self.model, query, context)

    def choose(
        self,
        query: str,
        context: RetrievalContext,
        mode: str = "argmax",
        seed: int | None = None,
    ) -> int:
        return select_pattern(self.distribution(query, context), mode=mode, seed=seed)


class PromptSelector:
    """LLM-prompted selection: show the pattern menu, parse one name."""

    def __init__(self, gateway: Gateway, library: PatternLibrary):
        self.gateway = gateway
        self.library = library

    def _request(self, query: str, context: RetrievalContext) -> ChatRequest:
        menu = "\n".join(f"- {p.name}: {p.description}" for p in self.library.patterns)
        parts = [f"Patterns:\n{menu}", f"Query: {query}"]
        if context.entries:
            snippets = "\n".join(f"- {e.snippet}" for e in context.entries)
            parts.append(f"Top retrieved passages:\n{snippets}")
        parts.append(
            "Which pattern should guide the reformulation? Answer with the pattern name only."
        )
        return ChatRequest(
            model=self.gateway.model,
            messages=(
                ChatMessage("system", SELECT_SYSTEM),
                ChatMessage("user", "\n\n".join(parts)),
            ),
        )

    def distribution(self, query: str, context: RetrievalContext) -> PatternDistribution:
        probs = np.zeros(len(self.library), dtype=np.float64)
        probs[self.choose(query, context)] = 1.0
        return PatternDistribution(probs=probs)

    def choose(
        self,
        query: str,
        context: RetrievalContext,
        mode: str = "argmax",
        seed: int | None = None,
    ) -> int:
        request = self._request(query, context)
        answer = self.gateway.complete(request).content
        try:
            return self.library.resolve_name(answer.strip().strip('"').strip("'"))
        except DataError:
            pass
        retry = reask(request, f" Answer with exactly one of: {', '.join(self.library.names)}.")
        answer = self.gateway.complete(retry).content
        return self.library.resolve_name(answer.strip().strip('"').strip("'"))
