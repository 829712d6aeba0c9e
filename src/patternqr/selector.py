"""Context-aware pattern selector.

Featurizes (query, retrieval context) with seeded hashed word n-grams and
trains a multinomial logistic regression on induced pattern labels via
mini-batch gradient descent. The objective is the mean cross-entropy of the
label under the softmax distribution plus an L2 penalty on the weights, so
training is convex and gradients are exactly checkable.

A prompt-only selector (LLM picks a name from the pattern menu) sits behind
the same choose interface.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from pathlib import Path

import numpy as np

from .artifacts import atomic_savez, read_npz, write_text
from .errors import ConfigError, DataError
from .gateway import ChatMessage, ChatRequest, Gateway, ask
from .index import SNIPPET_TOKENS, RetrievalContext, _Snippets, tokenize
from .induction import PatternLibrary

# The features of every model: a model file names them, and `load_model` refuses others.
DIMENSION = 2**18
NGRAM_ORDERS = (1, 2)
HASH_SEED = 0
MODEL_FORMAT = "patternqr-selector-v2"
# Pairs `_featurize_all` codes and counts at once: its temporaries grow with this.
_FEATURIZE_CHUNK = 25

SELECT_SYSTEM = (
    "You choose how a search query should be rewritten. Given a query, "
    "snippets of its top retrieved documents, and a list of named "
    "reformulation patterns, answer with exactly one pattern name from the "
    "list and nothing else."
)


def _layout() -> dict:
    """The features as a model file's meta names them."""
    return {"dimension": DIMENSION, "ngram_orders": list(NGRAM_ORDERS),
            "snippet_token_cap": SNIPPET_TOKENS, "hash_seed": HASH_SEED}


@dataclass(frozen=True)
class FeatureVector:
    indices: np.ndarray  # sorted unique ints in [0, DIMENSION)
    values: np.ndarray  # positive floats, aligned with indices


@dataclass(frozen=True)
class PatternDistribution:
    probs: np.ndarray

    def __post_init__(self):
        if self.probs.ndim != 1:
            raise DataError("distribution must be one-dimensional")
        if not np.all((self.probs >= 0.0) & (self.probs <= 1.0)):  # False for NaN
            raise DataError("probabilities must be finite and lie in [0, 1]")
        if abs(float(self.probs.sum()) - 1.0) > 1e-9:
            raise DataError(f"probabilities sum to {self.probs.sum()}, not 1")


def featurize(query: str, context: RetrievalContext) -> FeatureVector:
    """Hashed word n-grams: query terms under "q:", snippet terms under "d:", each
    snippet cut at `SNIPPET_TOKENS` tokens."""
    return _featurize_all([(query, context)])[0]


def _featurize_all(pairs: list[tuple[str, RetrievalContext]]) -> list[FeatureVector]:
    """`featurize` of each (query, context) pair, `_FEATURIZE_CHUNK` pairs at a time.

    Every token is numbered in one vocabulary of the call: a string's from
    `tokenize`, an index snippet's (`_Snippets`) from its term ids, not joined and
    tokenized again. An n-gram is one code, its namespace and then its ids in
    base len(vocab), the same in every chunk. Only the codes that no earlier chunk
    hashed get their key built and hashed, so each distinct key is hashed once.
    """
    vocab = defaultdict(count().__next__)
    texts, spaces, owners = [], [], []
    for pair, (query, context) in enumerate(pairs):
        snippets = context.snippets
        cut = snippets.terms() if isinstance(snippets, _Snippets) else [
            tokenize(snippet)[:SNIPPET_TOKENS] for snippet in snippets]
        for space, text in enumerate([tokenize(query), *cut]):
            texts.append(np.fromiter(map(vocab.__getitem__, text), np.int32, len(text)))
            spaces.append(min(space, 1))  # 0 for "q:", 1 for "d:"
            owners.append(pair)
    # A code is below 2 * base**2 <= 2**63: the int32 token ids number at most 2**31 tokens.
    base, words = max(len(vocab), 1), np.array(list(vocab), dtype=object)
    salted = hashlib.blake2b(digest_size=8, salt=HASH_SEED.to_bytes(8, "little"))
    # Per order: runs of the codes hashed so far, each ascending, with their buckets. A new
    # run absorbs the last one while that one's size has no more binary digits than its own.
    runs = {order: [] for order in NGRAM_ORDERS}
    vectors = []
    for lo in range(0, len(pairs), _FEATURIZE_CHUNK):
        hi = min(lo + _FEATURIZE_CHUNK, len(pairs))
        t0, t1 = bisect_left(owners, lo), bisect_left(owners, hi)  # the chunk's texts
        lengths = [text.size for text in texts[t0:t1]]
        tokens = np.concatenate([np.empty(0, np.int32), *texts[t0:t1]])
        # Per position: the tokens left in its text, its namespace and its pair in the chunk.
        left = np.repeat(np.cumsum(lengths), lengths) - np.arange(tokens.size)
        space, owner = np.repeat(spaces[t0:t1], lengths), np.repeat(owners[t0:t1], lengths) - lo
        buckets, owned = [np.empty(0, np.int64)], [np.empty(0, np.int64)]  # per n-gram
        for order in NGRAM_ORDERS:
            starts = np.flatnonzero(left >= order)
            codes = space[starts].astype(np.int64)
            for j in range(order):
                codes = codes * base + tokens[starts + j]
            distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
            bucket = np.full(distinct.size, -1)
            for known, known_buckets in runs[order]:
                at = np.searchsorted(known, distinct).clip(max=known.size - 1)
                hit = known[at] == distinct
                bucket[hit] = known_buckets[at[hit]]
            fresh = np.flatnonzero(bucket < 0)
            at = starts[first[fresh]]  # a first occurrence of each code builds its key
            grams = np.array(["q:", "d:"], dtype=object)[space[at]] + words[tokens[at]]
            for j in range(1, order):
                grams = grams + " " + words[tokens[at + j]]
            digests = bytearray()
            for gram in grams.tolist():
                h = salted.copy()
                h.update(gram.encode("utf-8"))
                digests += h.digest()
            bucket[fresh] = np.frombuffer(digests, "<u8") % np.uint64(DIMENSION)
            run = (distinct[fresh], bucket[fresh])
            while runs[order] and runs[order][-1][0].size.bit_length() <= run[0].size.bit_length():
                known, known_buckets = runs[order].pop()
                at = np.searchsorted(known, run[0])
                run = (np.insert(known, at, run[0]), np.insert(known_buckets, at, run[1]))
            if run[0].size:
                runs[order].append(run)
            buckets.append(bucket[inverse])
            owned.append(owner[starts])
        # One key per n-gram: its pair within the chunk, then its bucket's rank.
        found, rank = np.unique(np.concatenate(buckets), return_inverse=True)
        keys, counts = np.unique(np.concatenate(owned) * found.size + rank, return_counts=True)
        # The chunk's vectors are views of one array of indices and one of values.
        indices, values = found[keys % found.size], counts.astype(np.float64)
        ends = np.searchsorted(keys, np.arange(hi - lo + 1) * found.size)
        vectors += [FeatureVector(indices[a:b], values[a:b]) for a, b in zip(ends[:-1], ends[1:])]
    return vectors


@dataclass
class SelectorModel:
    """Multinomial logistic regression over hashed features.

    `weights[:, j]` holds the weights of feature `columns[j]` (ascending ids);
    every feature outside `columns` has +0.0 weights. `train_selector` and
    `load_model` keep only the columns a model file stores. A layout that does
    not fit together is a DataError.
    """

    weights: np.ndarray  # (M, len(columns))
    bias: np.ndarray  # (M,)
    library_version: str
    columns: np.ndarray  # ascending feature ids

    def __post_init__(self):
        columns, weights = self.columns, self.weights
        if columns.ndim != 1 or not np.issubdtype(columns.dtype, np.integer):
            raise DataError(f"columns must be a 1-D integer array, got {columns.dtype}")
        if columns.size and (
            columns[0] < 0 or columns[-1] >= DIMENSION or np.any(columns[1:] <= columns[:-1])
        ):
            raise DataError(f"columns must ascend strictly within [0, {DIMENSION})")
        if weights.ndim != 2 or weights.shape[1] != columns.size:
            raise DataError(f"weights {weights.shape} lack {columns.size} columns")
        if self.bias.shape != weights.shape[:1]:
            raise DataError(f"bias {self.bias.shape} does not fit weights {weights.shape}")

    @property
    def num_patterns(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def zeros(cls, num_patterns: int, library_version: str):
        """The all-zero model: no columns, so every feature's weights are +0.0."""
        weights, bias = np.zeros((num_patterns, 0)), np.zeros(num_patterns)
        return cls(weights, bias, library_version, np.zeros(0, np.int64))


def _feature_rows(model: SelectorModel, indices: np.ndarray) -> np.ndarray:
    """The (k, M) block `weights[:, indices].T` of the model's full matrix: a zero
    row for a feature outside its `columns`."""
    positions = np.searchsorted(model.columns, indices)
    known = positions < model.columns.size
    known[known] = model.columns[positions[known]] == indices[known]
    rows = np.zeros((indices.size, model.num_patterns), dtype=np.float64)
    rows[known] = model.weights[:, positions[known]].T
    return rows


def _softmax_rows(
    weights_t: np.ndarray, bias: np.ndarray, vectors: list[FeatureVector]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each vector's pattern logits as one row, shifted by the row's max, with the
    row-wise softmax and log-partition. `weights_t` is C-ordered, one row per
    feature: `take(indices, axis=0).T` is the F-ordered (M, k) block that
    `weights[:, indices]` gives, so each row is the same gemv on the same numbers."""
    logits = np.zeros((len(vectors), bias.size))
    for row, fv in zip(logits, vectors):
        row[:] = weights_t.take(fv.indices, axis=0).T @ fv.values
    logits += bias
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    z = exp.sum(axis=1, keepdims=True)
    return shifted, exp / z, np.log(z[:, 0])


def _cross_entropy(
    weights_t: np.ndarray, bias: np.ndarray, vectors: list[FeatureVector], labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Summed cross-entropy of the labels, and each row's softmax minus its label's one-hot."""
    shifted, deltas, log_z = _softmax_rows(weights_t, bias, vectors)
    rows = np.arange(len(vectors))
    total = 0.0
    for term in (shifted[rows, labels] - log_z).tolist():  # summed in example order
        total -= term
    deltas[rows, labels] -= 1.0
    return total, deltas


def predict_distribution(
    model: SelectorModel, query: str, context: RetrievalContext
) -> PatternDistribution:
    """Softmax over pattern logits for (query, context)."""
    fv = featurize(query, context)
    # Gather the vector's own rows, and renumber its features to match.
    local = FeatureVector(np.arange(fv.indices.size), fv.values)
    _, probs, _ = _softmax_rows(_feature_rows(model, fv.indices), model.bias, [local])
    return PatternDistribution(probs=probs[0])


def select_pattern(distribution: PatternDistribution) -> int:
    """The most probable pattern; the lowest id wins a tie."""
    return int(np.argmax(distribution.probs))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 0.1
    decay: float = 1e-3
    l2: float = 1e-5
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported as a diverged loss
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

    vectors = _featurize_all([(query, context) for query, context, _ in examples])
    labels = np.array([lbl for _, _, lbl in examples], dtype=np.int64)

    # A column no example activates starts at +0.0 and stays exactly +0.0 under
    # the L2 scaling, so the steps run on the active columns alone: every
    # weight gets the same operations as on the full matrix. They are stored
    # transposed, one contiguous row of M weights per active feature, so a
    # vector's gather and scatter move whole rows.
    active = np.unique(np.concatenate([fv.indices for fv in vectors]))
    compact = [FeatureVector(np.searchsorted(active, fv.indices), fv.values) for fv in vectors]
    weights_t = np.zeros((active.size, m), dtype=np.float64)
    bias = np.zeros(m, dtype=np.float64)
    # The loss history's L2 term is one dot product over the active block, in
    # its (active, M) C order: a view, so no full (M, F) matrix is ever made.
    flat = weights_t.ravel()
    rng = np.random.default_rng(hyper.seed)
    step = 0
    history: list[float] = []
    for _ in range(hyper.epochs):
        order = rng.permutation(len(vectors))
        for start in range(0, len(order), hyper.batch_size):
            batch = order[start : start + hyper.batch_size]
            eta = hyper.learning_rate / (1.0 + step * hyper.decay)
            # theta -= eta * (data gradient + 2*l2*theta), in place. The deltas
            # come first, so this is the batch gradient at the pre-update weights;
            # the L2 part is one scaling, and the data part subtracts the
            # transposed outer product from each active feature's row.
            batch_vectors = [compact[i] for i in batch]
            _, deltas = _cross_entropy(weights_t, bias, batch_vectors, labels[batch])
            weights_t *= 1.0 - 2.0 * hyper.l2 * eta
            for fv, delta in zip(batch_vectors, deltas):
                update = fv.values[:, None] * delta
                update *= eta / len(batch)
                rows = weights_t.take(fv.indices, axis=0)
                rows -= update
                weights_t[fv.indices] = rows
            bias -= (eta / len(batch)) * sum(deltas, np.zeros(m))
            step += 1
        total, _ = _cross_entropy(weights_t, bias, compact, labels)
        history.append(total / len(vectors) + hyper.l2 * float(np.dot(flat, flat)))
        if not math.isfinite(history[-1]):
            raise DataError(f"training diverged: the loss of epoch {len(history) - 1} is "
                            f"{history[-1]}; lower the learning rate")
    # Keep the columns `save_model` keeps: those with any nonzero bit. One copy,
    # already in the (M, kept) C order the model holds.
    kept = weights_t.view(np.int64).any(axis=1)
    weights = weights_t.T.compress(kept, axis=1)
    return SelectorModel(weights, bias, library.version, columns=active[kept]), history


def save_model(model: SelectorModel, path: str | Path, config_hash: str = "") -> None:
    """Store the columns that hold any nonzero bit (-0.0 and NaN included) and
    their weights; every other column is +0.0."""
    meta = {
        "format": MODEL_FORMAT,
        "config_hash": config_hash,
        "feature_config": _layout(),
        "library_version": model.library_version,
    }
    weights = np.asarray(model.weights, dtype=np.float64)
    kept = weights.view(np.int64).any(axis=0)
    atomic_savez(
        Path(path),
        columns=model.columns[kept],
        weights=weights[:, kept],
        bias=model.bias,
        meta=np.array(json.dumps(meta)),
    )


def load_model(path: str | Path) -> SelectorModel:
    """Read a v2 file as it is stored, its columns and their weights. Its meta is
    read first, so an older file, which holds no columns, is refused by name."""
    members = ("columns", "weights", "bias")
    meta, arrays = read_npz(path, "selector model", MODEL_FORMAT, "train-selector", members)
    try:
        features, library_version = meta["feature_config"], meta["library_version"]
    except (KeyError, TypeError) as exc:
        raise DataError(f"{path}: malformed selector model meta: {exc!r}") from exc
    layout = _layout()
    # `repr` tells 1 from 1.0 and True, which `==` takes for it.
    if features != layout or repr(sorted(features.items())) != repr(sorted(layout.items())):
        raise DataError(f"{path}: malformed selector model meta: the features must be {layout}, "
                        f"got {features!r}")
    if not isinstance(library_version, str):
        raise DataError(f"{path}: malformed selector model meta: the library version must be "
                        f"a string, got {library_version!r}")
    try:
        weights = np.ascontiguousarray(arrays["weights"], dtype=np.float64)
        return SelectorModel(weights, arrays["bias"], library_version, columns=arrays["columns"])
    except (DataError, ValueError) as exc:  # ValueError: weights that are not numbers
        raise DataError(f"{path}: {exc}") from exc


def write_loss_curve(history: list[float], path: str | Path, config_hash: str = "") -> None:
    lines = [f"# config_hash={config_hash}", "epoch,loss"]
    lines += [f"{epoch},{loss:.10f}" for epoch, loss in enumerate(history)]
    write_text(path, "\n".join(lines) + "\n")


class ModelSelector:
    """Trained-model selection behind the common choose interface."""

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
        # Such a model would predict NaN for every pattern.
        if not (np.isfinite(model.weights).all() and np.isfinite(model.bias).all()):
            raise DataError("the model's weights and bias must be finite")
        self.model = model
        self.library = library

    def choose(self, query: str, context: RetrievalContext) -> int:
        return select_pattern(predict_distribution(self.model, query, context))


class PromptSelector:
    """LLM-prompted selection: show the pattern menu, parse one name. A one-pattern
    library needs no call."""

    def __init__(self, gateway: Gateway, library: PatternLibrary):
        self.gateway = gateway
        self.library = library

    def _request(self, query: str, context: RetrievalContext) -> ChatRequest:
        parts = [f"Patterns:\n{self.library.menu}", f"Query: {query}"]
        if context.snippets:
            snippets = "\n".join(f"- {s}" for s in context.snippets)
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

    def choose(self, query: str, context: RetrievalContext) -> int:
        if len(self.library) == 1:
            return 0
        suffix = f" Answer with exactly one of: {', '.join(self.library.names)}."
        return ask(self.gateway, self._request(query, context), self.library.resolve_name, suffix)
