"""Independent brute-force references used to check the library.

Everything here is written straight from the definitions and stays
deliberately naive: score every document, walk every rank. No imports from
patternqr so the two paths cannot share a bug.
"""

from __future__ import annotations

import hashlib
import math
from typing import NamedTuple

import numpy as np


def oracle_tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    current: list[str] = []
    for ch in text.lower():
        if ch.isalnum() and ch != "_":
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return tokens


def oracle_postings(docs: list[str]) -> dict[str, list[tuple[int, int]]]:
    """Each term's ascending (ordinal, tf) pairs, terms in order of first
    occurrence across the documents taken in order."""
    token_lists = [oracle_tokenize(text) for text in docs]
    terms: list[str] = []
    for tokens in token_lists:
        for token in tokens:
            if token not in terms:
                terms.append(token)
    postings = {}
    for term in terms:
        postings[term] = [
            (ordinal, tokens.count(term))
            for ordinal, tokens in enumerate(token_lists)
            if term in tokens
        ]
    return postings


def oracle_index_arrays(docs: list[str]) -> dict:
    """An index's `terms`, `stream`, `offsets`, `ordinals` and `tfs`, derived the
    way the build did before it sorted in place: terms numbered in order of first
    occurrence, then one `np.unique` over the (term id, ordinal) keys of the stream."""
    token_lists = [oracle_tokenize(text) for text in docs]
    term_id: dict[str, int] = {}
    stream = [term_id.setdefault(token, len(term_id)) for tokens in token_lists for token in tokens]
    num_docs = len(docs)
    keys = np.array(stream, dtype=np.int64) * num_docs + np.repeat(
        np.arange(num_docs, dtype=np.int64), [len(tokens) for tokens in token_lists]
    )
    keys, tfs = np.unique(keys, return_counts=True)
    posting_terms, ordinals = np.divmod(keys, max(num_docs, 1))
    return {
        "terms": list(term_id),
        "stream": np.array(stream, dtype=np.int32),
        "offsets": np.searchsorted(posting_terms, np.arange(len(term_id) + 1)).astype(np.int64),
        "ordinals": ordinals.astype(np.int32),
        "tfs": tfs.astype(np.int32),
    }

def oracle_featurize(
    query: str,
    snippets: list[str],
    dimension: int,
    ngram_orders: tuple[int, ...],
    snippet_token_cap: int,
    hash_seed: int,
) -> dict[int, float]:
    """Hashed n-gram counts: every occurrence of "q:<gram>" or "d:<gram>" hashes
    on its own (blake2b-64, salted with the seed) and adds 1.0 to its bucket."""
    counts: dict[int, float] = {}
    texts = [("q", oracle_tokenize(query))]
    texts += [("d", oracle_tokenize(s)[:snippet_token_cap]) for s in snippets]
    for namespace, tokens in texts:
        for order in ngram_orders:
            for i in range(len(tokens) - order + 1):
                key = namespace + ":" + " ".join(tokens[i : i + order])
                digest = hashlib.blake2b(
                    key.encode("utf-8"), digest_size=8, salt=hash_seed.to_bytes(8, "little")
                ).digest()
                bucket = int.from_bytes(digest, "little") % dimension
                counts[bucket] = counts.get(bucket, 0.0) + 1.0
    return counts


def oracle_bm25_all(
    docs: dict[str, str], query_weights: dict[str, float], k1: float = 0.9, b: float = 0.4
) -> dict[str, float]:
    """Score every document for the weighted query by the BM25 formula."""
    token_lists = {doc_id: oracle_tokenize(text) for doc_id, text in docs.items()}
    n = len(docs)
    lengths = {doc_id: len(toks) for doc_id, toks in token_lists.items()}
    avgdl = sum(lengths.values()) / n if n else 0.0
    counts = {
        doc_id: {t: toks.count(t) for t in set(toks)} for doc_id, toks in token_lists.items()
    }
    df = {}
    for per_doc in counts.values():
        for term in per_doc:
            df[term] = df.get(term, 0) + 1

    scores = {}
    for doc_id in docs:
        score = 0.0
        length = lengths[doc_id]
        norm = 1.0 - b + b * length / avgdl if avgdl > 0 else 1.0
        for term in sorted(query_weights):
            weight = query_weights[term]
            tf = counts[doc_id].get(term, 0)
            if tf == 0 or weight == 0.0:
                continue
            idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
            score += weight * idf * tf * (k1 + 1.0) / (tf + k1 * norm)
        scores[doc_id] = score
    return scores


def oracle_rank(scores: dict[str, float], k: int) -> list[tuple[str, float]]:
    """Positive scores only, score descending, doc_id ascending on ties, top k."""
    positive = [(doc_id, s) for doc_id, s in scores.items() if s > 0.0]
    positive.sort(key=lambda pair: (-pair[1], pair[0]))
    return positive[:k]


class Ranking(NamedTuple):
    """One query's ranking: the fields of patternqr's run type, built without it."""

    doc_ids: tuple[str, ...]
    scores: tuple[float, ...]
    tag: str


def run_from_rankings(rankings: dict[str, list[tuple[str, float]]], tag: str) -> dict:
    """A run (query id -> Ranking) from per-query (doc_id, score) lists in rank order."""
    return {
        query_id: Ranking(tuple(d for d, _ in ranked), tuple(s for _, s in ranked), tag)
        for query_id, ranked in rankings.items()
    }


def oracle_run_text(run: dict[str, tuple]) -> str:
    """A TREC run file written one line at a time from per-query
    (doc_ids, scores, tag) rankings: queries in ascending id order, ranks
    counted from 1, each score printed at 6 decimals, one newline after
    every line."""
    text = ""
    for query_id in sorted(run):
        doc_ids, scores, tag = run[query_id]
        for i in range(len(doc_ids)):
            rank = i + 1
            score = format(scores[i], ".6f")
            text += query_id + " Q0 " + doc_ids[i] + " " + str(rank) + " " + score + " " + tag
            text += "\n"
    return text


def oracle_ndcg(ranked: list[str], judgments: dict[str, int], k: int) -> float:
    dcg = 0.0
    for i in range(min(k, len(ranked))):
        grade = judgments.get(ranked[i], 0)
        dcg += (2.0**grade - 1.0) / math.log2(i + 2)
    ideal = sorted(judgments.values(), reverse=True)
    idcg = 0.0
    for i in range(min(k, len(ideal))):
        idcg += (2.0 ** ideal[i] - 1.0) / math.log2(i + 2)
    return dcg / idcg if idcg > 0 else 0.0


def oracle_average_precision(
    ranked: list[str], judgments: dict[str, int], k: int, binarize_at: int
) -> float:
    relevant = {d for d, g in judgments.items() if g >= binarize_at}
    if not relevant:
        return 0.0
    hits = 0
    total = 0.0
    for i in range(min(k, len(ranked))):
        if ranked[i] in relevant:
            hits += 1
            total += hits / (i + 1)
    return total / len(relevant)


def oracle_recall(
    ranked: list[str], judgments: dict[str, int], k: int, binarize_at: int
) -> float:
    relevant = {d for d, g in judgments.items() if g >= binarize_at}
    if not relevant:
        return 0.0
    return sum(1 for d in ranked[:k] if d in relevant) / len(relevant)


def loss_and_gradient(
    cross_entropy, weights: np.ndarray, bias: np.ndarray, vectors, labels: np.ndarray, l2: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy + l2*||weights||^2 with its exact gradient.

    `cross_entropy(weights_t, bias, vectors, labels)` is the selector's kernel,
    passed in: it gives the summed cross-entropy and each vector's softmax minus
    its label's one-hot, from the weights transposed to one row per feature. The
    gradient is built here from those rows, one dense outer product per vector.
    """
    n = len(vectors)
    total, deltas = cross_entropy(np.ascontiguousarray(weights.T), bias, vectors, labels)
    grad_w = np.zeros_like(weights)
    for fv, delta in zip(vectors, deltas):
        grad_w[:, fv.indices] += np.outer(delta, fv.values)
    loss = total / n + l2 * float((weights**2).sum())
    grad_w = grad_w / n + 2.0 * l2 * weights
    grad_b = deltas.sum(axis=0) / n
    return loss, grad_w, grad_b


def dense_weights(model) -> np.ndarray:
    """A selector model's full (M, F) weight matrix: its `weights` scattered into
    zeros at its `columns`."""
    dense = np.zeros((model.weights.shape[0], model.feature_config.dimension))
    dense[:, model.columns] = model.weights
    return dense


def oracle_train_dense(
    vectors: list[tuple[np.ndarray, np.ndarray]],
    labels: np.ndarray,
    num_classes: int,
    dimension: int,
    epochs: int,
    learning_rate: float,
    decay: float,
    l2: float,
    batch_size: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Mini-batch descent on mean cross-entropy + l2*||W||^2 over the full (M, F) matrix.

    `vectors` holds each example's sorted feature indices and their values.
    Every step rescales all of W for the L2 term; shuffling, step sizes and
    the order of the floating-point operations are those of the selector's
    trainer, so the results must agree bit for bit.
    """
    weights = np.zeros((num_classes, dimension))
    bias = np.zeros(num_classes)

    def cross_entropy(batch):
        total = 0.0
        deltas = []
        for i in batch:
            indices, values = vectors[i]
            logits = weights[:, indices] @ values + bias if indices.size else bias.copy()
            shifted = logits - logits.max()
            exp = np.exp(shifted)
            z = exp.sum()
            total -= shifted[labels[i]] - np.log(z)
            delta = exp / z
            delta[labels[i]] -= 1.0
            deltas.append(delta)
        return total, deltas

    active = np.unique(np.concatenate([indices for indices, _ in vectors]))
    rng = np.random.default_rng(seed)
    step = 0
    history = []
    for _ in range(epochs):
        order = rng.permutation(len(vectors))
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            eta = learning_rate / (1.0 + step * decay)
            _, deltas = cross_entropy(batch)
            bias_grad = sum(deltas, np.zeros_like(bias))
            weights *= 1.0 - 2.0 * l2 * eta
            for i, delta in zip(batch, deltas):
                indices, values = vectors[i]
                if indices.size:
                    weights[:, indices] -= (eta / len(batch)) * np.outer(delta, values)
            bias -= (eta / len(batch)) * bias_grad
            step += 1
        total, _ = cross_entropy(range(len(vectors)))
        # The columns any vector activates, ascending, as a C-ordered (active, M)
        # block: the order in which the trainer sums the squares.
        flat = np.ascontiguousarray(weights[:, active].T).ravel()
        history.append(total / len(vectors) + l2 * float(np.dot(flat, flat)))
    return weights, bias, history
