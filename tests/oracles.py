"""Independent brute-force references used to check the library.

Everything here is written straight from the definitions and stays
deliberately naive: score every document, walk every rank. No imports from
patternqr so the two paths cannot share a bug.
"""

from __future__ import annotations

import math

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
        flat = weights.ravel()
        history.append(total / len(vectors) + l2 * float(np.dot(flat, flat)))
    return weights, bias, history
