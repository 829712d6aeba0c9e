"""Classical pseudo-relevance feedback expanders: RM3 and positive-only Rocchio.

Both operate purely on an immutable index: first-pass BM25 retrieval supplies
the pseudo-relevant set, and the output is a weighted query scored by the same
BM25 machinery (one scorer in the whole system). Ties in feedback-term
selection break lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DataError
from .index import InvertedIndex, query_term_weights, retrieve_topk

DEFAULT_FB_DOCS = 10
DEFAULT_FB_TERMS = 10
DEFAULT_ORIG_WEIGHT = 0.5
DEFAULT_ALPHA = 1.0
DEFAULT_BETA = 0.75


@dataclass(frozen=True)
class WeightedQuery:
    terms: dict[str, float]

    def __post_init__(self):
        for term, weight in self.terms.items():
            if weight <= 0.0:
                raise DataError(f"non-positive weight {weight} for term {term!r}")


def _query_distribution(query: str) -> dict[str, float]:
    counts = query_term_weights(query)
    total = sum(counts.values())
    if total == 0:
        return {}
    return {t: c / total for t, c in counts.items()}


def _top_terms(weights: dict[str, float], n: int) -> dict[str, float]:
    """Highest-weight n terms; equal weights keep the lexicographically smaller term."""
    ranked = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
    return dict(ranked)


def rm3_expand(
    index: InvertedIndex,
    query: str,
    fb_docs: int = DEFAULT_FB_DOCS,
    fb_terms: int = DEFAULT_FB_TERMS,
    orig_weight: float = DEFAULT_ORIG_WEIGHT,
) -> WeightedQuery:
    """RM3 expansion: interpolate the query's term distribution with a feedback model.

    Feedback term distribution: P(t) proportional to
    sum over feedback docs of tf(t,d)/len(d) * normalized BM25 weight of d,
    truncated to the top fb_terms terms and renormalized. Final weights are
    orig_weight * P_query + (1 - orig_weight) * P_feedback, renormalized.
    An empty first pass returns the original query distribution unchanged.
    """
    if fb_docs < 1 or fb_terms < 1:
        raise DataError("fb_docs and fb_terms must be >= 1")
    if not 0.0 <= orig_weight <= 1.0:
        raise DataError(f"orig_weight must be in [0, 1], got {orig_weight}")
    p_query = _query_distribution(query)
    first_pass = retrieve_topk(index, query, fb_docs) if p_query else None
    if first_pass is None or not first_pass.doc_ids:
        return WeightedQuery(terms=dict(p_query))

    total_score = sum(first_pass.scores)
    p_feedback: dict[str, float] = {}
    for doc_id, score in zip(first_pass.doc_ids, first_pass.scores):
        doc_weight = score / total_score
        ordinal = index.ordinal(doc_id)
        doc_len = index.doc_lengths[ordinal]
        for term, tf in index.term_frequencies(ordinal).items():
            p_feedback[term] = p_feedback.get(term, 0.0) + doc_weight * tf / doc_len

    p_feedback = _top_terms(p_feedback, fb_terms)
    fb_mass = sum(p_feedback.values())
    p_feedback = {t: w / fb_mass for t, w in p_feedback.items()}

    mixed: dict[str, float] = {}
    for term, w in p_query.items():
        mixed[term] = mixed.get(term, 0.0) + orig_weight * w
    for term, w in p_feedback.items():
        mixed[term] = mixed.get(term, 0.0) + (1.0 - orig_weight) * w
    total = sum(mixed.values())
    terms = {t: w / total for t, w in sorted(mixed.items()) if w > 0.0}
    return WeightedQuery(terms=terms)


def rocchio_expand(
    index: InvertedIndex,
    query: str,
    fb_docs: int = DEFAULT_FB_DOCS,
    fb_terms: int = DEFAULT_FB_TERMS,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
) -> WeightedQuery:
    """Positive-only Rocchio: weight(t) = alpha*tf_query(t) + beta*centroid_tfidf(t).

    The centroid averages tf*idf vectors of the feedback documents. All query
    terms are kept; non-query terms are truncated to the top fb_terms by
    weight. No negative-feedback component (PRF has no non-relevant set).
    """
    if fb_docs < 1 or fb_terms < 1:
        raise DataError("fb_docs and fb_terms must be >= 1")
    tf_query = query_term_weights(query)
    first_pass = retrieve_topk(index, query, fb_docs) if tf_query else None
    if first_pass is None or not first_pass.doc_ids:
        return WeightedQuery(terms={t: alpha * c for t, c in tf_query.items() if alpha * c > 0.0})

    num_fb = len(first_pass.doc_ids)
    centroid: dict[str, float] = {}
    for doc_id in first_pass.doc_ids:
        ordinal = index.ordinal(doc_id)
        for term, tf in index.term_frequencies(ordinal).items():
            centroid[term] = centroid.get(term, 0.0) + tf * index.idf(term) / num_fb

    expansion = {t: w for t, w in centroid.items() if t not in tf_query}
    expansion = _top_terms(expansion, fb_terms)

    weights: dict[str, float] = {}
    for term, count in tf_query.items():
        weights[term] = alpha * count + beta * centroid.get(term, 0.0)
    for term, w in expansion.items():
        weights[term] = beta * w
    terms = {t: w for t, w in sorted(weights.items()) if w > 0.0}
    return WeightedQuery(terms=terms)
