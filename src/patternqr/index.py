"""Deterministic tokenizer, inverted index, BM25 scoring and top-k retrieval.

The index is immutable after construction and keeps its postings in CSR
arrays; every query-facing result is independent of the order documents were
inserted in (ties between equal scores break on ascending doc_id, never on
internal ordinals).
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
from collections import Counter, defaultdict
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, count, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4
DEFAULT_SNIPPET_TOKENS = 64

# Maximal runs of Unicode alphanumerics; underscore is punctuation here.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# Every non-alphanumeric ASCII character becomes a space, so on ASCII text
# str.split yields exactly the runs _TOKEN_RE finds.
_ASCII_SEPARATORS = str.maketrans({c: " " for c in map(chr, range(128)) if not c.isalnum()})


def tokenize(text: str) -> list[str]:
    """Lowercase, then take the maximal runs of `str.isalnum` characters.

    ASCII text (checked after lowercasing, which can map a non-ASCII
    character into ASCII) takes a translate-and-split path that is about
    twice as fast as the regex; the regex serves all other text, on which a
    translate table was measured slower. Both give the same tokens.
    """
    text = text.lower()
    if text.isascii():
        return text.translate(_ASCII_SEPARATORS).split()
    return _TOKEN_RE.findall(text)


def query_term_weights(query: str) -> dict[str, float]:
    """Unweighted query representation: weight of a term = its count in the query."""
    return {term: float(count) for term, count in Counter(tokenize(query)).items()}


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str

    def __post_init__(self):
        if not self.doc_id:
            raise DataError("document doc_id must be non-empty")


class RankedDoc(NamedTuple):
    doc_id: str
    score: float


@dataclass(frozen=True)
class RetrievalContext:
    """Ranked top-k documents for one query: `doc_ids`, `scores` and their
    `snippets`, aligned and in rank order, at most `k` of each."""

    query_id: str
    doc_ids: Sequence[str]
    scores: Sequence[float]
    k: int
    snippets: Sequence[str]

    def __post_init__(self):
        if not len(self.doc_ids) == len(self.scores) == len(self.snippets) <= self.k:
            raise DataError(
                f"context of {len(self.doc_ids)} doc_ids, {len(self.scores)} scores and "
                f"{len(self.snippets)} snippets with k={self.k}"
            )

    @property
    def entries(self) -> tuple[RankedDoc, ...]:
        """The (doc_id, score) pairs in rank order. Only the benchmark harness reads
        these; once it reads `doc_ids` and `scores` instead, this goes."""
        return tuple(map(RankedDoc, self.doc_ids, self.scores))


class _Snippets(Sequence):
    """The snippets of ranked documents, each cut from the index when read."""

    def __init__(self, index: InvertedIndex, ordinals: list[int], max_tokens: int):
        self._index, self._ordinals, self._max_tokens = index, ordinals, max_tokens

    def __len__(self) -> int:
        return len(self._ordinals)

    def __getitem__(self, i: int) -> str:
        return self._index.snippet(self._ordinals[i], self._max_tokens)


class InvertedIndex:
    """CSR postings with per-document lengths; built once, then read-only.

    The postings of `terms[i]` are `ordinals[offsets[i]:offsets[i + 1]]`,
    strictly ascending, with their term frequencies at the same positions of
    `tfs`. Ordinals are assigned in insertion order and never leak into
    results: scoring and tie-breaking depend only on doc_id and corpus
    statistics. `term_id` numbers the terms 0, 1, ... in its insertion order. The
    documents are one int32 term-id `stream`: each document's tokens in text
    order, one document after another, `doc_lengths` ids each.
    """

    def __init__(
        self,
        term_id: dict[str, int],
        offsets: np.ndarray,
        ordinals: np.ndarray,
        tfs: np.ndarray,
        doc_ids: list[str],
        stream: np.ndarray,
        doc_lengths: list[int],
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
    ):
        self.terms = list(term_id)
        self._term_id = term_id
        self.offsets = _frozen(offsets, np.int64)
        # Python ints: per-term lookups (idf in feedback loops) stay cheap.
        self._bounds = self.offsets.tolist()
        self.ordinals = _frozen(ordinals, np.int32)
        self.tfs = _frozen(tfs, np.int32)
        self.doc_ids = doc_ids
        self._ordinal_of = {doc_id: i for i, doc_id in enumerate(doc_ids)}
        if len(self._ordinal_of) != len(doc_ids):
            duplicate = next(d for d, n in Counter(doc_ids).items() if n > 1)
            raise DataError(f"duplicate doc_id {duplicate!r}")
        self.stream = _frozen(stream, np.int32)
        self.doc_lengths = doc_lengths
        self._starts = [0, *accumulate(doc_lengths)]
        self.num_docs = len(doc_ids)
        total = self._starts[-1]
        self.avg_doc_length = total / self.num_docs if self.num_docs > 0 else 0.0
        self.k1 = k1
        self.b = b
        # Same operations, in the same order, as the scalar BM25 formula, so
        # the vectorised scores are bit-identical to it.
        lengths = np.array(self.doc_lengths, dtype=np.float64)
        if self.avg_doc_length > 0:
            norm = (1.0 - b) + b * lengths / self.avg_doc_length
        else:
            norm = np.ones_like(lengths)
        self._norm = norm
        by_doc_id = sorted(range(self.num_docs), key=doc_ids.__getitem__)
        self._doc_id_rank = np.empty(self.num_docs, dtype=np.int64)
        self._doc_id_rank[by_doc_id] = np.arange(self.num_docs)

    def ordinal(self, doc_id: str) -> int:
        try:
            return self._ordinal_of[doc_id]
        except KeyError:
            raise DataError(f"unknown doc_id {doc_id!r}") from None

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """Read-only views of the term's ascending ordinals and their tfs (empty if unknown)."""
        i = self._term_id.get(term)
        if i is None:
            return self.ordinals[:0], self.tfs[:0]
        lo, hi = self._bounds[i], self._bounds[i + 1]
        return self.ordinals[lo:hi], self.tfs[lo:hi]

    def document_frequency(self, term: str) -> int:
        i = self._term_id.get(term)
        return 0 if i is None else self._bounds[i + 1] - self._bounds[i]

    def idf(self, term: str) -> float:
        """Smoothed, nonnegative idf: ln(1 + (N - df + 0.5) / (df + 0.5))."""
        df = self.document_frequency(term)
        return math.log(1.0 + (self.num_docs - df + 0.5) / (df + 0.5))

    def term_frequencies(self, ordinal: int) -> Counter[str]:
        """The document's term counts, terms in order of first occurrence in it."""
        return Counter(map(self.terms.__getitem__, self._token_ids(ordinal).tolist()))

    def snippet(self, ordinal: int, max_tokens: int = DEFAULT_SNIPPET_TOKENS) -> str:
        tokens = self._token_ids(ordinal)[:max_tokens].tolist()
        return " ".join(map(self.terms.__getitem__, tokens))

    def _token_ids(self, ordinal: int) -> np.ndarray:
        return self.stream[self._starts[ordinal] : self._starts[ordinal + 1]]


def _frozen(values, dtype) -> np.ndarray:
    array = np.ascontiguousarray(values, dtype=dtype)
    array.flags.writeable = False
    return array


def build_index(
    docs: Iterable[Document], k1: float = DEFAULT_K1, b: float = DEFAULT_B
) -> InvertedIndex:
    """Build an inverted index over the collection; rejects duplicate doc_ids.

    Each token is looked up once: an unseen term takes the next id, so term
    ids follow first occurrence, and the ids form the term-id stream. One
    sort of (term id, ordinal) keys over the stream groups the postings by
    term, ordinals ascending, and counts the term frequencies.
    """
    doc_ids: list[str] = []
    lengths: list[int] = []
    ids: list[int] = []
    term_id: defaultdict[str, int] = defaultdict(count().__next__)
    for doc in docs:
        doc_ids.append(doc.doc_id)
        tokens = tokenize(doc.text)
        lengths.append(len(tokens))
        ids.extend(map(term_id.__getitem__, tokens))
    # From here on an unknown term raises KeyError, as in a plain dict.
    term_id.default_factory = None
    stream = np.fromiter(ids, dtype=np.int32, count=len(ids))
    del ids  # otherwise alive, 8 bytes a token, through the sort below
    num_docs = len(doc_ids)
    keys = stream.astype(np.int64)
    keys *= num_docs
    keys += np.repeat(np.arange(num_docs, dtype=np.int64), lengths)
    keys, tfs = np.unique(keys, return_counts=True)
    posting_terms, ordinals = np.divmod(keys, max(num_docs, 1))
    offsets = np.searchsorted(posting_terms, np.arange(len(term_id) + 1))
    return InvertedIndex(term_id, offsets, ordinals, tfs, doc_ids, stream, lengths, k1=k1, b=b)


def bm25_score(
    index: InvertedIndex, query_terms: Mapping[str, float], ordinal: int
) -> float:
    """BM25 score of one document for a weighted query.

    score = sum_t w_t * idf(t) * tf*(k1+1) / (tf + k1*(1 - b + b*len/avgdl)).
    Unknown terms contribute 0.
    """
    if index.num_docs == 0:
        raise DataError("cannot score against an empty index")
    norm = float(index._norm[ordinal])
    score = 0.0
    for term in sorted(query_terms):
        weight = query_terms[term]
        ordinals, tfs = index.postings(term)
        at = int(np.searchsorted(ordinals, ordinal))
        tf = int(tfs[at]) if at < ordinals.size and ordinals[at] == ordinal else 0
        if tf == 0 or weight == 0.0:
            continue
        score += weight * index.idf(term) * tf * (index.k1 + 1.0) / (tf + index.k1 * norm)
    return score


def retrieve_topk(
    index: InvertedIndex,
    query: str | Mapping[str, float],
    k: int,
    query_id: str = "",
    snippet_tokens: int = DEFAULT_SNIPPET_TOKENS,
) -> RetrievalContext:
    """Top-k retrieval: exactly min(k, #docs with positive score) ranked documents.

    Sorted by score descending, ties broken by ascending doc_id. Accumulation
    walks query terms in sorted order, and every document receives the same
    floating-point operations in the same order as bm25_score performs, so
    scores are bit-identical to it and across document insertion orders.
    Each snippet is cut when it is read.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    weights = query_term_weights(query) if isinstance(query, str) else query
    k1 = index.k1
    scores = np.zeros(index.num_docs)
    for term in sorted(weights):
        weight = weights[term]
        if weight == 0.0:
            continue
        ordinals, tfs = index.postings(term)
        idf = index.idf(term)
        scores[ordinals] += weight * idf * tfs * (k1 + 1.0) / (tfs + k1 * index._norm[ordinals])
    hits = np.flatnonzero(scores > 0.0)
    hit_scores = scores[hits]
    if hits.size > k:
        # Keep every hit tied with the k-th best score; the sort below picks among them.
        kth = np.partition(hit_scores, hits.size - k)[hits.size - k]
        keep = hit_scores >= kth
        hits, hit_scores = hits[keep], hit_scores[keep]
    order = np.lexsort((index._doc_id_rank[hits], -hit_scores))[:k]
    ordinals = hits[order].tolist()
    doc_ids = list(map(index.doc_ids.__getitem__, ordinals))
    snippets = _Snippets(index, ordinals, snippet_tokens)
    return RetrievalContext(query_id, doc_ids, hit_scores[order].tolist(), k, snippets)


def read_corpus_tsv(path: str | Path) -> list[Document]:
    """Corpus ingestion: one `doc_id<TAB>text` document per line, UTF-8, no header."""
    docs = []
    for line_no, line in _tsv_lines(path):
        doc_id, sep, text = line.partition("\t")
        if not sep:
            raise DataError(f"{path}:{line_no}: expected doc_id<TAB>text")
        if not doc_id:
            raise DataError(f"{path}:{line_no}: empty doc_id")
        docs.append(Document(doc_id=doc_id, text=text))
    return docs


def read_queries_tsv(path: str | Path) -> list[tuple[str, str]]:
    """Queries: one `query_id<TAB>text` per line."""
    queries = []
    for line_no, line in _tsv_lines(path):
        query_id, sep, text = line.partition("\t")
        if not sep or not query_id:
            raise DataError(f"{path}:{line_no}: expected query_id<TAB>text")
        queries.append((query_id, text))
    return queries


def _tsv_lines(path: str | Path):
    """(line number, line) for each non-empty line of a UTF-8 file; an unreadable
    file is a DataError."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    for line_no, line in enumerate(raw.splitlines(), start=1):
        if line == "":
            continue
        yield line_no, line


def save_index(index: InvertedIndex, path: str | Path, config_hash: str = "") -> None:
    """Persist the index as `patternqr-index-v1` JSON, atomically.

    `config_hash` records the producing configuration. Terms are written in
    order of (first ordinal, term), the order a document-at-a-time build
    meets them in, so the bytes do not depend on how term ids were assigned.
    """
    terms, offsets, ordinals = index.terms, index.offsets.tolist(), index.ordinals.tolist()
    words, starts = np.array(terms, dtype=object)[index.stream].tolist(), index._starts
    # Tuples of ints leave the collector's tracking, so it does not walk them all again.
    pairs = list(zip(ordinals, index.tfs.tolist()))
    order = sorted(range(len(terms)), key=lambda i: (ordinals[offsets[i]], terms[i]))
    postings = {terms[i]: pairs[offsets[i] : offsets[i + 1]] for i in order}
    payload = {
        "format": "patternqr-index-v1",
        "config_hash": config_hash,
        "k1": index.k1,
        "b": index.b,
        "doc_ids": index.doc_ids,
        "doc_tokens": [words[lo:hi] for lo, hi in zip(starts, starts[1:])],
        "postings": postings,
    }
    data = json.dumps(payload)
    atomic_write(Path(path), lambda tmp: tmp.write_text(data, encoding="utf-8"))


def load_index(path: str | Path) -> InvertedIndex:
    """Read a `patternqr-index-v1` file into the arrays, taking its postings as written."""
    # The payload holds no reference cycles, but each collection while it is
    # decoded would walk all its lists again: in all, longer than the decoding.
    collecting = gc.isenabled()
    gc.disable()
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot load index from {path}: {exc}") from exc
    finally:
        if collecting:
            gc.enable()
    if not isinstance(payload, dict) or payload.get("format") != "patternqr-index-v1":
        raise DataError(f"{path} is not a patternqr index file")
    try:
        postings = payload["postings"]
        doc_ids = payload["doc_ids"]
        if not isinstance(doc_ids, list) or not all(isinstance(d, str) and d for d in doc_ids):
            raise ValueError("doc_ids must be a list of non-empty strings")
        # These raise a TypeError unless each document is a list of hashable tokens.
        doc_lengths = list(map(list.__len__, payload["doc_tokens"]))
        term_id = {term: i for i, term in enumerate(postings)}
        tokens = chain.from_iterable(payload["doc_tokens"])
        stream = np.fromiter(map(term_id.get, tokens, repeat(-1)), np.int32, sum(doc_lengths))
        lengths = np.fromiter(map(len, postings.values()), dtype=np.int64, count=len(postings))
        pairs = np.fromiter(
            chain.from_iterable(chain.from_iterable(postings.values())),
            dtype=np.int64,
            count=2 * int(lengths.sum()),
        ).reshape(-1, 2)
        k1, b = payload["k1"], payload["b"]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed index file {path}: {exc}") from exc
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    ordinals, tfs = pairs[:, 0], pairs[:, 1]
    # The kernel relies on in-range ordinals, strictly ascending within each
    # term; a document token that is not a term with postings reads as -1.
    keys = np.repeat(np.arange(len(postings), dtype=np.int64), lengths) * len(doc_ids) + ordinals
    if (
        len(doc_lengths) != len(doc_ids)
        or (stream.size and stream.min() < 0)
        or (
            ordinals.size
            and (ordinals.min() < 0 or ordinals.max() >= len(doc_ids) or np.any(np.diff(keys) <= 0))
        )
    ):
        raise DataError(f"malformed index file {path}: postings do not match the documents")
    return InvertedIndex(term_id, offsets, ordinals, tfs, doc_ids, stream, doc_lengths, k1=k1, b=b)


def atomic_write(path: Path, write_fn) -> None:
    """Write via a temp file and rename, so an aborted write leaves no partial file."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
