"""Deterministic tokenizer, inverted index, BM25 scoring and top-k retrieval.

The index is immutable after construction and keeps its postings in CSR
arrays; every query-facing result is independent of the order documents were
inserted in (ties between equal scores break on ascending doc_id, never on
internal ordinals).
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, compress, count, islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .artifacts import atomic_savez, read_lines, read_npz
from .errors import DataError

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4
DEFAULT_SNIPPET_TOKENS = 64
INDEX_FORMAT = "patternqr-index-v2"

# Maximal runs of Unicode alphanumerics; underscore is punctuation here.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# Every non-alphanumeric ASCII character but "\n" becomes a space, so on ASCII
# text str.split yields exactly the runs _TOKEN_RE finds; "\n" is kept for
# build_index, which splits a block of documents joined by it.
_ASCII_SEPARATORS = str.maketrans(
    {c: " " for c in map(chr, range(128)) if not c.isalnum() and c != "\n"}
)
# Documents `build_index` reads at once; their ASCII texts are lowered and
# translated together. A block is held in several copies (joined, lowered,
# translated, split), so larger blocks raise the build's peak RSS.
_BLOCK_DOCS = 16


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


@dataclass(frozen=True, slots=True)
class Document:
    doc_id: str
    text: str

    def __post_init__(self):
        # Run files and qrels are whitespace-separated, so an id must be one field.
        if self.doc_id.split() != [self.doc_id]:
            raise DataError(f"doc_id {self.doc_id!r} must be non-empty and hold no whitespace")


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

    def terms(self, cap: int) -> list[list[str]]:
        """`tokenize(self[i])[:cap]` of each snippet, read from its term ids."""
        ids = (self._index._token_ids(o)[: self._max_tokens][:cap].tolist() for o in self._ordinals)
        return [list(map(self._index.terms.__getitem__, i)) for i in ids]


class InvertedIndex:
    """CSR postings with per-document lengths; built once, then read-only.

    The postings of `terms[i]` are `ordinals[offsets[i]:offsets[i + 1]]`,
    strictly ascending, with their term frequencies at the same positions of
    `tfs`. Ordinals are assigned in insertion order and never leak into
    results: scoring and tie-breaking depend only on doc_id and corpus
    statistics. `term_id` numbers the terms 0, 1, ... in its insertion order. The
    documents are one int32 term-id `stream` (each document's tokens in text order,
    `doc_lengths` ids each); the postings are derived from it here, and only here.
    """

    def __init__(
        self,
        term_id: dict[str, int],
        stream: np.ndarray,
        doc_lengths: list[int],
        doc_ids: list[str],
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
    ):
        self.terms = list(term_id)
        self._term_id = term_id
        self.stream = _frozen(stream, np.int32)
        self.doc_lengths = doc_lengths
        self.num_docs = num_docs = len(doc_ids)
        # One in-place sort of (term id, ordinal) keys over the stream groups the
        # postings by term, ordinals ascending; each run of equal keys is one
        # posting, and its length is the term frequency. Each temporary goes as
        # soon as it is used: beside the stream, the peak is the int64 keys, their
        # run mask and the keys of the postings, 9 bytes a token plus 8 a posting.
        keys = self.stream.astype(np.int64)
        keys *= num_docs
        keys += np.repeat(np.arange(num_docs, dtype=np.int32), doc_lengths)
        keys.sort()
        first = np.empty(keys.size, dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        starts = np.flatnonzero(first)
        del first
        tfs = np.empty(starts.size, dtype=np.int32)
        np.subtract(starts[1:], starts[:-1], out=tfs[:-1], casting="unsafe")
        tfs[-1:] = self.stream.size - starts[-1:]
        del starts
        self.tfs = _frozen(tfs, np.int32)
        bounds = np.arange(len(term_id) + 1, dtype=np.int64) * num_docs
        self.offsets = _frozen(np.searchsorted(keys, bounds), np.int64)
        # Python ints: per-term lookups (idf in feedback loops) stay cheap.
        self._bounds = self.offsets.tolist()
        keys %= max(num_docs, 1)
        self.ordinals = _frozen(keys, np.int32)
        del keys
        self.doc_ids = doc_ids
        self._ordinal_of = {doc_id: i for i, doc_id in enumerate(doc_ids)}
        if len(self._ordinal_of) != len(doc_ids):
            duplicate = next(d for d, n in Counter(doc_ids).items() if n > 1)
            raise DataError(f"duplicate doc_id {duplicate!r}")
        # Each document's first position in the stream, and one past its end.
        self._starts = np.zeros(num_docs + 1, dtype=np.int64)
        np.cumsum(doc_lengths, out=self._starts[1:])
        total = int(self._starts[-1])
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
    ids follow first occurrence, and the ids form the term-id stream that the
    constructor derives the postings from. `docs` is read once, `_BLOCK_DOCS`
    at a time, so a lazy source such as `iter_corpus_tsv` keeps no document's
    text beyond its block. A block's ASCII texts are joined by "\n", lowered
    and translated once, and split back; each other text goes through
    `tokenize`, and so does every text of a block where one holds a "\n".
    Both give `tokenize`'s tokens.
    """
    doc_ids: list[str] = []
    lengths: list[int] = []
    term_id: defaultdict[str, int] = defaultdict(count().__next__)

    def token_lists() -> Iterator[list[str]]:
        source = iter(docs)
        while block := list(islice(source, _BLOCK_DOCS)):
            doc_ids.extend(doc.doc_id for doc in block)
            texts = [doc.text for doc in block]
            # Lowered ASCII stays ASCII, so the ASCII texts are lowered and
            # translated together; any other text is tokenized on its own.
            is_ascii = list(map(str.isascii, texts))
            joined = "\n".join(compress(texts, is_ascii))
            # A text holding "\n" would split in two: then the whole block
            # is tokenized text by text.
            if joined.count("\n") == sum(is_ascii) - 1:
                parts = iter(joined.lower().translate(_ASCII_SEPARATORS).split("\n"))
                tokens = [
                    next(parts).split() if a else tokenize(text)
                    for text, a in zip(texts, is_ascii)
                ]
            else:
                tokens = list(map(tokenize, texts))
            lengths.extend(map(len, tokens))
            yield from tokens

    # Straight into an int32 array: no Python list (8 bytes an id) of the stream,
    # and no Python frame per token.
    ids = map(term_id.__getitem__, chain.from_iterable(token_lists()))
    stream = np.fromiter(ids, dtype=np.int32)
    # From here on an unknown term raises KeyError, as in a plain dict.
    term_id.default_factory = None
    return InvertedIndex(term_id, stream, lengths, doc_ids, k1=k1, b=b)


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


def iter_corpus_tsv(path: str | Path) -> Iterator[Document]:
    """Corpus ingestion: one `doc_id<TAB>text` document per line, UTF-8, no header.

    The file is opened at the first `next` and read one line at a time."""
    for line_no, line in read_lines(path):
        doc_id, sep, text = line.partition("\t")
        if not sep:
            raise DataError(f"{path}:{line_no}: expected doc_id<TAB>text")
        try:
            document = Document(doc_id=doc_id, text=text)
        except DataError as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from None
        yield document


def read_corpus_tsv(path: str | Path) -> list[Document]:
    """Every document of a corpus TSV file, as `iter_corpus_tsv` yields them."""
    return list(iter_corpus_tsv(path))


def read_queries_tsv(path: str | Path) -> list[tuple[str, str]]:
    """Queries: one `query_id<TAB>text` per line, each query id once."""
    queries: dict[str, str] = {}
    for line_no, line in read_lines(path):
        query_id, sep, text = line.partition("\t")
        if not sep or not query_id:
            raise DataError(f"{path}:{line_no}: expected query_id<TAB>text")
        if query_id.split() != [query_id]:
            raise DataError(f"{path}:{line_no}: query_id {query_id!r} holds whitespace")
        if query_id in queries:
            raise DataError(f"{path}:{line_no}: duplicate query_id {query_id!r}")
        queries[query_id] = text
    return list(queries.items())


def save_index(index: InvertedIndex, path: str | Path, config_hash: str = "") -> None:
    """Persist the index as a `patternqr-index-v2` .npz file, atomically.

    The file holds the term-id `stream` (int32), `doc_lengths` (int64) and
    `meta`, the UTF-8 bytes of a JSON object with the format, `config_hash`
    (the producing configuration), k1, b, the doc ids and the terms in id
    order. The postings are not stored: `load_index` derives them again.
    """
    meta = {"format": INDEX_FORMAT, "config_hash": config_hash, "k1": index.k1, "b": index.b,
            "doc_ids": index.doc_ids, "terms": index.terms}
    atomic_savez(
        Path(path),
        stream=index.stream,
        doc_lengths=np.array(index.doc_lengths, dtype=np.int64),
        meta=np.frombuffer(json.dumps(meta, ensure_ascii=False).encode("utf-8"), np.uint8),
    )


def load_index(path: str | Path) -> InvertedIndex:
    """Read a `patternqr-index-v2` file, check it, and build the index it holds."""
    meta, arrays = read_npz(path, "index", INDEX_FORMAT, "index", ("stream", "doc_lengths"))
    stream, doc_lengths = arrays["stream"], arrays["doc_lengths"]
    problem = _index_problem(meta, stream, doc_lengths)
    if problem:
        raise DataError(f"malformed index file {path}: {problem}")
    term_id = {term: i for i, term in enumerate(meta["terms"])}
    lengths = doc_lengths.tolist()
    return InvertedIndex(term_id, stream, lengths, meta["doc_ids"], meta["k1"], meta["b"])


def _index_problem(meta: dict, stream: np.ndarray, doc_lengths: np.ndarray) -> str | None:
    """What keeps a v2 file's contents from making an index, or None if nothing does."""
    k1, b, doc_ids, terms = map(meta.get, ("k1", "b", "doc_ids", "terms"))
    # `type(...) in` leaves bools out: JSON true is no number here.
    if type(k1) not in (int, float) or not 0.0 <= k1 < math.inf:
        return f"k1 must be a finite number >= 0, got {k1!r}"
    if type(b) not in (int, float) or not 0.0 <= b <= 1.0:
        return f"b must be a number in [0, 1], got {b!r}"
    if not _distinct_strings(doc_ids) or not all(doc_ids):
        return "doc_ids must be a list of distinct non-empty strings"
    if " ".join(doc_ids).split() != doc_ids:  # one split, not one per id, for a large index
        return f"doc_id {next(d for d in doc_ids if d.split() != [d])!r} holds whitespace"
    if not _distinct_strings(terms):
        return "terms must be a list of distinct strings"
    # Snippets are read as terms, never tokenized again: each must be its own token.
    for at in range(0, len(terms), 1 << 16):
        if tokenize(" ".join(terms[at : at + (1 << 16)])) != terms[at : at + (1 << 16)]:
            bad = next(term for term in terms[at:] if tokenize(term) != [term])
            return f"term {bad!r} is not one token as `tokenize` gives it"
    if not all(a.ndim == 1 and np.issubdtype(a.dtype, np.integer) for a in (stream, doc_lengths)):
        return "stream and doc_lengths must be 1-D integer arrays"
    if stream.size and not 0 <= stream.min() <= stream.max() < len(terms):
        return f"stream ids must lie in [0, {len(terms)})"
    if len(doc_lengths) != len(doc_ids) or np.any(doc_lengths < 0):
        return f"doc_lengths must be {len(doc_ids)} counts >= 0, one per doc id"
    if doc_lengths.sum() != stream.size:
        return f"doc_lengths sum to {doc_lengths.sum()}, not to the stream's {stream.size} ids"
    return None


def _distinct_strings(values) -> bool:
    strings = isinstance(values, list) and all(isinstance(value, str) for value in values)
    return strings and len(set(values)) == len(values)
