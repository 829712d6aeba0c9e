"""Seeded input generator for the two benchmark workloads.

`generate(workload, seed, out_dir)` writes every file a workload reads; the
program under test only ever sees these files. The same seed gives the same
bytes. Run as a script it needs `src/` on the import path, because the
`reformer` selector model and label script are produced with the program's
own public API (training and prompt fingerprints). `reformer` holds the
inputs of both of its parts: the offline learning stage reads the pairs, the
label script and the consolidation fallback; the pipeline reads the queries,
qrels and the pre-trained selector model. Both parts share one corpus.

Corpus: Zipf(1.07) over a 20k-word synthetic vocabulary, 60 tokens per doc.
A query is drawn from one source document (its grade-3 qrel): one head term
(rank < 30, standing in for the stopwords the tokenizer keeps) plus 1-4 mid
or tail terms of that document.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

VOCAB_SIZE = 20_000
ZIPF_EXPONENT = 1.07
DOC_TOKENS = 60
HEAD_RANKS = 30
MODEL = "bench-model"

# name: (docs, queries, selector training examples, training pairs)
SIZES = {
    "prf": (10_000, 30, 0, 0),
    "reformer": (5_000, 100, 200, 400),
}

_CONSONANTS = "bdfghklmnprstvz"
_SYLLABLES = [c + v for c in _CONSONANTS for v in "aeiou"]


def word(rank: int) -> str:
    """Unique lowercase word for a 0-based frequency rank (2 or 3 syllables)."""
    base = len(_SYLLABLES)
    n, width = (rank, 2) if rank < base * base else (rank - base * base, 3)
    parts = []
    for _ in range(width):
        n, digit = divmod(n, base)
        parts.append(_SYLLABLES[digit])
    return "".join(reversed(parts))


def zipf_docs(rng: np.random.Generator, num_docs: int) -> np.ndarray:
    """(num_docs, DOC_TOKENS) array of 0-based ranks."""
    weights = np.arange(1, VOCAB_SIZE + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    cdf = np.cumsum(weights / weights.sum())
    draws = np.searchsorted(cdf, rng.random(num_docs * DOC_TOKENS), side="right")
    return np.minimum(draws, VOCAB_SIZE - 1).reshape(num_docs, DOC_TOKENS)


def query_terms(rng: np.random.Generator, doc: np.ndarray, position: int) -> list[int]:
    """One head rank plus 1-4 distinct mid/tail ranks from the document, shuffled.

    The head rank nearest `position` mod HEAD_RANKS and a tail count of
    1 + `position` mod 4 give every seed the same mix of cheap and costly
    queries (retrieval cost follows the head term's document frequency).
    """
    heads = sorted({int(r) for r in doc if r < HEAD_RANKS})
    tails = sorted({int(r) for r in doc if r >= HEAD_RANKS})
    target = position % HEAD_RANKS
    terms = [min(heads, key=lambda r: (abs(r - target), r))]
    count = min(1 + position % 4, len(tails))
    terms += [tails[i] for i in rng.choice(len(tails), size=count, replace=False)]
    rng.shuffle(terms)
    return terms


def doc_id(i: int) -> str:
    return f"d{i:06d}"


def _text(ranks) -> str:
    return " ".join(word(int(r)) for r in ranks)


def _sample_queries(rng, docs, count: int, prefix: str):
    """(query_id, source doc ordinal, ranks) for `count` distinct source documents."""
    sources = rng.choice(len(docs), size=count, replace=False)
    return [
        (f"{prefix}{i:04d}", int(s), query_terms(rng, docs[s], i)) for i, s in enumerate(sources)
    ]


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def generate(workload: str, seed: int, out_dir: str | Path) -> None:
    """Write every input file of `workload` for `seed` into `out_dir`."""
    num_docs, num_queries, num_train, num_pairs = SIZES[workload]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, list(SIZES).index(workload)])

    docs = zipf_docs(rng, num_docs)
    _write_lines(out / "corpus.tsv", (f"{doc_id(i)}\t{_text(d)}" for i, d in enumerate(docs)))

    if num_queries:
        queries = _sample_queries(rng, docs, num_queries, "q")
        _write_lines(out / "queries.tsv", (f"{q}\t{_text(t)}" for q, _, t in queries))
        _write_lines(out / "qrels.txt", (f"{q} 0 {doc_id(s)} 3" for q, s, _ in queries))
    if num_train:
        _write_selector_model(rng, docs, num_train, out)
    if num_pairs:
        _write_learn_inputs(rng, docs, num_pairs, out)


def _write_selector_model(rng, docs, count: int, out: Path) -> None:
    """Train the `reformer` selector on seeded labels with the default TrainConfig."""
    from patternqr.index import Document, build_index, retrieve_topk
    from patternqr.induction import default_library
    from patternqr.selector import save_model, train_selector

    library = default_library()
    index = build_index(Document(doc_id(i), _text(d)) for i, d in enumerate(docs))
    examples = []
    for query_id, _, terms in _sample_queries(rng, docs, count, "t"):
        text = _text(terms)
        context = retrieve_topk(index, text, 3, query_id=query_id)
        examples.append((text, context, int(rng.integers(len(library)))))
    model, _ = train_selector(examples, library)
    save_model(model, out / "selector.npz")


def consolidation_payload() -> str:
    """The consolidation reply: the ten seed patterns as a library payload."""
    from patternqr.induction import default_library

    patterns = [
        {
            "name": p.name,
            "description": p.description,
            "rule": p.rule,
            "examples": [{"query": e.query, "reformulation": e.reformulation} for e in p.examples],
        }
        for p in default_library().patterns
    ]
    return json.dumps({"Consolidated Patterns": patterns})


def _write_learn_inputs(rng, docs, count: int, out: Path) -> None:
    """Pairs, a label mock script (one entry per pair, seeded labels) and the
    expected labels; the script's fallback answers every consolidation call."""
    from patternqr.gateway import fingerprint
    from patternqr.induction import (
        PatternLibrary,
        TrainingPair,
        default_library,
        render_label_prompt,
    )

    library = PatternLibrary(patterns=default_library().patterns)
    pairs, entries, expected = [], {}, []
    for pair_id, source, terms in _sample_queries(rng, docs, count, "p"):
        extra = [int(r) for r in docs[source] if r >= HEAD_RANKS and r not in terms][:3]
        pair = TrainingPair(pair_id, _text(terms), _text(terms + extra))
        label = int(rng.integers(len(library)))
        name = library.patterns[label].name
        # Every fifth answer carries the quote/period noise label parsing strips.
        answer = f'"{name}."' if len(pairs) % 5 == 4 else name
        entries[fingerprint(render_label_prompt(pair, library, model=MODEL))] = answer
        pairs.append(pair)
        expected.append(f"{pair_id}\t{label}")
    _write_lines(out / "pairs.tsv", (f"{p.pair_id}\t{p.query}\t{p.reformulation}" for p in pairs))
    _write_lines(out / "labels.expected.tsv", expected)
    script = {"entries": entries, "fallback": consolidation_payload()}
    (out / "mock.json").write_text(json.dumps(script, sort_keys=True), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
