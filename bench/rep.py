"""One repetition of one workload part, in the fresh interpreter run.py starts for it.

    python3 bench/rep.py --part {bm25,rm3,rocchio,reformer,learn} --dir WORKDIR
        [--spans FILE] [--verify-seed N] [--base-url URL]

A part is one pipeline mode of `prf` (bm25, rm3, rocchio), or one stage of
`reformer`: the offline learning stage (`learn`) or the `reformer` pipeline.
Needs `src/` on PYTHONPATH and the workload's generated inputs in WORKDIR.
Prints one JSON object as its last stdout line: set-up time, the timed
operations (wall and CPU time of each), peak RSS, artifact digests and the
failures its own checks found. With `--spans` the layers are traced and the
spans written to FILE. With `--verify-seed` it re-scores a seeded sample of
queries afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import sys
import time
from pathlib import Path

import patternqr
from patternqr import index as ix
from patternqr import induction, pipeline, selector
from patternqr.errors import PatternQRError
from patternqr.gateway import GatewayConfig

import layers
from gen import MODEL
from spans import Recorder

BASELINE_MODES = ("bm25", "rm3", "rocchio")
SCORE_TOLERANCE = 1e-9
VERIFY_QUERIES = 2
LEARN_BATCH_SIZE = 50


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digests(result) -> dict[str, list[str]]:
    """Raw and normalized digest of each artifact of a pipeline run.

    The normalized digest masks the config hash, which covers every config
    field (the stub's port among them); what it hashes is the ranking, the
    reformulations and the metrics.
    """
    digests = {}
    for path in (result.run_path, result.log_path, result.report_path):
        if path is not None:
            data = Path(path).read_bytes()
            masked = data.replace(result.config_hash.encode("ascii"), b"<config_hash>")
            digests[Path(path).name] = [sha256(data), sha256(masked)]
    return digests


def setup_index(out=None):
    """read_corpus_tsv + build_index; with `out`, records the build's peak-RSS growth."""
    docs = ix.read_corpus_tsv("corpus.tsv")
    before = peak_rss_mb()
    index = ix.build_index(docs)
    if out is not None:
        out.extra["index.build.rss_mb"] = peak_rss_mb() - before
    return index


class Outcome:
    """What one repetition reports back to run.py."""

    def __init__(self):
        self.setup_s: float | None = None
        self.setup_cpu_s: float | None = None
        self.ops = 0
        self.ops_s = 0.0
        self.ops_cpu_s = 0.0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, list[str]] = {}
        self.extra: dict[str, float] = {}

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        self.errors.append(message)


def pipeline_config(mode: str, base_url: str | None) -> pipeline.PipelineConfig:
    common = dict(corpus="corpus.tsv", queries="queries.tsv", qrels="qrels.txt", out_dir="out")
    if mode == "reformer":
        return pipeline.PipelineConfig(
            mode=mode,
            selector_model="selector.npz",
            gateway=GatewayConfig(base_url=base_url, model=MODEL),
            **common,
        )
    return pipeline.PipelineConfig(mode=mode, k_eval=layers.K_EVAL, **common)


def run_mode(out: Outcome, mode: str, base_url) -> None:
    """Timed part of `prf` and `reformer`: one run_pipeline call."""
    num_queries = len(ix.read_queries_tsv("queries.tsv"))
    start, cpu = time.perf_counter(), time.process_time()
    try:
        result = pipeline.run_pipeline(pipeline_config(mode, base_url))
    except PatternQRError as exc:
        out.fail(num_queries, f"{mode}: {type(exc).__name__}: {exc}")
        result = None
    out.ops_s, out.ops_cpu_s = time.perf_counter() - start, time.process_time() - cpu
    out.ops = num_queries
    if result is not None:
        out.digests.update(artifact_digests(result))


def verify_rankings(out: Outcome, mode: str, seed: int, base_url) -> None:
    """Re-rank a seeded sample of queries and check the run file and bm25_score.

    Each sampled query's top-k must match its run-file lines, and every
    returned score must equal bm25_score within SCORE_TOLERANCE.
    """
    index = setup_index()
    queries = ix.read_queries_tsv("queries.tsv")
    sample = random.Random(seed).sample(queries, VERIFY_QUERIES)
    config = pipeline_config(mode, base_url)
    run_lines = {}
    for line in Path("out", f"{mode}.run").read_text(encoding="utf-8").splitlines():
        query_id, _, doc_id, _, score, _ = line.split()
        run_lines.setdefault(query_id, []).append((doc_id, score))
    hybrids = {}
    if mode == "reformer":
        log = Path("out", "reformer.reformulations.jsonl")
        for record in patternqr.generator.read_reformulation_log(log):
            hybrids[record.query_id] = record.hybrid_query
    for query_id, text in sample:
        if mode == "rm3":
            terms = patternqr.rm3_expand(
                index, text, config.fb_docs, config.fb_terms, config.orig_weight
            ).terms
        elif mode == "rocchio":
            terms = patternqr.rocchio_expand(
                index, text, config.fb_docs, config.fb_terms, config.alpha, config.beta
            ).terms
        elif mode == "reformer":
            terms = ix.query_term_weights(hybrids.get(query_id, ""))
        else:
            terms = ix.query_term_weights(text)
        entries = ix.retrieve_topk(index, terms, config.k_eval).entries
        expected = [(e.doc_id, f"{e.score:.6f}") for e in entries]
        bad = [
            e.doc_id
            for e in entries
            if abs(e.score - ix.bm25_score(index, terms, index.ordinal(e.doc_id))) > SCORE_TOLERANCE
        ]
        if expected != run_lines.get(query_id, []) or bad:
            out.fail(1, f"{mode} {query_id}: ranking differs from the run file or from "
                        f"bm25_score on {bad[:3]}")


def baseline(args, out: Outcome) -> None:
    # The three modes index the same corpus, so prf's set-up is timed once per
    # turn, in its bm25 repetition.
    if args.part == "bm25":
        start, cpu = time.perf_counter(), time.process_time()
        index = setup_index(out)
        out.setup_s, out.setup_cpu_s = time.perf_counter() - start, time.process_time() - cpu
        del index
    run_mode(out, args.part, None)


def reformer(args, out: Outcome) -> None:
    start, cpu = time.perf_counter(), time.process_time()
    index = setup_index(out)
    library = induction.default_library()
    model = selector.load_model("selector.npz")
    out.setup_s, out.setup_cpu_s = time.perf_counter() - start, time.process_time() - cpu
    del index, library, model
    run_mode(out, "reformer", args.base_url)


def learn(args, out: Outcome) -> None:
    """induce -> label -> context retrieval -> train_selector -> save_model.

    The index build and ingest_pairs before it are untimed: `reformer`'s
    set-up time is taken in its pipeline part, which serves the queries.
    """
    index = setup_index(out)
    pairs = induction.ingest_pairs("pairs.tsv")

    start, cpu = time.perf_counter(), time.process_time()
    gateway = GatewayConfig(mock_script="mock.json", model=MODEL).build(jitter_seed=0)
    try:
        library = induction.induce_patterns(pairs, gateway, batch_size=LEARN_BATCH_SIZE)
        labels = induction.label_pairs(pairs, library, gateway)
        examples = [
            (
                pair.query,
                ix.retrieve_topk(index, pair.query, layers.K_CONTEXT, query_id=pair.pair_id),
                label.pattern_id,
            )
            for pair, label in zip(pairs, labels)
        ]
        model, history = selector.train_selector(examples, library)
        selector.save_model(model, "selector.out.npz")
    except PatternQRError as exc:
        out.ops_s, out.ops_cpu_s = time.perf_counter() - start, time.process_time() - cpu
        out.ops = len(pairs)
        out.fail(len(pairs), f"learn: {type(exc).__name__}: {exc}")
        return
    out.ops_s, out.ops_cpu_s = time.perf_counter() - start, time.process_time() - cpu
    out.ops = len(pairs)

    if library.names != [p.name for p in induction.default_library().patterns]:
        out.fail(len(pairs), f"learn: induced library names {library.names} are not the seed names")
    expected_lines = Path("labels.expected.tsv").read_text(encoding="utf-8").splitlines()
    expected = dict(line.split("\t") for line in expected_lines)
    wrong = [lb.pair_id for lb in labels if expected.get(lb.pair_id) != str(lb.pattern_id)]
    if wrong:
        out.fail(len(wrong), f"learn: {len(wrong)} labels differ from the script: {wrong[:3]}")
    if not history[-1] < math.log(10):
        out.fail(len(pairs), f"learn: final loss {history[-1]} is not below ln 10")
    reloaded = selector.load_model("selector.out.npz")
    if weights_digest(reloaded) != weights_digest(model):
        out.fail(len(pairs), "learn: the saved model reloads with different weights")
    out.digests["learn.weights"] = [weights_digest(model)] * 2


def weights_digest(model) -> str:
    return sha256(model.weights.tobytes() + model.bias.tobytes())


def measure_index_io(out: Outcome) -> None:
    """Save/load timings of the `prf` corpus's index (traced runs only)."""
    index = setup_index()
    start = time.perf_counter()
    ix.save_index(index, "index.json")
    out.extra["index.save.s"] = time.perf_counter() - start
    out.extra["index.file_mb"] = os.path.getsize("index.json") / 1e6
    del index
    start = time.perf_counter()
    ix.load_index("index.json")
    out.extra["index.load.s"] = time.perf_counter() - start


PARTS = {
    "bm25": baseline,
    "rm3": baseline,
    "rocchio": baseline,
    "reformer": reformer,
    "learn": learn,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--part", required=True, choices=sorted(PARTS))
    parser.add_argument("--dir", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--verify-seed", type=int)
    parser.add_argument("--base-url")
    args = parser.parse_args(argv)
    os.chdir(args.dir)

    out = Outcome()
    recorder = Recorder() if args.spans else None
    if recorder is not None:
        layers.install(recorder, patternqr)
    try:
        PARTS[args.part](args, out)
    finally:
        if recorder is not None:
            recorder.restore()
    out.extra["peak_rss_mb"] = peak_rss_mb()
    if recorder is not None:
        Path(args.spans).write_text(json.dumps(recorder.dump()), encoding="utf-8")
        if args.part in BASELINE_MODES:
            measure_index_io(out)
    if args.verify_seed is not None and args.part != "learn":
        verify_rankings(out, args.part, args.verify_seed, args.base_url)
    print(json.dumps(vars(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
