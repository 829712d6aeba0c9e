"""TREC-format run/qrels IO and ranking effectiveness metrics.

Metrics follow the graded-judgment conventions of the deep-learning passage
benchmarks: nDCG uses exponential gain over full grades, while AP and recall
binarize at grade >= 2 by default. Means are unweighted over every judged
query, and one the run does not rank scores 0, as in `trec_eval -c`.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple

from .artifacts import atomic_write, read_lines, write_text
from .errors import DataError

DEFAULT_NDCG_K = 10
DEFAULT_MAP_K = 1000
DEFAULT_RECALL_K = 1000
DEFAULT_BINARIZE_AT = 2


class Ranking(NamedTuple):
    """One query's ranked list: doc ids and their scores in rank order, and the run tag."""

    doc_ids: tuple[str, ...]
    scores: tuple[float, ...]
    tag: str


Run = dict[str, Ranking]  # query_id -> ranking
Qrels = dict[str, dict[str, int]]  # query_id -> doc_id -> grade


def parse_qrels(path: str | Path) -> Qrels:
    """Parse `query_id 0 doc_id grade` lines (whitespace-separated)."""
    qrels: Qrels = {}
    for line_no, fields in _split_lines(path, expected=4):
        query_id, _, doc_id, grade_text = fields
        try:
            grade = int(grade_text)
        except ValueError:
            raise DataError(f"{path}:{line_no}: bad grade {grade_text!r}") from None
        if grade < 0:
            raise DataError(f"{path}:{line_no}: negative grade {grade}")
        per_query = qrels.setdefault(query_id, {})
        if doc_id in per_query:
            raise DataError(f"{path}:{line_no}: duplicate judgment for ({query_id}, {doc_id})")
        per_query[doc_id] = grade
    return qrels


def parse_run(path: str | Path) -> Run:
    """Parse `query_id Q0 doc_id rank score tag` lines and validate per-query invariants:
    dense ranks, distinct doc ids, scores not increasing with rank, one tag."""
    grouped: dict[str, list[tuple[int, str, float, str]]] = {}
    for line_no, fields in _split_lines(path, expected=6):
        query_id, _, doc_id, rank_text, score_text, tag = fields
        try:
            line = (int(rank_text), doc_id, float(score_text), tag)
        except ValueError as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from None
        grouped.setdefault(query_id, []).append(line)
    run: Run = {}
    for query_id, lines in grouped.items():
        lines.sort(key=lambda line: line[0])
        ranks, doc_ids, scores, tags = zip(*lines)
        if ranks != tuple(range(1, len(lines) + 1)):
            raise DataError(f"{path}: query {query_id}: ranks are not dense 1..n")
        if len(set(doc_ids)) != len(doc_ids):
            raise DataError(f"{path}: query {query_id}: duplicate doc_id in ranking")
        if any(cur > prev for prev, cur in zip(scores, scores[1:])):
            raise DataError(f"{path}: query {query_id}: scores increase with rank")
        if len(set(tags)) > 1:
            raise DataError(f"{path}: query {query_id}: lines carry different tags")
        run[query_id] = Ranking(doc_ids, scores, tags[0])
    return run


def _split_lines(path: str | Path, expected: int):
    """(line number, fields) for each line that is not whitespace only."""
    for line_no, line in read_lines(path):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != expected:
            raise DataError(
                f"{path}:{line_no}: expected {expected} whitespace-separated fields, "
                f"got {len(fields)}"
            )
        yield line_no, fields


def write_run(run: Run, path: str | Path) -> None:
    """Deterministic emission: query_id ascending, rank ascending, scores at 6 decimals.
    Each query's lines are written as one block, so the whole text is never held. A
    query id, doc id or tag that is empty or holds whitespace, which would give a line
    `parse_run` cannot read, is a DataError, and no file is written."""

    def stream(tmp: Path) -> None:
        with tmp.open("w", encoding="utf-8") as handle:
            for query_id in sorted(run):
                doc_ids, scores, tag = run[query_id]
                n = len(doc_ids)
                ids = (query_id, *doc_ids, tag)
                joined = "".join(ids)  # one scan for whitespace, not one split per id
                if "" in ids or joined.split() != [joined]:
                    bad = next(field for field in ids if field.split() != [field])
                    raise DataError(f"{path}: query {query_id!r}: {bad!r} is empty or holds "
                                    "whitespace")
                # One %-format per query; the ids and tag are arguments, so a % in them is literal.
                fields = zip(repeat(query_id, n), doc_ids, range(1, n + 1), scores, repeat(tag, n))
                handle.write("%s Q0 %s %d %.6f %s\n" * n % tuple(chain.from_iterable(fields)))

    atomic_write(Path(path), stream)


def _check_cutoffs(**values: int) -> None:
    """A metric's cutoff k and relevance grade binarize_at are each at least 1."""
    for name, value in values.items():
        if value < 1:
            raise DataError(f"{name} must be >= 1, got {value}")


def ndcg_at_k(
    ranked_doc_ids: Sequence[str], judgments: dict[str, int], k: int = DEFAULT_NDCG_K
) -> float:
    """Exponential-gain nDCG over graded judgments; 0 when the query has no relevant docs."""
    _check_cutoffs(k=k)
    dcg = 0.0
    for i, doc_id in enumerate(ranked_doc_ids[:k], start=1):
        grade = judgments.get(doc_id, 0)
        dcg += (2.0**grade - 1.0) / math.log2(i + 1)
    ideal = sorted(judgments.values(), reverse=True)[:k]
    idcg = sum((2.0**g - 1.0) / math.log2(i + 1) for i, g in enumerate(ideal, start=1))
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


def average_precision_at_k(
    ranked_doc_ids: Sequence[str],
    judgments: dict[str, int],
    k: int = DEFAULT_MAP_K,
    binarize_at: int = DEFAULT_BINARIZE_AT,
) -> float:
    """AP over the top k with relevance = grade >= binarize_at; 0 when nothing is relevant."""
    _check_cutoffs(k=k, binarize_at=binarize_at)
    relevant = {d for d, g in judgments.items() if g >= binarize_at}
    if not relevant:
        return 0.0
    hits = 0
    precision_sum = 0.0
    for i, doc_id in enumerate(ranked_doc_ids[:k], start=1):
        if doc_id in relevant:
            hits += 1
            precision_sum += hits / i
    return precision_sum / len(relevant)


def recall_at_k(
    ranked_doc_ids: Sequence[str],
    judgments: dict[str, int],
    k: int = DEFAULT_RECALL_K,
    binarize_at: int = DEFAULT_BINARIZE_AT,
) -> float:
    _check_cutoffs(k=k, binarize_at=binarize_at)
    relevant = {d for d, g in judgments.items() if g >= binarize_at}
    if not relevant:
        return 0.0
    retrieved = set(ranked_doc_ids[:k])
    return len(relevant & retrieved) / len(relevant)


@dataclass(frozen=True)
class QueryMetrics:
    map: float
    ndcg10: float
    recall1k: float


@dataclass(frozen=True)
class MetricsReport:
    per_query: dict[str, QueryMetrics]
    mean_map: float
    mean_ndcg10: float
    mean_recall1k: float
    num_judged: int
    num_unjudged: int
    num_missing: int


def evaluate_run(run: Run, qrels: Qrels, binarize_at: int = DEFAULT_BINARIZE_AT) -> MetricsReport:
    """Per-query metrics for every judged query. A judged query missing from the
    run is ranked empty, so it scores 0 and still counts in the means (as
    `trec_eval -c`); run-only queries count as unjudged."""
    if not set(run) & set(qrels):
        raise DataError("no query in the run has judgments in the qrels")
    per_query: dict[str, QueryMetrics] = {}
    for query_id in sorted(qrels):
        ranked = run[query_id].doc_ids if query_id in run else ()
        judged = qrels[query_id]
        per_query[query_id] = QueryMetrics(
            map=average_precision_at_k(ranked, judged, k=DEFAULT_MAP_K, binarize_at=binarize_at),
            ndcg10=ndcg_at_k(ranked, judged, k=DEFAULT_NDCG_K),
            recall1k=recall_at_k(ranked, judged, k=DEFAULT_RECALL_K, binarize_at=binarize_at),
        )
    n = len(per_query)
    return MetricsReport(
        per_query=per_query,
        mean_map=sum(m.map for m in per_query.values()) / n,
        mean_ndcg10=sum(m.ndcg10 for m in per_query.values()) / n,
        mean_recall1k=sum(m.recall1k for m in per_query.values()) / n,
        num_judged=n,
        num_unjudged=len(set(run) - set(qrels)),
        num_missing=len(set(qrels) - set(run)),
    )


def render_report_table(report: MetricsReport) -> str:
    header = f"{'query':<16} {'mAP@1k':>10} {'nDCG@10':>10} {'Recall@1k':>10}"
    lines = [header, "-" * len(header)]
    for query_id in sorted(report.per_query):
        m = report.per_query[query_id]
        lines.append(f"{query_id:<16} {m.map:>10.4f} {m.ndcg10:>10.4f} {m.recall1k:>10.4f}")
    lines.append("-" * len(header))
    lines.append(
        f"{'mean':<16} {report.mean_map:>10.4f} {report.mean_ndcg10:>10.4f} "
        f"{report.mean_recall1k:>10.4f}"
    )
    lines.append(
        f"judged queries: {report.num_judged}, unjudged: {report.num_unjudged}, "
        f"missing: {report.num_missing}"
    )
    return "\n".join(lines)


def write_report_csv(report: MetricsReport, path: str | Path, config_hash: str = "") -> None:
    buf = io.StringIO()
    buf.write(f"# config_hash={config_hash}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["query_id", "map", "ndcg10", "recall1k"])
    for query_id in sorted(report.per_query):
        m = report.per_query[query_id]
        writer.writerow([query_id, f"{m.map:.6f}", f"{m.ndcg10:.6f}", f"{m.recall1k:.6f}"])
    writer.writerow(
        [
            "mean",
            f"{report.mean_map:.6f}",
            f"{report.mean_ndcg10:.6f}",
            f"{report.mean_recall1k:.6f}",
        ]
    )
    write_text(path, buf.getvalue())
