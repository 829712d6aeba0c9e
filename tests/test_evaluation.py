import random
import re
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    oracle_average_precision,
    oracle_ndcg,
    oracle_recall,
    oracle_run_text,
    run_from_rankings,
)
from patternqr.errors import DataError
from patternqr.evaluation import (
    QueryMetrics,
    Ranking,
    average_precision_at_k,
    evaluate_run,
    ndcg_at_k,
    parse_qrels,
    parse_run,
    recall_at_k,
    render_report_table,
    write_report_csv,
    write_run,
)

# Frozen by the standalone brute-force script run before the build.
NDCG_GRADES_3_0_2 = 0.95583058934618
AP_RANKS_1_3 = 0.8333333333333333


class TestQrelsIO:
    def test_two_lines_two_judgments(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 3\nq1 0 d2 0\n", encoding="utf-8")
        qrels = parse_qrels(path)
        assert qrels == {"q1": {"d1": 3, "d2": 0}}

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 3\nq1 d2 0\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2"):
            parse_qrels(path)

    def test_negative_grade_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 -1\n", encoding="utf-8")
        with pytest.raises(DataError):
            parse_qrels(path)


    def test_blank_and_whitespace_only_lines_are_skipped_but_counted(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 3\n\n  \t \nq1 0 d2 0\n", encoding="utf-8")
        assert parse_qrels(path) == {"q1": {"d1": 3, "d2": 0}}
        path.write_text("q1 0 d1 3\n \nq1 d2 0\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"{path}:3: expected 4 whitespace-separated fields"):
            parse_qrels(path)

    def test_missing_file_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            parse_qrels(tmp_path / "nope.txt")


class TestRunIO:
    def test_write_parse_round_trip(self, tmp_path):
        run = run_from_rankings(
            {"q2": [("d1", 2.5), ("d2", 1.25)], "q1": [("d9", 0.5)]}, tag="tagx"
        )
        path = tmp_path / "run.txt"
        write_run(run, path)
        assert parse_run(path) == run

    def test_whitespace_only_lines_are_skipped(self, tmp_path):
        path = tmp_path / "a.run"
        path.write_text("q1 Q0 d1 1 2.0 t\n   \n\t\nq1 Q0 d2 2 1.0 t\n", encoding="utf-8")
        assert parse_run(path) == {"q1": Ranking(("d1", "d2"), (2.0, 1.0), "t")}

    def test_emission_order_and_precision(self, tmp_path):
        run = run_from_rankings({"q2": [("d1", 1.0)], "q1": [("d2", 0.123456789)]}, tag="t")
        path = tmp_path / "run.txt"
        write_run(run, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "q1 Q0 d2 1 0.123457 t"
        assert lines[1] == "q2 Q0 d1 1 1.000000 t"

    def test_write_holds_one_query_at_a_time(self, tmp_path):
        doc_ids = tuple(f"doc{i:06d}" for i in range(1000))
        scores = tuple(1000.0 - i for i in range(1000))
        run = {f"q{q:03d}": Ranking(doc_ids, scores, "tag") for q in range(100)}
        path = tmp_path / "run.txt"
        tracemalloc.start()
        try:
            write_run(run, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4

    @pytest.mark.parametrize(
        "query_id, doc_id, tag",
        [
            ("q 1", "d1", "t"),
            ("q1", "d 1", "t"),
            ("q1", "d1", "t x"),
            ("q1", "d\u00a01", "t"),
            ("q1", "", "t"),
            ("q1", "d1", ""),
            ("\tq1", "d1", "t"),
            ("q1", "d1", "t\n"),
        ],
        ids=["query-id", "doc-id", "tag", "doc-id-nbsp", "doc-id-empty", "tag-empty",
             "query-id-leading-tab", "tag-trailing-newline"],
    )
    def test_a_field_holding_whitespace_is_refused(self, tmp_path, query_id, doc_id, tag):
        # Its line would not have the 6 fields `parse_run` reads back.
        run = {"q0": Ranking(("d0",), (2.0,), "t"), query_id: Ranking((doc_id,), (1.0,), tag)}
        with pytest.raises(DataError, match=re.escape(f"query {query_id!r}")):
            write_run(run, tmp_path / "w.run")
        assert list(tmp_path.iterdir()) == []

    def test_duplicate_doc_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d1 2 1.0 t\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate"):
            parse_run(path)

    def test_rank_gap_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d2 3 1.0 t\n", encoding="utf-8")
        with pytest.raises(DataError, match="dense"):
            parse_run(path)

    def test_increasing_scores_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 1.0 t\nq1 Q0 d2 2 2.0 t\n", encoding="utf-8")
        with pytest.raises(DataError, match="increase"):
            parse_run(path)


    def test_mixed_tags_in_one_query_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 2.0 a\nq2 Q0 d1 1 2.0 b\nq1 Q0 d2 2 1.0 b\n", encoding="utf-8")
        with pytest.raises(DataError, match="q1: lines carry different tags"):
            parse_run(path)


# A run-file field: no whitespace or line break, ASCII or not, and it may
# hold characters that format strings treat specially.
FIELDS = st.text(alphabet="aZ09._-%{}()#Qé中ßΩ\u0301😀", min_size=1, max_size=6)
# Ties, values that round at the 6th decimal (half-way cases included), and
# arbitrary floats of either sign.
SCORES = st.one_of(
    st.sampled_from([1.0, 0.5, 2.0000005, 0.0000005, 0.1234565, 1e-7, 0.0, -0.0000004]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@st.composite
def rankings(draw):
    doc_ids = draw(st.lists(FIELDS, min_size=1, max_size=12, unique=True))
    scores = sorted(draw(st.lists(SCORES, min_size=len(doc_ids), max_size=len(doc_ids))))
    return Ranking(tuple(doc_ids), tuple(reversed(scores)), draw(FIELDS))


class TestRunFileProperties:
    @given(run=st.dictionaries(FIELDS, rankings(), max_size=4), shuffle=st.randoms())
    def test_write_matches_oracle_and_parses_back(self, tmp_path_factory, run, shuffle):
        path = tmp_path_factory.mktemp("run") / "run.txt"
        write_run(run, path)
        text = path.read_text(encoding="utf-8")
        assert text == oracle_run_text(run)
        rounded = {
            query_id: ranking._replace(scores=tuple(float(f"{s:.6f}") for s in ranking.scores))
            for query_id, ranking in run.items()
        }
        assert parse_run(path) == rounded
        lines = text.splitlines()
        shuffle.shuffle(lines)
        path.write_text("\n".join(lines), encoding="utf-8")
        assert parse_run(path) == rounded

    @given(
        qrels=st.dictionaries(
            FIELDS, st.dictionaries(FIELDS, st.integers(0, 4), min_size=1, max_size=5), max_size=4
        ),
        seed=st.integers(0, 2**32 - 1),
        separators=st.lists(st.sampled_from([" ", "\t", "  ", " \t"]), min_size=3, max_size=3),
    )
    def test_qrels_parse_back_from_any_line_order(self, tmp_path_factory, qrels, seed, separators):
        lines = [
            separators[0].join([query_id, "0"])
            + separators[1]
            + separators[2].join([doc_id, str(grade)])
            for query_id, judgments in qrels.items()
            for doc_id, grade in judgments.items()
        ]
        random.Random(seed).shuffle(lines)
        path = tmp_path_factory.mktemp("qrels") / "qrels.txt"
        path.write_text("\n\n".join(lines) + "\n", encoding="utf-8")
        assert parse_qrels(path) == qrels


class TestNdcg:
    def test_ideal_ranking_is_one(self):
        judgments = {"d1": 3, "d2": 2, "d3": 1}
        assert ndcg_at_k(["d1", "d2", "d3"], judgments) == pytest.approx(1.0)

    def test_frozen_hand_checked_case(self):
        judgments = {"a": 3, "c": 2}
        got = ndcg_at_k(["a", "b", "c"], judgments, k=10)
        assert got == pytest.approx(NDCG_GRADES_3_0_2, abs=1e-12)
        assert round(got, 4) == 0.9558

    def test_all_unjudged_is_zero(self):
        assert ndcg_at_k(["x", "y"], {"d1": 3}) == 0.0

    def test_no_relevant_docs_is_zero(self):
        assert ndcg_at_k(["d1"], {}) == 0.0

    def test_equal_grade_tie_swap_does_not_change_value(self):
        judgments = {"d1": 2, "d2": 2, "d3": 1}
        a = ndcg_at_k(["d1", "d2", "d3"], judgments)
        b = ndcg_at_k(["d2", "d1", "d3"], judgments)
        assert a == pytest.approx(b, abs=1e-12)


class TestAveragePrecision:
    def test_all_relevant_on_top(self):
        judgments = {"d1": 3, "d2": 2, "d3": 0}
        assert average_precision_at_k(["d1", "d2", "d3"], judgments) == pytest.approx(1.0)

    def test_frozen_hand_checked_case(self):
        judgments = {"a": 2, "c": 3}
        got = average_precision_at_k(["a", "b", "c"], judgments)
        assert got == pytest.approx(AP_RANKS_1_3, abs=1e-12)

    def test_no_relevant_retrieved(self):
        assert average_precision_at_k(["x"], {"d1": 3}) == 0.0

    def test_binarization_threshold(self):
        judgments = {"d1": 1}
        assert average_precision_at_k(["d1"], judgments, binarize_at=2) == 0.0
        assert average_precision_at_k(["d1"], judgments, binarize_at=1) == 1.0


class TestRecall:
    def test_full_recall(self):
        assert recall_at_k(["d1", "d2"], {"d1": 2, "d2": 3}) == 1.0

    def test_three_of_four(self):
        judgments = {f"d{i}": 2 for i in range(4)}
        assert recall_at_k(["d0", "d1", "d2", "x"], judgments) == 0.75

    def test_cutoff_bound(self):
        judgments = {f"d{i}": 2 for i in range(5)}
        ranked = [f"d{i}" for i in range(5)]
        assert recall_at_k(ranked, judgments, k=2) == pytest.approx(2 / 5)

    def test_raising_binarize_never_increases_relevant_set(self):
        judgments = {"d1": 1, "d2": 2, "d3": 3}
        ranked = ["d1", "d2", "d3"]
        r1 = recall_at_k(ranked, judgments, binarize_at=1)
        r2 = recall_at_k(ranked, judgments, binarize_at=2)
        r3 = recall_at_k(ranked, judgments, binarize_at=3)
        assert r1 >= r2 >= r3


@pytest.mark.parametrize(
    "metric, arguments",
    [
        (average_precision_at_k, {"k": 0}),
        (recall_at_k, {"k": 0}),
        (recall_at_k, {"k": -1}),
        (recall_at_k, {"binarize_at": 0}),
    ],
    ids=["map-k", "recall-k", "recall-negative-k", "recall-binarize-at"],
)
def test_a_cutoff_or_threshold_below_one_is_refused(metric, arguments):
    # A grade-0 judgment would count as relevant, and a cutoff of 0 would score 0.
    name, value = next(iter(arguments.items()))
    with pytest.raises(DataError, match=f"^{name} must be >= 1, got {value}$"):
        metric(["d1"], {"d1": 0, "d2": 2}, **arguments)


def _random_instance(rng: random.Random):
    doc_pool = [f"d{i}" for i in range(rng.randint(5, 40))]
    queries = [f"q{i}" for i in range(rng.randint(1, 6))]
    qrels = {}
    rankings = {}
    for query in queries:
        judged = rng.sample(doc_pool, rng.randint(1, len(doc_pool)))
        qrels[query] = {d: rng.randint(0, 3) for d in judged}
        depth = rng.randint(1, len(doc_pool))
        ranked_docs = rng.sample(doc_pool, depth)
        scores = sorted((rng.uniform(0, 10) for _ in range(depth)), reverse=True)
        rankings[query] = list(zip(ranked_docs, scores))
    return rankings, qrels


class TestEvaluateRun:
    def test_perfect_single_query(self):
        run = run_from_rankings({"q1": [("d1", 2.0), ("d2", 1.0)]}, tag="t")
        qrels = {"q1": {"d1": 3, "d2": 2}}
        report = evaluate_run(run, qrels)
        metrics = report.per_query["q1"]
        assert metrics == QueryMetrics(map=1.0, ndcg10=1.0, recall1k=1.0)

    def test_mean_over_judged_queries(self):
        run = run_from_rankings(
            {"q1": [("d1", 2.0)], "q2": [("x", 2.0)], "q3": [("d3", 1.0)]}, tag="t"
        )
        qrels = {"q1": {"d1": 3}, "q2": {"d2": 3}}
        report = evaluate_run(run, qrels)
        assert report.num_judged == 2
        assert report.num_unjudged == 1  # q3 has no judgments
        expected = (report.per_query["q1"].ndcg10 + report.per_query["q2"].ndcg10) / 2
        assert report.mean_ndcg10 == pytest.approx(expected)

    def test_judged_query_missing_from_the_run_scores_zero(self):
        # As `trec_eval -c`: the mean is over every judged query, and one the run
        # did not retrieve for counts as 0 on every metric.
        run = run_from_rankings({"q1": [("d1", 2.0)], "q3": [("d3", 1.0)]}, tag="t")
        qrels = {"q1": {"d1": 3}, "q2": {"d2": 3}}
        report = evaluate_run(run, qrels)
        assert (report.num_judged, report.num_missing, report.num_unjudged) == (2, 1, 1)
        assert report.per_query["q2"] == QueryMetrics(map=0.0, ndcg10=0.0, recall1k=0.0)
        assert (report.mean_map, report.mean_ndcg10, report.mean_recall1k) == (0.5, 0.5, 0.5)
        assert "missing: 1" in render_report_table(report)

    def test_matches_reference_on_random_instances(self):
        rng = random.Random(314159)
        for _ in range(50):
            rankings, qrels = _random_instance(rng)
            run = run_from_rankings(rankings, tag="t")
            report = evaluate_run(run, qrels)
            for query, metrics in report.per_query.items():
                ranked = [d for d, _ in rankings[query]]
                judged = qrels[query]
                assert metrics.ndcg10 == pytest.approx(
                    oracle_ndcg(ranked, judged, 10), abs=1e-6
                )
                assert metrics.map == pytest.approx(
                    oracle_average_precision(ranked, judged, 1000, 2), abs=1e-6
                )
                assert metrics.recall1k == pytest.approx(
                    oracle_recall(ranked, judged, 1000, 2), abs=1e-6
                )

    def test_empty_intersection_is_error(self):
        run = run_from_rankings({"q1": [("d1", 1.0)]}, tag="t")
        with pytest.raises(DataError):
            evaluate_run(run, {"q9": {"d1": 2}})

    def test_appending_irrelevant_below_cutoffs_changes_nothing(self):
        judgments = {"d1": 3, "d2": 2}
        ranked = ["d1", "d2", "d3"]
        longer = ranked + [f"pad{i}" for i in range(20)]
        assert ndcg_at_k(longer, judgments, k=3) == ndcg_at_k(ranked, judgments, k=3)
        assert average_precision_at_k(longer, judgments, k=3) == average_precision_at_k(
            ranked, judgments, k=3
        )
        assert recall_at_k(longer, judgments, k=3) == recall_at_k(ranked, judgments, k=3)

    def test_metrics_stay_in_unit_interval(self):
        rng = random.Random(2718)
        for _ in range(20):
            rankings, qrels = _random_instance(rng)
            report = evaluate_run(run_from_rankings(rankings, tag="t"), qrels)
            for metrics in report.per_query.values():
                for value in (metrics.map, metrics.ndcg10, metrics.recall1k):
                    assert 0.0 <= value <= 1.0


class TestReportOutput:
    def test_table_and_csv(self, tmp_path):
        run = run_from_rankings({"q1": [("d1", 2.0)]}, tag="t")
        report = evaluate_run(run, {"q1": {"d1": 3}})
        table = render_report_table(report)
        assert "q1" in table and "mean" in table
        path = tmp_path / "report.csv"
        write_report_csv(report, path, config_hash="ff00aa")
        content = path.read_text(encoding="utf-8")
        assert content.startswith("# config_hash=ff00aa\n")
        assert "query_id,map,ndcg10,recall1k" in content
