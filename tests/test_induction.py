import json
import re

import pytest

from conftest import SEED_PATTERN_NAMES, consolidation_payload
from patternqr.errors import DataError
from patternqr.gateway import fingerprint
from patternqr.induction import (
    LibraryProvenance,
    PatternExample,
    PatternLibrary,
    ReformulationPattern,
    TrainingPair,
    FORMAT_REMINDER,
    LIBRARY_FORMAT,
    extract_payload,
    induce_patterns,
    ingest_pairs,
    label_pair,
    label_pairs,
    load_labels,
    load_library,
    render_consolidation_prompt,
    render_label_prompt,
    sample_pairs,
    save_labels,
    save_library,
)

ONE_PATTERN = {"pattern_id": 0, "name": "A"}

PAIRS = [
    TrainingPair("p1", "cheap flights", "low cost airline tickets europe"),
    TrainingPair("p2", "jaguar speed", "jaguar animal top speed"),
    TrainingPair("p3", "python strings", "how to concatenate strings in python"),
]


class TestIngestPairs:
    def test_reads_in_file_order(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text(
            "p1\tq one\tr one\np2\tq two\tr two\np3\tq three\tr three\n", encoding="utf-8"
        )
        pairs = ingest_pairs(path)
        assert [p.pair_id for p in pairs] == ["p1", "p2", "p3"]
        assert pairs[0].query == "q one"

    def test_empty_reformulation_reports_line(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("p1\tq\tr\np2\tq2\t\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2"):
            ingest_pairs(path)

    def test_duplicate_pair_id_rejected(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("p1\tq\tr\np1\tq2\tr2\n", encoding="utf-8")
        with pytest.raises(DataError, match="p1"):
            ingest_pairs(path)

    def test_identity_pair_rejected(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("p1\tsame\tsame\n", encoding="utf-8")
        with pytest.raises(DataError):
            ingest_pairs(path)

    def test_crlf_file_gives_the_prompts_of_the_lf_file(self, tmp_path, seed_library):
        lines = ["p1\tcheap flights\tlow cost airline tickets", "p2\tjaguar speed\tjaguar animal"]
        lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
        lf.write_bytes("\n".join(lines).encode("utf-8") + b"\n")
        crlf.write_bytes("\r\n".join(lines).encode("utf-8") + b"\r\n")
        prompts = {
            path.name: [
                fingerprint(render_label_prompt(pair, seed_library, model="m"))
                for pair in ingest_pairs(path)
            ]
            for path in (lf, crlf)
        }
        assert len(prompts["lf.tsv"]) == 2 and prompts["lf.tsv"] == prompts["crlf.tsv"]

    def test_sampling_is_seeded(self):
        a = sample_pairs(PAIRS, 2, seed=7)
        b = sample_pairs(PAIRS, 2, seed=7)
        assert a == b
        assert len(a) == 2


class TestPayloadExtraction:
    def test_tolerates_surrounding_prose(self):
        text = "Sure! Here are the patterns:\n" + consolidation_payload(["A", "B"]) + "\nDone."
        payload = extract_payload(text)
        assert [p["name"] for p in payload] == ["A", "B"]

    def test_skips_earlier_json_without_key(self):
        text = '{"other": 1} and then {"Consolidated Patterns": []}'
        assert extract_payload(text) == []

    def test_missing_key_is_error(self):
        with pytest.raises(DataError):
            extract_payload("no json here at all")


class TestInducePatterns:
    def test_scripted_mock_reproduces_pattern_names(self, mock_gateway_factory):
        gateway = mock_gateway_factory(fallback=consolidation_payload(SEED_PATTERN_NAMES))
        library = induce_patterns(PAIRS, gateway, batch_size=2)
        assert library.names == SEED_PATTERN_NAMES
        assert [p.pattern_id for p in library.patterns] == list(range(10))
        assert library.provenance.num_pairs == len(PAIRS)
        assert library.provenance.induction_model == "mock-model"

    def test_empty_prior_renders_empty_list_slot(self):
        request = render_consolidation_prompt(PAIRS, existing=None, model="m")
        assert "Consolidated Patterns: []" in request.messages[-1].content

    def test_prior_library_is_rendered_into_prompt(self, seed_library):
        request = render_consolidation_prompt(PAIRS, existing=seed_library, model="m")
        assert "Clarify Intent" in request.messages[-1].content

    def test_duplicate_names_fail_after_reask(self, mock_gateway_factory):
        gateway = mock_gateway_factory(fallback=consolidation_payload(["Same", "Same"]))
        with pytest.raises(DataError, match="re-ask"):
            induce_patterns(PAIRS, gateway, batch_size=3)

    def test_reask_appends_format_reminder_and_recovers(self, mock_gateway_factory):
        first = render_consolidation_prompt(PAIRS, existing=None, model="mock-model")
        entries = {fingerprint(first): "sorry, no JSON from me"}
        gateway = mock_gateway_factory(entries=entries, fallback=consolidation_payload(["A"]))
        library = induce_patterns(PAIRS, gateway, batch_size=3)
        assert library.names == ["A"]

    def test_cap_violation_names_remedy(self, mock_gateway_factory):
        gateway = mock_gateway_factory(
            fallback=consolidation_payload([f"P{i}" for i in range(6)])
        )
        with pytest.raises(DataError, match="batch size"):
            induce_patterns(PAIRS, gateway, batch_size=3, max_patterns=5)

    def test_transcript_persists_every_call(self, mock_gateway_factory, tmp_path):
        gateway = mock_gateway_factory(fallback=consolidation_payload(["A"]))
        transcript = tmp_path / "transcript.jsonl"
        induce_patterns(PAIRS, gateway, batch_size=1, transcript_path=transcript)
        lines = transcript.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3  # one consolidation call per singleton batch
        record = json.loads(lines[0])
        assert "request" in record and "response" in record

    def test_transcript_records_the_reask(self, mock_gateway_factory, tmp_path):
        first = render_consolidation_prompt(PAIRS, existing=None, model="mock-model")
        entries = {fingerprint(first): "sorry, no JSON from me"}
        gateway = mock_gateway_factory(entries=entries, fallback=consolidation_payload(["A"]))
        transcript = tmp_path / "transcript.jsonl"
        induce_patterns(PAIRS, gateway, batch_size=3, transcript_path=transcript)
        records = [json.loads(line) for line in transcript.read_text("utf-8").splitlines()]
        assert [r["response"] for r in records] == [
            "sorry, no JSON from me",
            consolidation_payload(["A"]),
        ]
        retry = records[1]["request"]["messages"][-1]["content"]
        assert retry == first.messages[-1].content + FORMAT_REMINDER

    def test_reproducible_with_same_script(self, mock_gateway_factory):
        gateway_a = mock_gateway_factory(fallback=consolidation_payload(SEED_PATTERN_NAMES))
        gateway_b = mock_gateway_factory(fallback=consolidation_payload(SEED_PATTERN_NAMES))
        assert induce_patterns(PAIRS, gateway_a, batch_size=2) == induce_patterns(
            PAIRS, gateway_b, batch_size=2
        )


class TestLabelPair:
    def test_singleton_library_is_forced(self, mock_gateway_factory):
        library = PatternLibrary(
            patterns=(ReformulationPattern(0, "Only One", "d", "r"),),
            version="v",
        )
        gateway = mock_gateway_factory()  # would raise on any call
        label = label_pair(PAIRS[0], library, gateway)
        assert label.pattern_id == 0

    def test_case_insensitive_resolution(self, seed_library, mock_gateway_factory):
        gateway = mock_gateway_factory(fallback="clarify intent")
        label = label_pair(PAIRS[0], seed_library, gateway)
        assert label.pattern_id == seed_library.resolve_name("Clarify Intent")

    @pytest.mark.parametrize(
        "answer", ['"Clarify Intent."', "'clarify intent'", "Clarify Intent. "]
    )
    def test_quotes_and_period_ignored(self, seed_library, mock_gateway_factory, answer):
        gateway = mock_gateway_factory(fallback=answer)
        label = label_pair(PAIRS[0], seed_library, gateway)
        assert label.pattern_id == seed_library.resolve_name("Clarify Intent")

    def test_unknown_name_twice_lists_valid_names(self, seed_library, mock_gateway_factory):
        gateway = mock_gateway_factory(fallback="Unknown Strategy")
        with pytest.raises(DataError) as err:
            label_pair(PAIRS[0], seed_library, gateway)
        for name in seed_library.names:
            assert name in str(err.value)

    def test_label_pairs_is_total_or_aborts(self, seed_library, mock_gateway_factory):
        good = render_label_prompt(PAIRS[0], seed_library, model="mock-model")
        entries = {fingerprint(good): "Temporal Adjustment"}
        gateway = mock_gateway_factory(entries=entries, fallback="Generalization")
        labels = label_pairs(PAIRS, seed_library, gateway)
        assert len(labels) == len(PAIRS)
        assert labels[0].pattern_id == seed_library.resolve_name("Temporal Adjustment")

    def test_label_pairs_reports_failures_per_pair(self, seed_library, mock_gateway_factory):
        gateway = mock_gateway_factory(fallback="Not A Pattern")
        with pytest.raises(DataError, match="p1"):
            label_pairs(PAIRS, seed_library, gateway)


class TestLibraryIO:
    def test_round_trip_is_lossless(self, tmp_path):
        library = PatternLibrary(
            patterns=(
                ReformulationPattern(
                    0,
                    "Alpha",
                    "first",
                    "rule a",
                    (PatternExample("q", "r"), PatternExample("q2", "r2")),
                ),
                ReformulationPattern(1, "Beta", "second", "rule b"),
            ),
            version="3",
            provenance=LibraryProvenance("dataset-x", 42, "model-y"),
            config_hash="deadbeef",
        )
        path = tmp_path / "library.json"
        save_library(library, path)
        assert load_library(path) == library

    def test_failed_save_leaves_previous_file(self, seed_library, tmp_path, half_write_text):
        path = tmp_path / "library.json"
        path.write_bytes(b"previous library")
        with pytest.raises(OSError, match="disk full"):
            save_library(seed_library, path)
        assert path.read_bytes() == b"previous library"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["library.json"]

    @pytest.mark.parametrize(
        "payload",
        [
            {"format": LIBRARY_FORMAT},
            [LIBRARY_FORMAT],
            {"format": LIBRARY_FORMAT, "patterns": 5},
            {"format": LIBRARY_FORMAT, "patterns": [1]},
            {"format": LIBRARY_FORMAT, "patterns": [{"name": "A"}]},
            {"format": LIBRARY_FORMAT, "patterns": [{"pattern_id": "zero", "name": "A"}]},
            {"format": LIBRARY_FORMAT, "patterns": [{"pattern_id": 1, "name": "A"}]},
            {"format": LIBRARY_FORMAT, "patterns": [{"pattern_id": 0}]},
            {"format": LIBRARY_FORMAT, "patterns": [{**ONE_PATTERN, "examples": 5}]},
            {"format": LIBRARY_FORMAT, "patterns": [ONE_PATTERN], "provenance": 1},
        ],
        ids=[
            "no-patterns",
            "not-an-object",
            "patterns-not-a-list",
            "pattern-not-an-object",
            "no-pattern-id",
            "pattern-id-not-a-number",
            "ids-not-dense",
            "no-name",
            "examples-not-a-list",
            "provenance-not-an-object",
        ],
    )
    def test_malformed_file_is_a_data_error(self, tmp_path, payload):
        path = tmp_path / "library.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError):
            load_library(path)

    def test_dense_ids_enforced(self):
        with pytest.raises(DataError):
            PatternLibrary(patterns=(ReformulationPattern(1, "A", "d", "r"),), version="v")

    def test_duplicate_names_enforced_case_insensitively(self):
        with pytest.raises(DataError):
            PatternLibrary(
                patterns=(
                    ReformulationPattern(0, "Alpha", "d", "r"),
                    ReformulationPattern(1, "alpha", "d", "r"),
                ),
                version="v",
            )


    def test_duplicate_names_enforced_as_an_answer_resolves_them(self):
        with pytest.raises(DataError, match="duplicate pattern names"):
            PatternLibrary(
                patterns=(
                    ReformulationPattern(0, "Add Year.", "d", "r"),
                    ReformulationPattern(1, "add year", "d", "r"),
                ),
                version="v",
            )

    @pytest.mark.parametrize("answer", ["Add Year.", "add year", '"Add Year"', "Add Year. "])
    def test_name_ending_in_a_period_resolves(self, answer):
        library = PatternLibrary(
            patterns=(
                ReformulationPattern(0, "Other", "d", "r"),
                ReformulationPattern(1, "Add Year.", "d", "r"),
            ),
            version="v",
        )
        assert library.resolve_name(answer) == 1


class TestLabelsIO:
    def test_round_trip(self, tmp_path):
        from patternqr.induction import PatternLabel

        labels = [PatternLabel("p1", 3), PatternLabel("p2", 0)]
        path = tmp_path / "labels.tsv"
        save_labels(labels, path)
        assert load_labels(path) == labels

    def test_failed_save_leaves_previous_file(self, tmp_path, half_write_text):
        from patternqr.induction import PatternLabel

        path = tmp_path / "labels.tsv"
        path.write_bytes(b"p0\t1\n")
        with pytest.raises(OSError, match="disk full"):
            save_labels([PatternLabel("p1", 3), PatternLabel("p2", 0)], path)
        assert path.read_bytes() == b"p0\t1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["labels.tsv"]

    def test_header_carries_the_settings_digest(self, tmp_path):
        from patternqr.induction import PatternLabel

        path = tmp_path / "labels.tsv"
        save_labels([PatternLabel("p1", 3)], path, config_hash="abc123")
        assert path.read_text(encoding="utf-8") == "# config_hash=abc123\np1\t3\n"
        assert load_labels(path) == [PatternLabel("p1", 3)]

    @pytest.mark.parametrize(
        "text, pair_ids",
        [
            ("p1\t3\np2\t0\n", ["p1", "p2"]),
            ("#p1\t3\np2\t0\n", ["#p1", "p2"]),
            ("# config_hash=p1\t3\n", ["# config_hash=p1"]),
        ],
        ids=["no-header", "hash-pair-id", "header-like-pair"],
    )
    def test_only_a_first_header_line_without_a_tab_is_skipped(self, tmp_path, text, pair_ids):
        path = tmp_path / "labels.tsv"
        path.write_text(text, encoding="utf-8")
        assert [lb.pair_id for lb in load_labels(path)] == pair_ids

    def test_a_header_after_the_first_line_is_an_error(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("p1\t3\n# config_hash=abc\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2"):
            load_labels(path)

    def test_bad_pattern_id_reports_line(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("p1\t3\np2\tnope\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2"):
            load_labels(path)

    def test_a_duplicate_pair_id_names_its_line(self, tmp_path):
        # A dict of the labels would silently keep the last one.
        path = tmp_path / "labels.tsv"
        path.write_text("p1\t0\np2\t1\np1\t3\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}:3: duplicate pair_id 'p1'")):
            load_labels(path)
