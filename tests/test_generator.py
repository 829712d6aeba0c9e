import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patternqr.errors import DataError
from patternqr.gateway import ChatResponse, Gateway, Usage, fingerprint
from patternqr.generator import (
    _QUOTE_PAIRS,
    ReformulationRecord,
    build_generation_prompt,
    clean_generation,
    compose_hybrid,
    generate_reformulation,
    read_reformulation_log,
    write_reformulation_log,
)
from patternqr.index import RetrievalContext, retrieve_topk
from patternqr.induction import PatternExample, ReformulationPattern

PATTERN = ReformulationPattern(
    pattern_id=9,
    name="Temporal Adjustment",
    description="Fix the time frame.",
    rule="Add the year that scopes the need.",
    examples=(PatternExample("old query", "old query 2020"),),
)

CONTEXT = RetrievalContext(
    "q1", ["d1", "d2"], [2.0, 1.0], 3, ("first snippet text", "second snippet text")
)
EMPTY_CONTEXT = RetrievalContext("q1", [], [], 3, ())

# Fingerprints of generation prompts, as first computed; mock scripts key on them.
GENERATION_FINGERPRINTS = {
    "context": "33c1d5809915779a685bfceae8ac8bd812660c2ba689c810be3bc43bff71603d",
    "empty-context": "86b95000c13d4c8c913e2d5b93025914c59c59c60d64e4a5b9f03b3738bf4ba0",
    "extra-context": "c58068194c48fd02924a988051c564a7d1213cfdd23fa4cbd475ff6f68066f11",
}


class TestBuildGenerationPrompt:
    def test_same_inputs_same_fingerprint(self):
        a = build_generation_prompt("average nurse salary", CONTEXT, PATTERN, model="m")
        b = build_generation_prompt("average nurse salary", CONTEXT, PATTERN, model="m")
        assert fingerprint(a) == fingerprint(b)

    def test_carries_default_generation_parameters(self):
        request = build_generation_prompt("q", CONTEXT, PATTERN, model="m")
        assert request.max_tokens == 512
        assert request.temperature == 1.0

    def test_empty_context_omits_snippet_block(self):
        request = build_generation_prompt("q text", EMPTY_CONTEXT, PATTERN, model="m")
        assert "passages" not in request.messages[-1].content

    def test_context_snippets_included(self):
        request = build_generation_prompt("q text", CONTEXT, PATTERN, model="m")
        body = request.messages[-1].content
        assert "first snippet text" in body and "second snippet text" in body

    def test_pattern_fields_and_one_example_included(self):
        request = build_generation_prompt("q text", CONTEXT, PATTERN, model="m")
        body = request.messages[-1].content
        assert "Temporal Adjustment" in body
        assert "Fix the time frame." in body
        assert "Add the year" in body
        assert '"old query" -> "old query 2020"' in body

    def test_hook_text_prepended_to_context_block(self):
        request = build_generation_prompt(
            "q text", CONTEXT, PATTERN, model="m", extra_context=["pseudo passage from hook"]
        )
        body = request.messages[-1].content
        assert body.index("pseudo passage from hook") < body.index("first snippet text")

    def test_hook_forces_block_even_without_snippets(self):
        request = build_generation_prompt(
            "q text", EMPTY_CONTEXT, PATTERN, model="m", extra_context=["pseudo passage"]
        )
        assert "pseudo passage" in request.messages[-1].content

    @pytest.mark.parametrize("case", sorted(GENERATION_FINGERPRINTS))
    def test_prompt_fingerprints_are_frozen(self, case):
        context, extra = {
            "context": (CONTEXT, None),
            "empty-context": (EMPTY_CONTEXT, None),
            "extra-context": (CONTEXT, ["pseudo passage from hook"]),
        }[case]
        request = build_generation_prompt(
            "average nurse salary", context, PATTERN, model="m", extra_context=extra
        )
        assert fingerprint(request) == GENERATION_FINGERPRINTS[case]


class TestCleanGeneration:
    def test_strips_quotes_and_newlines(self):
        assert clean_generation('  "rewritten query"\n') == "rewritten query"

    def test_collapses_internal_newlines(self):
        assert clean_generation("line one\nline two") == "line one line two"

    def test_strips_code_fence(self):
        assert clean_generation("```\nthe query\n```") == "the query"

    def test_strips_curly_quotes(self):
        assert clean_generation("“fancy quoted”") == "fancy quoted"

    def test_plain_text_untouched(self):
        assert clean_generation("already clean") == "already clean"

    @pytest.mark.parametrize(
        "text, cleaned", [('"```""', '"'), ('"```a"', "a"), ("“```py\nrun”", "py run")]
    )
    def test_fence_inside_quotes_is_stripped(self, text, cleaned):
        assert clean_generation(text) == cleaned

    _PIECES = ["```", *dict.fromkeys(c for pair in _QUOTE_PAIRS for c in pair), " ", "\n", "a", "b"]

    @given(st.lists(st.sampled_from(_PIECES), max_size=10).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_cleaning_twice_is_cleaning_once(self, text):
        once = clean_generation(text)
        assert clean_generation(once) == once


class TestGenerateReformulation:
    def test_scripted_exact_text(self, mock_gateway_factory):
        request = build_generation_prompt(
            "average nurse salary", CONTEXT, PATTERN, model="mock-model"
        )
        entries = {fingerprint(request): "average salary of a nurse in california 2020"}
        gateway = mock_gateway_factory(entries=entries)
        result = generate_reformulation(
            gateway, "average nurse salary", CONTEXT, PATTERN, query_id="q1"
        )
        assert result.text == "average salary of a nurse in california 2020"
        assert result.pattern_id == 9
        assert result.query_id == "q1"
        assert result.prompt_fingerprint == fingerprint(request)
        assert result.fallback is False

    def test_cleanup_applied(self, mock_gateway_factory):
        gateway = mock_gateway_factory(fallback='  "rewritten query"\n')
        result = generate_reformulation(gateway, "orig", CONTEXT, PATTERN)
        assert result.text == "rewritten query"

    def test_empty_twice_falls_back_to_identity(self, mock_gateway_factory):
        gateway = mock_gateway_factory(fallback="")
        result = generate_reformulation(gateway, "the original", CONTEXT, PATTERN, query_id="q")
        assert result.text == "the original"
        assert result.fallback is True

    def test_an_empty_answer_asks_the_identical_request_again(self):
        sent = []

        class Backend:
            def send(self, request):
                sent.append(request)
                content = "  ``  " if len(sent) == 1 else "rewritten"
                return ChatResponse(content, "stop", Usage(0, 0))

        result = generate_reformulation(Gateway(Backend(), model="m"), "orig", CONTEXT, PATTERN)
        assert (result.text, result.fallback) == ("rewritten", False)
        assert sent == [build_generation_prompt("orig", CONTEXT, PATTERN, model="m")] * 2


class TestComposeHybrid:
    def test_single_repetition(self):
        hybrid = compose_hybrid("cheap flights", "low cost airline tickets europe", 1)
        assert hybrid == "cheap flights low cost airline tickets europe"

    def test_triple_repetition(self):
        assert compose_hybrid("q", "r", 3) == "q q q r"

    def test_zero_repetition_rejected(self):
        with pytest.raises(DataError):
            compose_hybrid("q", "r", 0)

    def test_identity_reformulation_preserves_bm25_ranking(self, tiny_index):
        hybrid = compose_hybrid("sat", "sat", 1)
        plain = retrieve_topk(tiny_index, "sat", 10)
        doubled = retrieve_topk(tiny_index, hybrid, 10)
        assert doubled.doc_ids == plain.doc_ids
        for single, double in zip(plain.scores, doubled.scores):
            assert double == pytest.approx(2 * single, rel=1e-12)

    def test_original_tokens_kept_in_order(self):
        hybrid = compose_hybrid("alpha beta gamma", "delta", 2)
        assert hybrid.startswith("alpha beta gamma alpha beta gamma")


class TestReformulationLog:
    def test_round_trip_with_config_header(self, tmp_path):
        records = [
            ReformulationRecord("q1", 9, "Temporal Adjustment", "r text", "q r text", False),
            ReformulationRecord("q2", 0, "Clarify Intent", "other", "q2 other", True),
        ]
        path = tmp_path / "log.jsonl"
        write_reformulation_log(records, path, config_hash="beef99")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[0]) == {"config_hash": "beef99"}
        assert json.loads(lines[1])["pattern_name"] == "Temporal Adjustment"
        assert read_reformulation_log(path) == records

    @pytest.mark.parametrize(
        "line",
        [
            '{"query_id": "q1"}',
            '{"query_id": "q1", "pattern_id": "nine", "pattern_name": "T", "reformulation": "r",'
            ' "hybrid_query": "q r", "fallback": false}',
            '{"query_id": "q1", "pattern_id": true, "pattern_name": "T", "reformulation": "r",'
            ' "hybrid_query": "q r", "fallback": false}',
            '{"query_id": "q1", "pattern_id": 9.5, "pattern_name": "T", "reformulation": "r",'
            ' "hybrid_query": "q r", "fallback": false}',
            '{"query_id": "q1", "pattern_id": 9, "pattern_name": "T", "reformulation": "r",'
            ' "hybrid_query": "q r", "fallback": "false"}',
            '{"query_id": "q1", "pattern_id": 9, "pattern_name": "T", "reformulation": "r",'
            ' "hybrid_query": "q r", "fallback": 0}',
            "3",
            "[1]",
            "[" * 100_000,
        ],
        ids=[
            "missing-fields",
            "bad-pattern-id",
            "boolean-pattern-id",
            "fractional-pattern-id",
            "string-fallback",
            "integer-fallback",
            "number",
            "list",
            "nested-too-deep",
        ],
    )
    def test_malformed_record_is_a_data_error(self, tmp_path, line):
        path = tmp_path / "log.jsonl"
        path.write_text(f'{{"config_hash": "beef99"}}\n{line}\n', encoding="utf-8")
        with pytest.raises(DataError, match=f"{path}:2"):
            read_reformulation_log(path)

    @pytest.mark.parametrize("line", ['{"config_hash": "y"}', '{"oops": true}', "{}"])
    def test_only_the_first_line_may_be_the_header(self, tmp_path, line):
        record = ReformulationRecord("q1", 9, "Temporal Adjustment", "r text", "q r text", False)
        path = tmp_path / "log.jsonl"
        write_reformulation_log([record], path, config_hash="beef99")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(f"{line}\n{record.to_json()}\n")
        with pytest.raises(DataError, match=f"{re.escape(str(path))}:3: malformed reformulation"):
            read_reformulation_log(path)
