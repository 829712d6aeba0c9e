"""Pattern-constrained reformulation generation and hybrid query composition.

The generation prompt carries the chosen pattern (name, description, rule,
one example), the original query, and the retrieval-context snippets. LLM
output is cleaned up aggressively (quote/markup stripping, newline collapse)
because model output is messy; an empty result after one re-ask falls back
to the identity reformulation and is flagged as such.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .artifacts import read_lines, write_text
from .errors import DataError
from .gateway import ChatMessage, ChatRequest, Gateway, ask, fingerprint
from .index import RetrievalContext
from .induction import ReformulationPattern

GENERATION_SYSTEM = (
    "You rewrite search queries to improve retrieval. Rewrite the query by "
    "applying exactly the named reformulation pattern. Output only the "
    "reformulated query, with no explanations, labels, or quotes."
)

_WS_RE = re.compile(r"\s+")
_QUOTE_PAIRS = [('"', '"'), ("'", "'"), ("“", "”"), ("`", "`")]


@dataclass(frozen=True)
class Reformulation:
    text: str
    pattern_id: int
    query_id: str
    prompt_fingerprint: str
    fallback: bool = False

    def __post_init__(self):
        if not self.text.strip() and not self.fallback:
            raise DataError(f"empty reformulation for query {self.query_id!r}")
        if "\n" in self.text:
            raise DataError(f"reformulation for query {self.query_id!r} spans lines")


def build_generation_prompt(
    query: str,
    context: RetrievalContext,
    pattern: ReformulationPattern,
    model: str,
    extra_context: list[str] | None = None,
) -> ChatRequest:
    """Render the reformulation request for (query, context, pattern).

    `extra_context` is the augmentation hook: externally produced pseudo-passage
    text prepended to the context block. With no snippets and no extra context
    the block is omitted entirely.
    """
    lines = [
        f"Pattern: {pattern.name}",
        f"Description: {pattern.description}",
        f"Rule: {pattern.rule}",
    ]
    if pattern.examples:
        example = pattern.examples[0]
        lines.append(f'Example: "{example.query}" -> "{example.reformulation}"')
    passages = list(extra_context or []) + list(context.snippets)
    if passages:
        lines.append("")
        lines.append("Top retrieved passages:")
        lines.extend(f"- {p}" for p in passages)
    lines.append("")
    lines.append(f"Query: {query}")
    lines.append("Reformulated query:")
    return ChatRequest(
        model=model,
        messages=(
            ChatMessage("system", GENERATION_SYSTEM),
            ChatMessage("user", "\n".join(lines)),
        ),
    )


def clean_generation(text: str) -> str:
    """Collapse to one line and strip surrounding quotes/markdown markup, until
    nothing changes: a fence inside quotes goes too, so cleaning is idempotent."""
    out, previous = text.strip(), None
    while out != previous:
        previous = out
        if out.startswith("```"):
            out = out.strip("`")
            # drop a leading language hint left by a fence
            first, _, rest = out.partition("\n")
            if rest and " " not in first.strip():
                out = rest
        out = _WS_RE.sub(" ", out).strip()
        for opener, closer in _QUOTE_PAIRS:
            if len(out) >= 2 and out.startswith(opener) and out.endswith(closer):
                out = out[len(opener) : -len(closer)].strip()
    return out


def generate_reformulation(
    gateway: Gateway,
    query: str,
    context: RetrievalContext,
    pattern: ReformulationPattern,
    query_id: str = "",
    extra_context: list[str] | None = None,
) -> Reformulation:
    """Generate the pattern-guided rewrite; empty output re-asks once then
    falls back to the identity reformulation (flagged)."""
    request = build_generation_prompt(
        query, context, pattern, model=gateway.model, extra_context=extra_context
    )
    fp = fingerprint(request)
    try:
        text = ask(gateway, request, _nonempty_generation, "")  # "": the identical request
    except DataError:
        return Reformulation(
            text=query,
            pattern_id=pattern.pattern_id,
            query_id=query_id,
            prompt_fingerprint=fp,
            fallback=True,
        )
    return Reformulation(
        text=text, pattern_id=pattern.pattern_id, query_id=query_id, prompt_fingerprint=fp
    )


def _nonempty_generation(content: str) -> str:
    text = clean_generation(content)
    if not text:
        raise DataError("empty generation")
    return text


def compose_hybrid(query: str, reformulation: str, repetition: int = 1) -> str:
    """Hybrid query: the original phrasing repeated `repetition` times, then the rewrite."""
    if repetition < 1:
        raise DataError(f"repetition must be >= 1, got {repetition}")
    return " ".join([query] * repetition + [reformulation])


@dataclass(frozen=True)
class ReformulationRecord:
    """One reformulation-log line."""

    query_id: str
    pattern_id: int
    pattern_name: str
    reformulation: str
    hybrid_query: str
    fallback: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def write_reformulation_log(
    records: list[ReformulationRecord], path: str | Path, config_hash: str = ""
) -> None:
    """JSON-lines log; the first line is a header carrying the config hash."""
    lines = [json.dumps({"config_hash": config_hash})]
    lines += [r.to_json() for r in records]
    write_text(path, "\n".join(lines) + "\n")


def read_reformulation_log(path: str | Path) -> list[ReformulationRecord]:
    records = []
    for line_no, line in read_lines(path):
        try:  # a bad JSON line raises a ValueError, one nested too deep a RecursionError
            payload = json.loads(line)
            if line_no == 1 and isinstance(payload, dict) and "query_id" not in payload:
                continue  # the header; no other line may lack a query_id
            if type(payload["pattern_id"]) is not int or type(payload["fallback"]) is not bool:
                raise ValueError("pattern_id must be an integer and fallback a boolean")
            values = {f.name: payload[f.name] for f in fields(ReformulationRecord)}
            records.append(ReformulationRecord(**values))
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise DataError(f"{path}:{line_no}: malformed reformulation record: {exc!r}") from exc
    return records
