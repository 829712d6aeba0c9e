"""Pattern library induction from (query, stronger-reformulation) pairs.

Batches of pairs go through an LLM consolidation prompt that carries the
current library forward; the returned ``{"Consolidated Patterns": [...]}``
payload replaces the working library after each batch. A second pass labels
each pair with the library pattern that explains its rewrite.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

from .artifacts import UNWRITABLE, read_json, read_lines, write_text
from .errors import ConfigError, DataError, GatewayError
from .gateway import ChatMessage, ChatRequest, ChatResponse, Gateway, ask, request_to_wire

DEFAULT_BATCH_SIZE = 50
DEFAULT_MAX_PATTERNS = 16
LIBRARY_FORMAT = "patternqr-library-v1"

CONSOLIDATION_SYSTEM = (
    "You are QueryReformulationLLM, an intelligent assistant that identifies and "
    "updates abstract patterns that describe how queries are reformulated to "
    "improve retrieval effectiveness."
)

CONSOLIDATION_USER_TEMPLATE = """\
Given a set of query reformulation pairs below and optional prior list of consolidated patterns, your objectives are:
1. Identify the transformation pattern(s) underlying each reformulation.
2. Consolidate the global pattern set by merging semantically similar strategies and refining their names and descriptions.

Query Reformulation Pairs: {query_pairs}

Consolidated Patterns: {existing_patterns}

Each extracted pattern should include a pattern name, an informative description, a generalized transformation rule, and representative examples.
Return the results of consolidated patterns:

{{"Consolidated Patterns": [...]}}"""

FORMAT_REMINDER = (
    '\n\nReturn only a single JSON object of the form '
    '{"Consolidated Patterns": [{"name": ..., "description": ..., "rule": ..., '
    '"examples": [{"query": ..., "reformulation": ...}]}]} with no other text.'
)

LABEL_SYSTEM = (
    "You classify how a search query was rewritten. Given a query, its "
    "reformulation, and a list of named reformulation patterns, answer with "
    "exactly one pattern name from the list and nothing else."
)


@dataclass(frozen=True)
class TrainingPair:
    pair_id: str
    query: str
    reformulation: str

    def __post_init__(self):
        if not self.pair_id:
            raise DataError("pair_id must be non-empty")
        if not self.query or not self.reformulation:
            raise DataError(f"pair {self.pair_id}: query and reformulation must be non-empty")
        if self.query == self.reformulation:
            raise DataError(f"pair {self.pair_id}: reformulation equals the query")


@dataclass(frozen=True)
class PatternExample:
    query: str
    reformulation: str


@dataclass(frozen=True)
class ReformulationPattern:
    pattern_id: int
    name: str
    description: str
    rule: str
    examples: tuple[PatternExample, ...] = ()

    def __post_init__(self):
        if not self.name:
            raise DataError("pattern name must be non-empty")


@dataclass(frozen=True)
class LibraryProvenance:
    source_dataset: str = ""
    num_pairs: int = 0
    induction_model: str = ""


@dataclass(frozen=True)
class PatternLibrary:
    patterns: tuple[ReformulationPattern, ...]
    version: str = "0"
    provenance: LibraryProvenance = field(default_factory=LibraryProvenance)
    config_hash: str = ""

    def __post_init__(self):
        if not self.patterns:
            raise DataError("a pattern library must hold at least one pattern")
        for i, pattern in enumerate(self.patterns):
            if pattern.pattern_id != i:
                raise DataError(
                    f"pattern ids must be dense 0..M-1; got {pattern.pattern_id} at position {i}"
                )
        keys = [_name_key(p.name) for p in self.patterns]
        if len(set(keys)) != len(keys):
            dupes = sorted({n for n in keys if keys.count(n) > 1})
            raise DataError(f"duplicate pattern names: {dupes}")

    def __len__(self) -> int:
        return len(self.patterns)

    @property
    def names(self) -> list[str]:
        return [p.name for p in self.patterns]

    @property
    def menu(self) -> str:
        """One `- name: description` line per pattern, as the label and select prompts show it."""
        return "\n".join(f"- {p.name}: {p.description}" for p in self.patterns)

    def resolve_name(self, answer: str) -> int:
        """The id of the pattern an LLM answer names, ignoring case and surrounding
        whitespace, quotes and periods in both; raises DataError listing valid names."""
        wanted = _name_key(answer)
        for pattern in self.patterns:
            if _name_key(pattern.name) == wanted:
                return pattern.pattern_id
        raise DataError(f"unknown pattern name {answer!r}; valid names: {self.names}")


def _name_key(name: str) -> str:
    """What a pattern name is matched on: lower case, without surrounding
    whitespace, quotes and periods."""
    return name.strip().strip('"').strip("'").strip(".").strip().lower()


@dataclass(frozen=True)
class PatternLabel:
    pair_id: str
    pattern_id: int


def ingest_pairs(path: str | Path) -> list[TrainingPair]:
    """Read `pair_id<TAB>query<TAB>reformulation` lines; strict per-line validation."""
    pairs: list[TrainingPair] = []
    seen: set[str] = set()
    for line_no, line in read_lines(path):
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataError(f"{path}:{line_no}: expected pair_id<TAB>query<TAB>reformulation")
        pair_id, query, reformulation = fields
        if pair_id in seen:
            raise DataError(f"{path}:{line_no}: duplicate pair_id {pair_id!r}")
        seen.add(pair_id)
        try:
            pairs.append(TrainingPair(pair_id, query, reformulation))
        except DataError as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from exc
    return pairs


def sample_pairs(pairs: list[TrainingPair], n: int, seed: int) -> list[TrainingPair]:
    """Seeded shuffle then prefix-take; same seed always yields the same subset."""
    shuffled = list(pairs)
    random.Random(seed).shuffle(shuffled)
    return shuffled[:n]


def _pattern_to_payload(pattern: ReformulationPattern) -> dict:
    return {
        "name": pattern.name,
        "description": pattern.description,
        "rule": pattern.rule,
        "examples": [
            {"query": e.query, "reformulation": e.reformulation} for e in pattern.examples
        ],
    }


def render_consolidation_prompt(
    batch: list[TrainingPair], existing: PatternLibrary | None, model: str
) -> ChatRequest:
    pairs_json = json.dumps(
        [{"query": p.query, "reformulation": p.reformulation} for p in batch]
    )
    existing_json = json.dumps(
        [_pattern_to_payload(p) for p in existing.patterns] if existing else []
    )
    user = CONSOLIDATION_USER_TEMPLATE.format(
        query_pairs=pairs_json, existing_patterns=existing_json
    )
    return ChatRequest(
        model=model,
        messages=(ChatMessage("system", CONSOLIDATION_SYSTEM), ChatMessage("user", user)),
    )


def extract_payload(text: str) -> list[dict]:
    """First balanced JSON object containing "Consolidated Patterns", prose tolerated."""
    decoder = json.JSONDecoder()
    start = text.find("{")
    while start != -1:
        try:
            obj, _ = decoder.raw_decode(text, start)
        except json.JSONDecodeError:
            start = text.find("{", start + 1)
            continue
        if isinstance(obj, dict) and "Consolidated Patterns" in obj:
            payload = obj["Consolidated Patterns"]
            if not isinstance(payload, list):
                raise DataError('"Consolidated Patterns" is not a list')
            return payload
        start = text.find("{", start + 1)
    raise DataError('no JSON object with a "Consolidated Patterns" key found')


def _parse_pattern(entry: dict, pattern_id: int) -> ReformulationPattern:
    """One pattern of a consolidation payload or of a library file; examples that
    are not objects are skipped."""
    if not isinstance(entry, dict):
        raise DataError(f"pattern entry {pattern_id} is not an object")
    name = entry.get("name") or entry.get("pattern_name") or ""
    rule = entry.get("rule") or entry.get("transformation_rule") or ""
    listed = entry.get("examples", [])
    if not isinstance(listed, list):
        raise DataError(f"pattern entry {pattern_id}: examples is not a list")
    examples = tuple(
        PatternExample(query=e.get("query", ""), reformulation=e.get("reformulation", ""))
        for e in listed
        if isinstance(e, dict)
    )
    return ReformulationPattern(
        pattern_id=pattern_id,
        name=str(name),
        description=str(entry.get("description", "")),
        rule=str(rule),
        examples=examples,
    )


def _parse_consolidation(content: str, base: PatternLibrary | None) -> PatternLibrary:
    """The library a consolidation reply holds, carrying `base`'s version and provenance."""
    try:
        payload = extract_payload(content)
        patterns = tuple(_parse_pattern(entry, i) for i, entry in enumerate(payload))
        if base is None:
            return PatternLibrary(patterns=patterns)
        return PatternLibrary(patterns=patterns, version=base.version, provenance=base.provenance)
    except DataError as exc:
        # Only the re-ask's error leaves `ask`, so this message is seen after a re-ask.
        raise DataError(
            f"consolidation payload unusable after re-ask: {exc}\nraw response:\n{content}"
        ) from exc


class Transcript:
    """A gateway that appends every request it completes, and the reply, to a JSONL file."""

    def __init__(self, gateway: Gateway, path: str | Path):
        self.gateway = gateway
        self.model = gateway.model
        self.path = Path(path)
        try:
            self.path.write_text("", encoding="utf-8")
        except UNWRITABLE as exc:
            raise ConfigError(f"cannot write {self.path}: {exc.strerror or exc}") from exc

    def complete(self, request: ChatRequest) -> ChatResponse:
        response = self.gateway.complete(request)
        line = json.dumps({"request": request_to_wire(request), "response": response.content})
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        return response


def induce_patterns(
    pairs: list[TrainingPair],
    gateway: Gateway,
    batch_size: int = DEFAULT_BATCH_SIZE,
    existing: PatternLibrary | None = None,
    max_patterns: int = DEFAULT_MAX_PATTERNS,
    transcript_path: str | Path | None = None,
) -> PatternLibrary:
    """Iteratively consolidate the pattern library over batches of pairs.

    Each batch renders the consolidation prompt with the current library and
    replaces it with the parsed payload. An unparseable payload earns one
    re-ask carrying a format reminder, then a hard error with the raw text.
    With `transcript_path`, every call and its reply is logged there.
    """
    if not pairs:
        raise DataError("cannot induce patterns from an empty pair list")
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    if transcript_path:
        gateway = Transcript(gateway, transcript_path)
    library = existing
    for offset in range(0, len(pairs), batch_size):
        batch = pairs[offset : offset + batch_size]
        request = render_consolidation_prompt(batch, library, model=gateway.model)
        parse = partial(_parse_consolidation, base=library)
        library = ask(gateway, request, parse, FORMAT_REMINDER)
        if len(library) > max_patterns:
            raise DataError(
                f"consolidation produced {len(library)} patterns, above the cap of "
                f"{max_patterns}; lower the batch size or raise the cap"
            )
    assert library is not None
    return replace(
        library,
        provenance=replace(
            library.provenance,
            num_pairs=(existing.provenance.num_pairs if existing else 0) + len(pairs),
            induction_model=gateway.model,
        ),
    )


def render_label_prompt(pair: TrainingPair, library: PatternLibrary, model: str) -> ChatRequest:
    user = (
        f"Patterns:\n{library.menu}\n\n"
        f"Query: {pair.query}\n"
        f"Reformulation: {pair.reformulation}\n\n"
        "Which single pattern best explains this reformulation? "
        "Answer with the pattern name only."
    )
    return ChatRequest(
        model=model,
        messages=(ChatMessage("system", LABEL_SYSTEM), ChatMessage("user", user)),
    )


def label_pair(pair: TrainingPair, library: PatternLibrary, gateway: Gateway) -> PatternLabel:
    """Assign the pair to one library pattern via the LLM; one re-ask on a bad name."""
    if len(library) == 1:
        return PatternLabel(pair_id=pair.pair_id, pattern_id=0)
    request = render_label_prompt(pair, library, model=gateway.model)
    suffix = f"\n\nAnswer with exactly one of: {', '.join(library.names)}."
    try:
        return PatternLabel(pair.pair_id, ask(gateway, request, library.resolve_name, suffix))
    except DataError as exc:
        raise DataError(f"pair {pair.pair_id}: {exc}") from exc


def label_pairs(
    pairs: list[TrainingPair], library: PatternLibrary, gateway: Gateway
) -> list[PatternLabel]:
    """Label every pair; aborts with a per-pair error report if any pair fails."""
    labels: list[PatternLabel] = []
    failures: list[str] = []
    for pair in pairs:
        try:
            labels.append(label_pair(pair, library, gateway))
        except GatewayError as exc:
            raise GatewayError(f"labeling pair {pair.pair_id} failed: {exc}") from exc
        except DataError as exc:
            failures.append(str(exc))
    if failures:
        raise DataError("labeling failed for some pairs:\n" + "\n".join(failures))
    return labels


def save_library(library: PatternLibrary, path: str | Path) -> None:
    payload = {
        "format": LIBRARY_FORMAT,
        "version": library.version,
        "config_hash": library.config_hash,
        "provenance": asdict(library.provenance),
        "patterns": [
            {"pattern_id": p.pattern_id, **_pattern_to_payload(p)} for p in library.patterns
        ],
    }
    write_text(path, json.dumps(payload, indent=2))


def load_library(path: str | Path) -> PatternLibrary:
    payload = read_json(path, "pattern library", DataError)
    if payload.get("format") != LIBRARY_FORMAT:
        raise DataError(f"{path} is not a patternqr pattern library")
    try:
        prov = payload.get("provenance", {})
        # The stored ids go through, so PatternLibrary checks they are dense.
        patterns = tuple(
            _parse_pattern(entry, int(entry["pattern_id"])) for entry in payload["patterns"]
        )
        provenance = LibraryProvenance(
            source_dataset=prov.get("source_dataset", ""),
            num_pairs=int(prov.get("num_pairs", 0)),
            induction_model=prov.get("induction_model", ""),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"malformed pattern library {path}: {exc!r}") from exc
    return PatternLibrary(
        patterns=patterns,
        version=payload.get("version", "0"),
        provenance=provenance,
        config_hash=payload.get("config_hash", ""),
    )


def default_library() -> PatternLibrary:
    """The packaged seed library (ten consolidated patterns)."""
    return load_library(Path(__file__).parent / "data" / "default_patterns.json")


def save_labels(labels: list[PatternLabel], path: str | Path, config_hash: str = "") -> None:
    lines = [f"# config_hash={config_hash}"] + [f"{lb.pair_id}\t{lb.pattern_id}" for lb in labels]
    write_text(path, "\n".join(lines) + "\n")


def load_labels(path: str | Path) -> list[PatternLabel]:
    """Read `pair_id<TAB>pattern_id` lines, each pair id once, after an optional
    `# config_hash=` first line."""
    labels, seen = [], set()
    for line_no, line in read_lines(path):
        if line_no == 1 and line.startswith("# config_hash=") and "\t" not in line:
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise DataError(f"{path}:{line_no}: expected pair_id<TAB>pattern_id")
        if fields[0] in seen:
            raise DataError(f"{path}:{line_no}: duplicate pair_id {fields[0]!r}")
        seen.add(fields[0])
        try:
            labels.append(PatternLabel(pair_id=fields[0], pattern_id=int(fields[1])))
        except ValueError as exc:
            raise DataError(f"{path}:{line_no}: bad pattern_id {fields[1]!r}") from exc
    return labels
