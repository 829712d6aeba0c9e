import json
from pathlib import Path

import pytest

from patternqr.gateway import Gateway, MockBackend, MockScript
from patternqr.index import Document, build_index
from patternqr.induction import default_library

SEED_PATTERN_NAMES = [
    "Clarify Intent",
    "Clarify Subject",
    "Conceptual Shift",
    "Contextual Expansion",
    "Contextual Restriction",
    "Generalization",
    "Location Specification",
    "Purpose Specification",
    "Semantic Clarification",
    "Temporal Adjustment",
]


@pytest.fixture
def tiny_index():
    return build_index([Document("d1", "cat sat"), Document("d2", "dog sat sat")])


@pytest.fixture
def half_write_text(monkeypatch):
    """`Path.write_text` writes the first half of its data, then fails as on a full disk."""

    def write_half_then_fail(self, data, *args, **kwargs):
        with open(self, "w", encoding="utf-8") as fh:
            fh.write(data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)


@pytest.fixture
def seed_library():
    return default_library()


@pytest.fixture
def mock_gateway_factory():
    def make(entries=None, fallback=None, model="mock-model", **kwargs):
        script = MockScript(entries=dict(entries or {}), fallback=fallback)
        return Gateway(MockBackend(script), model=model, **kwargs)

    return make


def consolidation_payload(names, example=("q", "q rewritten")):
    """A well-formed consolidation response carrying the given pattern names."""
    patterns = [
        {
            "name": name,
            "description": f"{name} description",
            "rule": f"{name} rule",
            "examples": [{"query": example[0], "reformulation": example[1]}],
        }
        for name in names
    ]
    return json.dumps({"Consolidated Patterns": patterns})
