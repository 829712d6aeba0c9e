"""Host-speed probe: a fixed pure-Python retrieval loop, timed between repetitions.

On a shared host the CPU speed a process gets changes in spells of tens of
seconds to minutes (other tenants' load, clock frequency), by a quarter and
more, and that moves every timing of a run together. run.py times `probe()`
before every repetition and after the last one; `slowdown` is the mean probe
time over REFERENCE_S, and `scaled` rescales the CPU-busy share of a timed
region to a host at reference speed.

The probe is frozen benchmark code that imports nothing of the program, so a
change to the program moves the scaled timings exactly as it moves the raw
ones. Its loop mirrors the program's hot path: term-at-a-time BM25
accumulation into a dict, then a sort of the scored documents.
"""

from __future__ import annotations

import random
import statistics
import time

REFERENCE_S = 0.2

_rng = random.Random(1)
# Posting lists of Zipf-like lengths over 10k documents: (doc, tf) pairs.
_POSTINGS = [
    [(_rng.randrange(10_000), _rng.randrange(1, 5)) for _ in range(2_000 // (rank + 4) + 20)]
    for rank in range(1_500)
]
_DOC_NORMS = [0.25 + 1.5 * _rng.random() for _ in range(10_000)]
_QUERIES = [[_rng.randrange(1_500) for _ in range(60)] for _ in range(150)]


def probe() -> float:
    """Seconds one pass of the fixed loop takes now."""
    start = time.perf_counter()
    for query in _QUERIES:
        scores: dict[int, float] = {}
        for term in query:
            for doc, tf in _POSTINGS[term]:
                scores[doc] = scores.get(doc, 0.0) + tf * 2.2 / (tf + 1.2 * _DOC_NORMS[doc])
        sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))[:1000]
    return time.perf_counter() - start


def slowdown(probes: list[float]) -> float:
    """How much slower than reference speed the host ran: above 1 is slower."""
    return statistics.fmean(probes) / REFERENCE_S


def scaled(wall_s: float, cpu_s: float, slow: float) -> float:
    """`wall_s` with its CPU-busy share (cpu_s / wall_s, at most 1) divided by
    `slow`: the time the region would take on a host at reference speed.

    Time the process spent waiting (the stub's service time, I/O) is not
    scaled.
    """
    busy = min(1.0, cpu_s / wall_s) if wall_s > 0 else 0.0
    return wall_s * (1.0 - busy + busy / slow)
