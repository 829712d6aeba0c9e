"""Which program functions the traced run wraps, which layers each workload is
predicted to use, and the per-layer metrics derived from the recorded spans.

Functions are wrapped at the names where the program looks them up (for
example `patternqr.pipeline.retrieve_topk`, which the pipeline imported from
`patternqr.index`), so a refactor that moves a lookup site leaves a
predicted span with zero calls and `check_mapping` reports it.
"""

from __future__ import annotations

import math
import statistics

from spans import Span, max_overlap, self_times

K_CONTEXT = 3
K_EVAL = 1000

# Span keys: the span name, with retrieval split by its k.
KEYS = (
    "pipeline.run",
    "index.build",
    "index.retrieve.k_eval",
    "index.retrieve.k_context",
    "feedback.rm3",
    "feedback.rocchio",
    "gateway.complete",
    "gateway.send",
    "gateway.send.mock",
    "selector.featurize",
    "selector.predict",
    "selector.train",
    "generator.generate",
    "induction.induce",
    "induction.label",
    "induction.label_pair",
    "evaluation.evaluate",
    "evaluation.write_run",
)

_PIPELINE = {
    "pipeline.run",
    "index.build",
    "index.retrieve.k_eval",
    "evaluation.evaluate",
    "evaluation.write_run",
}
# Every key not predicted present on a workload is predicted absent there.
PRESENT = {
    "prf": _PIPELINE | {"feedback.rm3", "feedback.rocchio"},
    # The learning stage calls the mock backend, the pipeline the HTTP one.
    "reformer": _PIPELINE
    | {
        "gateway.complete",
        "gateway.send",
        "gateway.send.mock",
        "index.retrieve.k_context",
        "selector.featurize",
        "selector.predict",
        "selector.train",
        "generator.generate",
        "induction.induce",
        "induction.label",
        "induction.label_pair",
    },
}

def install(recorder, patternqr) -> None:
    """Wrap the program's layer entry points at their lookup sites."""
    pipeline, index, feedback = patternqr.pipeline, patternqr.index, patternqr.feedback
    gateway, selector, induction = patternqr.gateway, patternqr.selector, patternqr.induction

    def retrieval(args, kwargs, result):
        idx, query = args[0], args[1] if len(args) > 1 else kwargs["query"]
        k = args[2] if len(args) > 2 else kwargs["k"]
        weights = index.query_term_weights(query) if isinstance(query, str) else query
        postings = sum(idx.document_frequency(t) for t, w in weights.items() if w != 0.0)
        return {"k": k, "entries": len(result.entries), "postings": postings}

    def usage(args, kwargs, result):
        return {
            "prompt_tokens": result.usage.prompt_tokens,
            "completion_tokens": result.usage.completion_tokens,
        }

    def training(args, kwargs, result):
        hyper = args[2] if len(args) > 2 else kwargs.get("hyper", selector.TrainConfig())
        return {"examples": len(args[0]), "epochs": hyper.epochs}

    wrap = recorder.wrap
    wrap(pipeline, "run_pipeline", "pipeline.run")
    wrap(pipeline, "build_index", "index.build")
    wrap(index, "build_index", "index.build")
    for owner in (pipeline, feedback, index):
        wrap(owner, "retrieve_topk", "index.retrieve", retrieval)
    wrap(pipeline, "rm3_expand", "feedback.rm3", lambda a, kw, r: {"terms": len(r.terms)})
    wrap(pipeline, "rocchio_expand", "feedback.rocchio", lambda a, kw, r: {"terms": len(r.terms)})
    wrap(gateway.Gateway, "complete", "gateway.complete")
    wrap(gateway.HttpBackend, "send", "gateway.send", usage)
    wrap(gateway.MockBackend, "send", "gateway.send.mock", usage)
    wrap(selector, "featurize", "selector.featurize", lambda a, kw, r: {"active": r.indices.size})
    wrap(selector, "predict_distribution", "selector.predict")
    wrap(selector, "train_selector", "selector.train", training)
    wrap(
        pipeline,
        "generate_reformulation",
        "generator.generate",
        lambda a, kw, r: {"fallback": r.fallback},
    )
    wrap(induction, "induce_patterns", "induction.induce")
    wrap(induction, "label_pairs", "induction.label")
    wrap(induction, "label_pair", "induction.label_pair")
    wrap(pipeline, "evaluate_run", "evaluation.evaluate", lambda a, kw, r: {"judged": r.num_judged})
    wrap(pipeline, "write_run", "evaluation.write_run")


def key_of(span: Span) -> str:
    if span.name == "index.retrieve":
        return {K_EVAL: "index.retrieve.k_eval", K_CONTEXT: "index.retrieve.k_context"}.get(
            span.attrs.get("k"), "index.retrieve.feedback"
        )
    return span.name


def check_mapping(workload: str, spans: list[Span]) -> list[str]:
    """Errors for predicted layers with zero calls and predicted-absent layers with calls."""
    counts = {key: 0 for key in KEYS}
    for span in spans:
        if key_of(span) in counts:
            counts[key_of(span)] += 1
    errors = []
    for key in KEYS:
        if key in PRESENT[workload] and counts[key] == 0:
            errors.append(f"trace: {key} is predicted on {workload} but recorded 0 calls")
        if key not in PRESENT[workload] and counts[key] != 0:
            errors.append(
                f"trace: {key} is predicted absent on {workload} but recorded {counts[key]} calls"
            )
    return errors


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def span_metrics(reps: list[list[Span]], passes: float = 1.0) -> dict[str, float]:
    """Per-layer metrics from the spans of traced repetitions that make up
    `passes` passes over the workload's parts.

    Counts are per pass; latency percentiles pool every repetition's spans.
    """
    by_key: dict[str, list[tuple[Span, float, list[Span]]]] = {}
    for spans in reps:
        selfs = self_times(spans)
        children: list[list[Span]] = [[] for _ in spans]
        for span in spans:
            if span.parent is not None:
                children[span.parent].append(span)
        for i, span in enumerate(spans):
            by_key.setdefault(key_of(span), []).append((span, selfs[i], children[i]))

    def of(key):
        return by_key.get(key, [])

    def ms(key, self_time=False):
        return [1000.0 * (s if self_time else span.duration) for span, s, _ in of(key)]

    def seconds(key):
        return median_or_zero([span.duration for span, _, _ in of(key)])

    def per_pass(count):
        return count / passes

    def values(key, field):
        """The attr of every span of `key` that completed (failed spans carry none)."""
        return [span.attrs[field] for span, _, _ in of(key) if field in span.attrs]

    def child_count(key, name):
        """Per span of `key`: how many direct children named `name` it has."""
        return [sum(c.name == name for c in kids) for _, _, kids in of(key)]

    def median_or_zero(values):
        return statistics.median(values) if values else 0.0

    built = sum(sum(values(key, "entries")) for key in by_key if key.startswith("index.retrieve"))
    used = sum(values("index.retrieve.k_context", "entries"))
    complete = of("gateway.complete")
    sends = of("gateway.send") + of("gateway.send.mock")
    # Latency is that of the HTTP path: calls with at least one HTTP attempt.
    http_ms = [
        1000.0 * span.duration
        for span, _, kids in complete
        if any(kid.name == "gateway.send" for kid in kids)
    ]
    generated = values("generator.generate", "fallback")
    fallbacks = sum(generated)
    return {
        "index.build.s": seconds("index.build"),
        "index.retrieve.k_eval.calls": per_pass(len(of("index.retrieve.k_eval"))),
        "index.retrieve.k_eval.p50_ms": percentile(ms("index.retrieve.k_eval"), 50),
        "index.retrieve.k_eval.p99_ms": percentile(ms("index.retrieve.k_eval"), 99),
        "index.retrieve.postings_per_query": _mean(values("index.retrieve.k_eval", "postings")),
        "index.retrieve.k_context.calls": per_pass(len(of("index.retrieve.k_context"))),
        "index.retrieve.k_context.p50_ms": percentile(ms("index.retrieve.k_context"), 50),
        "index.retrieve.k_context.p99_ms": percentile(ms("index.retrieve.k_context"), 99),
        "index.snippets.used_ratio": used / built if built else 0.0,
        "feedback.rm3.calls": per_pass(len(of("feedback.rm3"))),
        "feedback.rm3.self_p50_ms": percentile(ms("feedback.rm3", True), 50),
        "feedback.rm3.self_p99_ms": percentile(ms("feedback.rm3", True), 99),
        "feedback.rocchio.calls": per_pass(len(of("feedback.rocchio"))),
        "feedback.rocchio.self_p50_ms": percentile(ms("feedback.rocchio", True), 50),
        "feedback.rocchio.self_p99_ms": percentile(ms("feedback.rocchio", True), 99),
        "feedback.expanded_terms": _mean(
            values("feedback.rm3", "terms") + values("feedback.rocchio", "terms")
        ),
        "gateway.calls": per_pass(len(complete)),
        "gateway.attempts": per_pass(len(sends)),
        "gateway.retries": per_pass(
            sum(
                max(0, sum(kid.name.startswith("gateway.send") for kid in kids) - 1)
                for _, _, kids in complete
            )
        ),
        "gateway.failures": per_pass(sum(bool(span.error) for span, _, _ in complete)),
        "gateway.latency.p50_ms": percentile(http_ms, 50),
        "gateway.latency.p99_ms": percentile(http_ms, 99),
        "gateway.backend.p50_ms": percentile(ms("gateway.send"), 50),
        "gateway.in_flight.max": float(
            max(
                (
                    max_overlap([(s.start, s.end) for s in spans if s.name == "gateway.complete"])
                    for spans in reps
                ),
                default=0,
            )
        ),
        "gateway.prompt_tokens": per_pass(
            sum(span.attrs.get("prompt_tokens", 0) for span, _, _ in sends)
        ),
        "gateway.completion_tokens": per_pass(
            sum(span.attrs.get("completion_tokens", 0) for span, _, _ in sends)
        ),
        "selector.featurize.p50_ms": percentile(ms("selector.featurize"), 50),
        "selector.active_features": _mean(values("selector.featurize", "active")),
        "selector.predict.self_p50_ms": percentile(ms("selector.predict", True), 50),
        "selector.train.s": seconds("selector.train"),
        "selector.train.epoch_s": _mean(
            [s / span.attrs["epochs"] for span, s, _ in of("selector.train") if span.attrs]
        ),
        "selector.train.examples": _mean(values("selector.train", "examples")),
        "generator.self_p50_ms": percentile(ms("generator.generate", True), 50),
        "generator.reasks": per_pass(
            sum(c > 1 for c in child_count("generator.generate", "gateway.complete"))
        ),
        "generator.fallbacks": per_pass(fallbacks),
        "generator.useful_ratio": 1.0 - fallbacks / len(generated) if generated else 0.0,
        "induction.induce.s": seconds("induction.induce"),
        "induction.consolidate.calls": per_pass(
            sum(child_count("induction.induce", "gateway.complete"))
        ),
        "induction.label.s": seconds("induction.label"),
        "induction.label.calls": per_pass(len(of("induction.label_pair"))),
        "induction.label.reasks": per_pass(
            sum(c > 1 for c in child_count("induction.label_pair", "gateway.complete"))
        ),
        "evaluation.evaluate.s": seconds("evaluation.evaluate"),
        "evaluation.write_run.s": seconds("evaluation.write_run"),
        "evaluation.judged": _mean(values("evaluation.evaluate", "judged")),
        "pipeline.self.s": median_or_zero([s for _, s, _ in of("pipeline.run")]),
    }


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0
