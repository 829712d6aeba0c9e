"""End-to-end experiment driver: retrieve context, select a pattern, generate
the rewrite, compose the hybrid query, retrieve again, evaluate.

Every artifact a run produces (run file, reformulation log, metrics CSV)
embeds the hash of the producing configuration, and a fixed seed makes the
whole run bit-reproducible against a mock gateway.
"""

from __future__ import annotations

import hashlib
import json
import typing
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import evaluation, feedback
from .errors import ConfigError, DataError, GatewayError, PatternQRError
from .evaluation import (
    MetricsReport,
    evaluate_run,
    parse_qrels,
    run_from_rankings,
    write_report_csv,
    write_run,
)
from .feedback import rm3_expand, rocchio_expand
from .gateway import Gateway, GatewayConfig
from .generator import (
    ReformulationRecord,
    compose_hybrid,
    generate_reformulation,
    write_reformulation_log,
)
from .index import (
    DEFAULT_B,
    DEFAULT_K1,
    DEFAULT_SNIPPET_TOKENS,
    InvertedIndex,
    atomic_write,
    build_index,
    read_corpus_tsv,
    read_queries_tsv,
    retrieve_topk,
)
from .induction import PatternLibrary, default_library, load_library
from .selector import ModelSelector, PromptSelector, load_model

MODES = ("bm25", "rm3", "rocchio", "reformer", "reformer+hook")
REFORMER_MODES = ("reformer", "reformer+hook")
SELECTORS = ("model", "prompt")
SELECT_MODES = ("argmax", "sample")
DEFAULT_K_CONTEXT = 3
DEFAULT_K_EVAL = 1000


@dataclass(frozen=True)
class PipelineConfig:
    corpus: str
    queries: str
    mode: str = "bm25"
    qrels: str | None = None
    library: str | None = None
    selector_model: str | None = None
    selector: str = "model"  # one of SELECTORS
    select_mode: str = "argmax"  # one of SELECT_MODES
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    k_context: int = DEFAULT_K_CONTEXT
    k_eval: int = DEFAULT_K_EVAL
    repetition: int = 1
    seed: int = 0
    hook_file: str | None = None
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    snippet_tokens: int = DEFAULT_SNIPPET_TOKENS
    fb_docs: int = feedback.DEFAULT_FB_DOCS
    fb_terms: int = feedback.DEFAULT_FB_TERMS
    orig_weight: float = feedback.DEFAULT_ORIG_WEIGHT
    alpha: float = feedback.DEFAULT_ALPHA
    beta: float = feedback.DEFAULT_BETA
    binarize_at: int = evaluation.DEFAULT_BINARIZE_AT
    out_dir: str = "."

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        for label, path in (("corpus", self.corpus), ("queries", self.queries)):
            if not path:
                raise ConfigError(f"{label} path is required")
            if not Path(path).exists():
                raise ConfigError(f"{label} file {path} does not exist")
        for label, path in (
            ("qrels", self.qrels),
            ("library", self.library),
            ("selector model", self.selector_model),
            ("hook", self.hook_file),
        ):
            if path and not Path(path).exists():
                raise ConfigError(f"{label} file {path} does not exist")
        if self.mode == "reformer+hook" and not self.hook_file:
            raise ConfigError("mode reformer+hook requires a hook file")
        if self.mode in REFORMER_MODES:
            if self.selector not in SELECTORS:
                raise ConfigError(f"selector must be one of {SELECTORS}, got {self.selector!r}")
            if self.select_mode not in SELECT_MODES:
                raise ConfigError(
                    f"select_mode must be one of {SELECT_MODES}, got {self.select_mode!r}"
                )
            if self.selector == "model" and not self.selector_model:
                raise ConfigError("selector='model' requires a selector model file")
        if self.repetition < 1:
            raise ConfigError(f"repetition must be >= 1, got {self.repetition}")
        if self.k_context < 1 or self.k_eval < 1:
            raise ConfigError("k_context and k_eval must be >= 1")


def config_hash(config: PipelineConfig) -> str:
    """Stable 12-hex-digit digest of the full configuration."""
    canonical = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class PipelineResult:
    run_path: Path
    log_path: Path | None
    report: MetricsReport | None
    report_path: Path | None
    config_hash: str


def _rewrap(prefix: str, exc: PatternQRError):
    """Re-raise under the nearest top-level error class with added context."""
    for base in (ConfigError, DataError, GatewayError):
        if isinstance(exc, base):
            raise base(f"{prefix}: {exc}") from exc
    raise exc


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PatternQRError as exc:
        _rewrap(f"stage {name}", exc)


def _query_seed(run_seed: int, query_id: str) -> int:
    digest = hashlib.sha256(f"{run_seed}:{query_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def load_hook_passages(path: str | Path) -> dict[str, str]:
    """Hook input: `query_id<TAB>pseudo-passage text` per line."""
    return dict(read_queries_tsv(path))


def _build_selector(config: PipelineConfig, library: PatternLibrary, gateway: Gateway):
    if config.selector == "prompt":
        return PromptSelector(gateway, library)
    if not config.selector_model:
        raise ConfigError("selector='model' requires a selector model file")
    return ModelSelector(load_model(config.selector_model), library)


def reformulate_queries(
    config: PipelineConfig, index: InvertedIndex, queries: list[tuple[str, str]]
) -> list[ReformulationRecord]:
    """Per query: retrieve context, select a pattern, generate the rewrite, compose the hybrid.

    Up to `config.gateway.max_in_flight` queries run at once, on threads; the
    records keep the input order, and the first failing query's error is raised.
    """
    library = load_library(config.library) if config.library else default_library()
    gateway = config.gateway.build(jitter_seed=config.seed)
    selector = _build_selector(config, library, gateway)
    hook = load_hook_passages(config.hook_file) if config.mode == "reformer+hook" else {}

    def reformulate(query_id: str, text: str) -> ReformulationRecord:
        context = retrieve_topk(
            index, text, config.k_context, query_id=query_id, snippet_tokens=config.snippet_tokens
        )
        seed = _query_seed(config.seed, query_id) if config.select_mode == "sample" else None
        pattern_id = selector.choose(text, context, mode=config.select_mode, seed=seed)
        pattern = library.patterns[pattern_id]
        extra = [hook[query_id]] if query_id in hook else None
        reformulation = generate_reformulation(
            gateway, text, context, pattern, query_id=query_id, extra_context=extra
        )
        hybrid = compose_hybrid(text, reformulation.text, repetition=config.repetition)
        return ReformulationRecord(
            query_id=query_id,
            pattern_id=pattern.pattern_id,
            pattern_name=pattern.name,
            reformulation=reformulation.text,
            hybrid_query=hybrid.text,
            fallback=reformulation.fallback,
        )

    # Queries are independent and their seeds come from their ids, so running
    # them concurrently and collecting in input order gives the serial records.
    # At most `window` queries are submitted from the one collected next on, so
    # when a query fails, fewer than `window` later ones have started.
    window = config.gateway.max_in_flight
    pool = ThreadPoolExecutor(max_workers=window)
    pending: deque = deque()
    records: list[ReformulationRecord] = []

    def collect() -> None:
        query_id, future = pending.popleft()
        try:
            records.append(future.result())
        except PatternQRError as exc:
            _rewrap(f"query {query_id}", exc)

    try:
        for query_id, text in queries:
            if len(pending) == window:
                collect()
            pending.append((query_id, pool.submit(reformulate, query_id, text)))
        while pending:
            collect()
        return records
    finally:
        pool.shutdown(cancel_futures=True)


def rank_queries(
    config: PipelineConfig, index: InvertedIndex, queries: list[tuple[str, str]]
) -> tuple[dict[str, list[tuple[str, float]]], list[ReformulationRecord]]:
    """Rank every query at k_eval the way `config.mode` prescribes.

    Reformer modes retrieve with each query's hybrid rewrite and also return
    the reformulation records; rm3 and rocchio expand the query first.
    Queries that retrieve nothing are left out of the rankings.
    """
    records: list[ReformulationRecord] = []
    if config.mode in REFORMER_MODES:
        records = reformulate_queries(config, index, queries)
        queries = [(record.query_id, record.hybrid_query) for record in records]
    rankings: dict[str, list[tuple[str, float]]] = {}
    for query_id, text in queries:
        try:
            if config.mode == "rm3":
                terms: str | dict[str, float] = rm3_expand(
                    index, text, config.fb_docs, config.fb_terms, config.orig_weight
                ).terms
            elif config.mode == "rocchio":
                terms = rocchio_expand(
                    index, text, config.fb_docs, config.fb_terms, config.alpha, config.beta
                ).terms
            else:
                terms = text
            result = retrieve_topk(index, terms, config.k_eval, query_id=query_id)
            if result.entries:
                rankings[query_id] = [(e.doc_id, e.score) for e in result.entries]
        except PatternQRError as exc:
            _rewrap(f"query {query_id}", exc)
    return rankings, records


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute one experiment; returns paths of the emitted artifacts and the report."""
    config.validate()
    digest = config_hash(config)
    tag = f"{config.mode}-{digest}"
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_path = out_dir / f"{config.mode}.run"
    log_path = out_dir / f"{config.mode}.reformulations.jsonl"
    report_path = out_dir / f"{config.mode}.metrics.csv"

    docs = _stage("load-corpus", read_corpus_tsv, config.corpus)
    index = _stage("build-index", build_index, docs, config.k1, config.b)
    queries = _stage("load-queries", read_queries_tsv, config.queries)

    reformer = config.mode in REFORMER_MODES
    stage = "reformulate" if reformer else "retrieve"
    rankings, records = _stage(stage, rank_queries, config, index, queries)

    run = run_from_rankings(rankings, tag=tag)
    atomic_write(run_path, lambda p: write_run(run, p))
    emitted_log = None
    if reformer:
        atomic_write(log_path, lambda p: write_reformulation_log(records, p, config_hash=digest))
        emitted_log = log_path

    report = None
    emitted_report = None
    if config.qrels:
        qrels = _stage("load-qrels", parse_qrels, config.qrels)
        report = _stage(
            "evaluate", evaluate_run, run, qrels, binarize_at=config.binarize_at
        )
        atomic_write(report_path, lambda p: write_report_csv(report, p, config_hash=digest))
        emitted_report = report_path

    return PipelineResult(
        run_path=run_path,
        log_path=emitted_log,
        report=report,
        report_path=emitted_report,
        config_hash=digest,
    )


def _from_dict(cls, payload, what: str):
    """Build dataclass `cls` from a JSON object, naming any unknown or mistyped key."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{what} must be a JSON object, got {payload!r}")
    hints = typing.get_type_hints(cls)
    unknown = set(payload) - set(hints)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    values = {}
    for key, value in payload.items():
        allowed = typing.get_args(hints[key]) or (hints[key],)
        if float in allowed and isinstance(value, int) and not isinstance(value, bool):
            # `1` and `1.0` (what a float flag gives) must hash alike.
            value = float(value)
        # No field is a bool, and a JSON true/false would pass as an int.
        if isinstance(value, bool) or not isinstance(value, allowed):
            expected = getattr(hints[key], "__name__", hints[key])
            raise ConfigError(f"{what} key {key!r} must be {expected}, got {value!r}")
        values[key] = value
    try:
        return cls(**values)
    except TypeError as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def config_from_dict(payload: dict) -> PipelineConfig:
    """Build a PipelineConfig from a JSON-shaped dict (the config-file format)."""
    if isinstance(payload, dict) and isinstance(payload.get("gateway"), dict):
        gateway = _from_dict(GatewayConfig, payload["gateway"], "gateway config")
        payload = {**payload, "gateway": gateway}
    return _from_dict(PipelineConfig, payload, "pipeline config")
