"""End-to-end experiment driver: retrieve context, select a pattern, generate
the rewrite, compose the hybrid query, retrieve again, evaluate.

Every artifact a run produces (run file, reformulation log, metrics CSV)
embeds the digest of the settings that decide it, and the same settings give
the same artifacts, byte for byte, against a mock gateway.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import typing
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

from . import evaluation, feedback
from .artifacts import UNWRITABLE
from .errors import ConfigError, DataError, GatewayError, PatternQRError
from .evaluation import (
    MetricsReport,
    Ranking,
    Run,
    evaluate_run,
    parse_qrels,
    write_report_csv,
    write_run,
)
from .feedback import rm3_expand, rocchio_expand
from .gateway import ChatRequest, ChatResponse, Gateway, GatewayConfig
from .generator import Reformulation, generate_reformulation, write_reformulation_log
from .index import (
    DEFAULT_B,
    DEFAULT_K1,
    InvertedIndex,
    build_index,
    iter_corpus_tsv,
    load_index,
    read_queries_tsv,
    retrieve_topk,
)
from .induction import PatternLibrary, default_library, load_library
from .selector import ModelSelector, PromptSelector, load_model

MODES = ("bm25", "rm3", "rocchio", "reformer", "reformer+hook")
REFORMER_MODES = ("reformer", "reformer+hook")
SELECTORS = ("model", "prompt")


@dataclass(frozen=True)
class PipelineConfig:
    queries: str
    corpus: str | None = None  # exactly one of corpus and index
    index: str | None = None
    mode: str = "bm25"
    qrels: str | None = None
    library: str | None = None
    selector_model: str | None = None
    selector: str = "model"  # one of SELECTORS
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    k_context: int = 3
    k_eval: int = 1000
    repetition: int = 1
    hook_file: str | None = None
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    fb_docs: int = feedback.DEFAULT_FB_DOCS
    fb_terms: int = feedback.DEFAULT_FB_TERMS
    orig_weight: float = feedback.DEFAULT_ORIG_WEIGHT
    alpha: float = feedback.DEFAULT_ALPHA
    beta: float = feedback.DEFAULT_BETA
    binarize_at: int = evaluation.DEFAULT_BINARIZE_AT
    out_dir: str = "."

    def validate(self) -> None:
        check_ranges({**vars(self), **vars(self.gateway)})
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if bool(self.corpus) == bool(self.index):
            given = "both" if self.corpus else "neither"
            raise ConfigError(f"give exactly one of a corpus and an index file, got {given}")
        if not self.queries:
            raise ConfigError("queries path is required")
        for label, path in (
            ("corpus", self.corpus),
            ("index", self.index),
            ("queries", self.queries),
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
            if self.selector == "model" and not self.selector_model:
                raise ConfigError("selector='model' requires a selector model file")
            self.gateway.check_backend()


_COUNTS = (
    "repetition", "k_context", "k_eval", "fb_docs", "fb_terms", "binarize_at",
    "epochs", "batch_size", "max_patterns", "sample", "max_retries", "max_in_flight",
)
_UNHASHED = {"out", "out_dir", "csv", "loss_csv", "transcript", "api_key",
             "max_in_flight", "max_retries", "handler", "command"}


def check_ranges(settings: Mapping[str, object]) -> None:
    """Raise a ConfigError for the first numeric setting in `settings` that is out
    of range, for PipelineConfig and every subcommand; other keys and None values
    (a `run` flag not given) are skipped."""
    for name, value in settings.items():
        if value is None:
            continue
        if name in _COUNTS and value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
        if name in ("k1", "alpha", "beta", "decay", "l2") and not 0.0 <= value < math.inf:
            raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if name == "learning_rate" and not 0.0 < value < math.inf:
            raise ConfigError(f"{name} must be finite and > 0, got {value}")
        if name in ("b", "orig_weight") and not 0.0 <= value <= 1.0:
            raise ConfigError(f"{name} must lie in [0, 1], got {value}")


def settings_hash(settings: Mapping) -> str:
    """Stable 12-hex-digit digest of `settings` for every artifact, without the names in
    `_UNHASHED` at any depth: where output goes, what changes no artifact byte, CLI plumbing."""
    def kept(mapping):
        return {k: kept(v) if isinstance(v, Mapping) else v
                for k, v in mapping.items() if k not in _UNHASHED}
    canonical = json.dumps(kept(settings), sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def config_hash(config: PipelineConfig) -> str:
    return settings_hash(asdict(config))


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


def open_index(corpus: str | None, index: str | None, k1: float, b: float) -> InvertedIndex:
    """Load the index file `index`, or build an index from `corpus`. A loaded index
    must have the `k1` and `b` given, as they name the ranking in its digest."""
    if not index:
        return build_index(iter_corpus_tsv(corpus), k1=k1, b=b)
    loaded = load_index(index)
    if (loaded.k1, loaded.b) != (k1, b):
        raise ConfigError(
            f"index {index} has k1={loaded.k1} and b={loaded.b}, not k1={k1} and b={b}: "
            f"pass --k1 {loaded.k1} --b {loaded.b}, or index the corpus again"
        )
    return loaded


def load_hook_passages(path: str | Path) -> dict[str, str]:
    """Hook input: `query_id<TAB>pseudo-passage text` per line."""
    return dict(read_queries_tsv(path))


def _build_selector(config: PipelineConfig, library: PatternLibrary) -> ModelSelector | None:
    """The model selector `config` names; None for the prompt selector, which each
    query of `rank_queries` builds on its own turn-taking gateway."""
    if config.selector == "prompt":
        return None
    if not config.selector_model:
        raise ConfigError("selector='model' requires a selector model file")
    model = load_model(config.selector_model)
    try:
        return ModelSelector(model, library)
    except PatternQRError as exc:
        _rewrap(f"selector model {config.selector_model}", exc)


class Reformer(typing.NamedTuple):
    """What a reformer run reads besides its queries and index."""

    library: PatternLibrary
    gateway: Gateway
    selector: ModelSelector | None  # None: a PromptSelector per query
    hook: dict[str, str]


def load_reformer(config: PipelineConfig) -> Reformer:
    """Read the pattern library, the mock script, the selector model and the hook
    passages that `config` names, and build the gateway and the model selector."""
    library = load_library(config.library) if config.library else default_library()
    gateway = config.gateway.build()
    selector = _build_selector(config, library)
    hook = load_hook_passages(config.hook_file) if config.mode == "reformer+hook" else {}
    return Reformer(library, gateway, selector, hook)


class _Turns:
    """When each query of `rank_queries` may call the LLM. A query takes its
    turn at its first call and gives it back after its last, only within `window`
    places of the oldest query that has neither taken one nor ended, and while
    fewer than `window` queries hold one; after a failure, no later query takes one."""

    def __init__(self, count: int, window: int):
        self.window = window
        self.passed = [False] * count  # took its turn, or ended without one
        self.oldest = 0  # the first query not yet passed
        self.holding: set[int] = set()
        self.failures: dict[int, PatternQRError] = {}
        self.lock = threading.Condition()

    def start(self, i: int) -> bool:
        """Wait for query i's turn and take it; False, taking none, if an earlier query failed."""
        with self.lock:
            self.lock.wait_for(lambda: max(i - self.oldest, len(self.holding)) < self.window)
            if self.failures and i > min(self.failures):
                return False
            self.end(i)  # passes i, which holds its turn from here
            self.holding.add(i)
            return True

    def end(self, i: int) -> None:
        """Query i gives its turn back, or ends without one."""
        with self.lock:
            self.holding.discard(i)
            self.passed[i] = True
            while self.oldest < len(self.passed) and self.passed[self.oldest]:
                self.oldest += 1
            self.lock.notify_all()

    def fail(self, i: int, exc: PatternQRError) -> None:
        with self.lock:
            self.failures[i] = exc


class _Refused(Exception):
    """The query was refused its turn, as an earlier query has failed."""


class _QueryLLM:
    """The gateway as query i of `rank_queries` calls it: the first call takes the
    query's turn, outside `Gateway.complete`, so the wait holds no gateway slot."""

    def __init__(self, gateway: Gateway, turns: _Turns, i: int):
        self.gateway, self.turns, self.i, self.model = gateway, turns, i, gateway.model
        self.turn = False

    def complete(self, request: ChatRequest) -> ChatResponse:
        if not (self.turn or self.turns.start(self.i)):
            raise _Refused()
        self.turn = True
        return self.gateway.complete(request)


def rank_queries(
    config: PipelineConfig,
    index: InvertedIndex,
    queries: list[tuple[str, str]],
    tag: str,
    reformer: Reformer | None,
) -> tuple[Run, list[Reformulation]]:
    """Rank every query at k_eval the way `config.mode` prescribes, into a run tagged
    `tag`, and return the reformer modes' records in input order. A query ranks its
    text (bm25), its feedback expansion (rm3, rocchio) or its hybrid: retrieve
    context, select a pattern, generate the rewrite and its hybrid, give the LLM turn back.
    Queries that retrieve nothing are left out of the run. Reformer queries run on
    `2 * max_in_flight` threads in input order; only their LLM calls wait for a turn
    (`_Turns`), so while some wait on the LLM the others retrieve, select or rank.
    The other modes have no LLM wait to overlap, and run on the calling thread.
    The first failing query's error, in input order, is raised."""
    # Queries are independent, so running them concurrently and storing each
    # result at its index gives the serial ones.
    results: list = [None] * len(queries)  # (record or None, ranking or None) per query
    turns = _Turns(len(queries), config.gateway.max_in_flight)

    def reformulate(i: int, query_id: str, text: str) -> Reformulation:
        library, gateway, selector, hook = reformer
        llm = _QueryLLM(gateway, turns, i)
        chooser = selector or PromptSelector(llm, library)
        context = retrieve_topk(index, text, config.k_context, query_id=query_id)
        pattern = library.patterns[chooser.choose(text, context)]
        extra = [hook[query_id]] if query_id in hook else None
        reformulation = generate_reformulation(
            llm, text, context, pattern, query_id=query_id, extra_context=extra,
            repetition=config.repetition,
        )
        turns.end(i)
        return reformulation

    def rank(i: int) -> None:
        query_id, text = queries[i]
        record = None
        if config.mode == "rm3":
            terms: str | dict[str, float] = rm3_expand(
                index, text, config.fb_docs, config.fb_terms, config.orig_weight
            ).terms
        elif config.mode == "rocchio":
            terms = rocchio_expand(
                index, text, config.fb_docs, config.fb_terms, config.alpha, config.beta
            ).terms
        elif config.mode in REFORMER_MODES:
            record = reformulate(i, query_id, text)
            terms = record.hybrid_query
        else:
            terms = text
        ranked = retrieve_topk(index, terms, config.k_eval, query_id=query_id)
        ranking = Ranking(tuple(ranked.doc_ids), tuple(ranked.scores), tag)
        results[i] = record, ranking if ranking.doc_ids else None

    def attempt(i: int) -> None:
        try:
            rank(i)
        except _Refused:
            pass
        except PatternQRError as exc:
            turns.fail(i, exc)  # before the turn is given back
        finally:
            turns.end(i)

    if config.mode in REFORMER_MODES:
        with ThreadPoolExecutor(max_workers=2 * turns.window) as pool:
            # Re-raises, in input order, an error that is not a PatternQRError.
            list(pool.map(attempt, range(len(queries))))
    else:
        for i in range(len(queries)):
            attempt(i)
    if turns.failures:
        first = min(turns.failures)
        _rewrap(f"query {queries[first][0]}", turns.failures[first])
    run = {query_id: ranking for (query_id, _), (_, ranking) in zip(queries, results) if ranking}
    return run, [record for record, _ in results if record]


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute one experiment; returns paths of the emitted artifacts and the report."""
    config.validate()
    digest = config_hash(config)
    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (*UNWRITABLE, FileExistsError) as exc:  # FileExistsError: a file is there
        raise ConfigError(f"cannot make output directory {out_dir}: {exc.strerror or exc}") from exc
    run_path = out_dir / f"{config.mode}.run"
    log_path = out_dir / f"{config.mode}.reformulations.jsonl"
    report_path = out_dir / f"{config.mode}.metrics.csv"

    # Every input but the corpus or index file is read before the index is built
    # or loaded, and before any LLM call.
    queries = _stage("load-queries", read_queries_tsv, config.queries)
    qrels = _stage("load-qrels", parse_qrels, config.qrels) if config.qrels else None
    reformer = (
        _stage("load-reformer", load_reformer, config) if config.mode in REFORMER_MODES else None
    )
    index = _stage(
        "load-index" if config.index else "build-index",
        open_index, config.corpus, config.index, config.k1, config.b,
    )

    stage = "reformulate" if reformer else "retrieve"
    tag = f"{config.mode}-{digest}"
    run, records = _stage(stage, rank_queries, config, index, queries, tag, reformer)
    write_run(run, run_path)
    emitted_log = None
    if reformer:
        write_reformulation_log(records, log_path, config_hash=digest)
        emitted_log = log_path

    report = None
    emitted_report = None
    if qrels is not None:
        report = _stage(
            "evaluate", evaluate_run, run, qrels, binarize_at=config.binarize_at
        )
        write_report_csv(report, report_path, config_hash=digest)
        emitted_report = report_path

    return PipelineResult(
        run_path=run_path,
        log_path=emitted_log,
        report=report,
        report_path=emitted_report,
        config_hash=digest,
    )


def config_from_dict(payload: dict, cls=PipelineConfig):
    """Build config dataclass `cls` from a JSON-shaped dict (the config-file format):
    a key not given keeps its default, and a field that holds a dataclass takes its
    nested object through this function. An unknown or mistyped key is a config error."""
    what = cls.__name__.removesuffix("Config").lower() + " config"
    if not isinstance(payload, dict):
        raise ConfigError(f"{what} must be a JSON object, got {payload!r}")
    hints = typing.get_type_hints(cls)
    unknown = set(payload) - set(hints)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    values = {}
    for key, value in payload.items():
        if is_dataclass(hints[key]) and isinstance(value, dict):
            value = config_from_dict(value, hints[key])
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
