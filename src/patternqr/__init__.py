"""Pattern-guided query reformulation toolkit.

Learns a compact library of explicit reformulation patterns from
(query, stronger-reformulation) pairs, selects a pattern for a new query
from its retrieval context, generates a pattern-constrained rewrite with an
LLM, and evaluates the resulting hybrid queries against classical feedback
baselines with TREC-style metrics.
"""

from .errors import (
    ConfigError,
    DataError,
    GatewayError,
    MockMissError,
    PatternQRError,
    ProtocolError,
    TransportError,
)
from .evaluation import (
    MetricsReport,
    average_precision_at_k,
    evaluate_run,
    ndcg_at_k,
    parse_qrels,
    parse_run,
    recall_at_k,
    write_run,
)
from .feedback import WeightedQuery, rm3_expand, rocchio_expand
from .gateway import (
    ChatMessage,
    ChatRequest,
    ChatResponse,
    Gateway,
    GatewayConfig,
    HttpBackend,
    MockBackend,
    MockScript,
    fingerprint,
)
from .generator import (
    Reformulation,
    build_generation_prompt,
    compose_hybrid,
    generate_reformulation,
)
from .index import (
    Document,
    InvertedIndex,
    RetrievalContext,
    bm25_score,
    build_index,
    retrieve_topk,
    tokenize,
)
from .induction import (
    PatternLabel,
    PatternLibrary,
    ReformulationPattern,
    TrainingPair,
    default_library,
    induce_patterns,
    ingest_pairs,
    label_pair,
    load_library,
    save_library,
)
from .pipeline import PipelineConfig, run_pipeline
from .selector import (
    ModelSelector,
    PatternDistribution,
    PromptSelector,
    SelectorModel,
    featurize,
    predict_distribution,
    select_pattern,
    train_selector,
)

__version__ = "0.1.0"

__all__ = [
    "ChatMessage",
    "ChatRequest",
    "ChatResponse",
    "ConfigError",
    "DataError",
    "Document",
    "Gateway",
    "GatewayConfig",
    "GatewayError",
    "HttpBackend",
    "InvertedIndex",
    "MetricsReport",
    "MockBackend",
    "MockMissError",
    "MockScript",
    "ModelSelector",
    "PatternDistribution",
    "PatternLabel",
    "PatternLibrary",
    "PatternQRError",
    "PipelineConfig",
    "PromptSelector",
    "ProtocolError",
    "Reformulation",
    "ReformulationPattern",
    "RetrievalContext",
    "SelectorModel",
    "TrainingPair",
    "TransportError",
    "WeightedQuery",
    "average_precision_at_k",
    "bm25_score",
    "build_generation_prompt",
    "build_index",
    "compose_hybrid",
    "default_library",
    "evaluate_run",
    "featurize",
    "fingerprint",
    "generate_reformulation",
    "induce_patterns",
    "ingest_pairs",
    "label_pair",
    "load_library",
    "ndcg_at_k",
    "parse_qrels",
    "parse_run",
    "predict_distribution",
    "recall_at_k",
    "retrieve_topk",
    "rm3_expand",
    "rocchio_expand",
    "run_pipeline",
    "save_library",
    "select_pattern",
    "tokenize",
    "train_selector",
    "write_run",
]
