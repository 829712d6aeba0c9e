"""Command-line driver.

Each subcommand is a thin wrapper over one library operation; `run` is the one
that ranks queries, through `pipeline.run_pipeline`, from a corpus or a saved
index. A flag that sets a config field takes its name, type and default from
the dataclass field. `run` has one flag per PipelineConfig field, gateway fields
included, and reads an optional JSON config file that mirrors PipelineConfig.
Every config a subcommand builds goes through `_config`: defaults < environment
(gateway settings) < config file < flags, then `pipeline.config_from_dict`, so an
unknown or mistyped config key is a config error. `main` range-checks every
subcommand's settings before its handler runs. Exit codes: 0 success, 2 config
error, 3 data error, 4 gateway error.
"""

from __future__ import annotations

import argparse
import sys
import typing
from dataclasses import asdict, fields, is_dataclass, replace

from . import evaluation, induction, pipeline, selector
from .artifacts import read_json
from .errors import ConfigError, DataError, GatewayError
from .gateway import GatewayConfig
from .index import retrieve_topk, save_index
from .pipeline import PipelineConfig, settings_hash


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        pipeline.check_ranges(vars(args))
        args.handler(args)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except GatewayError as exc:
        print(f"gateway error: {exc}", file=sys.stderr)
        return 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patternqr",
        description="Pattern-guided query reformulation experiments",
    )
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("index", help="build and save an inverted index from a corpus TSV")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    _add_field_flags(p, PipelineConfig, "k1", "b")
    p.set_defaults(handler=_cmd_index)

    p = sub.add_parser("induce", help="induce a pattern library from training pairs")
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--batch-size", type=int, default=induction.DEFAULT_BATCH_SIZE)
    p.add_argument("--max-patterns", type=int, default=induction.DEFAULT_MAX_PATTERNS)
    p.add_argument("--sample", type=int, default=None, help="sample this many pairs first")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--existing", default=None, help="prior library to consolidate into")
    p.add_argument("--transcript", default=None, help="JSONL transcript of every LLM call")
    p.add_argument("--source-dataset", default="", help="provenance label for the library")
    _add_field_flags(p, GatewayConfig, unset=True)
    p.set_defaults(handler=_cmd_induce)

    p = sub.add_parser("label", help="label each pair with its library pattern")
    p.add_argument("--pairs", required=True)
    p.add_argument("--library", required=True)
    p.add_argument("--out", required=True)
    _add_field_flags(p, GatewayConfig, unset=True)
    p.set_defaults(handler=_cmd_label)

    p = sub.add_parser("train-selector", help="train the pattern selector on labeled pairs")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--corpus", help="corpus TSV to index on the fly")
    group.add_argument("--index", help="previously saved index file")
    _add_field_flags(p, PipelineConfig, "k1", "b")
    p.add_argument("--pairs", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--library", default=None, help="defaults to the packaged seed library")
    _add_field_flags(p, PipelineConfig, "k_context")
    _add_field_flags(p, selector.TrainConfig)
    p.add_argument("--out", required=True)
    p.add_argument("--loss-csv", default=None)
    p.set_defaults(handler=_cmd_train_selector)

    p = sub.add_parser("run", help="rank the queries in one mode, from a corpus or an index")
    p.add_argument("--config", default=None, help="JSON config file (flags win over it)")
    _add_field_flags(p, PipelineConfig, unset=True)
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("evaluate", help="score a run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    _add_field_flags(p, PipelineConfig, "binarize_at")
    p.add_argument("--csv", default=None)
    p.set_defaults(handler=_cmd_evaluate)

    return parser


def _add_field_flags(p: argparse.ArgumentParser, cls, *names: str, unset=False) -> None:
    """A `--field-name` flag for each named field of dataclass `cls`, or for every
    field, nested dataclasses flattened, if none is named. Each is typed like its
    field and defaults to the field's default; with `unset` it defaults to None,
    so a flag not given overrides nothing."""
    hints = typing.get_type_hints(cls)
    defaults = {f.name: f.default for f in fields(cls)}
    for name in names or hints:
        hint = hints[name]
        if is_dataclass(hint):
            _add_field_flags(p, hint, unset=unset)
            continue
        kind = next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
        default = None if unset else defaults[name]
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=kind, default=default)


def _given_flags(args, cls) -> dict:
    """The flags of `_add_field_flags(p, cls, unset=True)` that were given, shaped like `cls`."""
    given = {}
    for name, hint in typing.get_type_hints(cls).items():
        value = _given_flags(args, hint) if is_dataclass(hint) else getattr(args, name)
        if value is not None and value != {}:
            given[name] = value
    return given


def _overlay(*layers: dict) -> dict:
    """Merge settings left to right, later layers winning; objects merge key by key."""
    merged: dict = {}
    for layer in layers:
        for key, value in layer.items():
            if isinstance(value, dict) and isinstance(merged.get(key), dict):
                value = _overlay(merged[key], value)
            merged[key] = value
    return merged


def _config(cls, args, *layers: dict):
    """Config dataclass `cls` from its defaults, then `layers` in order, then the flags
    of `args` that were given."""
    return pipeline.config_from_dict(_overlay(*layers, _given_flags(args, cls)), cls)


def _cmd_index(args) -> None:
    index = pipeline.open_index(args.corpus, None, args.k1, args.b)
    save_index(index, args.out, config_hash=settings_hash(vars(args)))
    print(f"indexed {index.num_docs} documents -> {args.out}")


def _cmd_induce(args) -> None:
    pairs = induction.ingest_pairs(args.pairs)
    if args.sample is not None:
        pairs = induction.sample_pairs(pairs, args.sample, seed=args.seed)
    gateway_config = _config(GatewayConfig, args, asdict(GatewayConfig.from_env()))
    gateway = gateway_config.build(jitter_seed=args.seed)
    existing = induction.load_library(args.existing) if args.existing else None
    library = induction.induce_patterns(
        pairs,
        gateway,
        batch_size=args.batch_size,
        existing=existing,
        max_patterns=args.max_patterns,
        transcript_path=args.transcript,
    )
    provenance = replace(
        library.provenance, source_dataset=args.source_dataset or library.provenance.source_dataset
    )
    digest = settings_hash({**vars(args), **asdict(gateway_config)})
    library = replace(library, provenance=provenance, config_hash=digest)
    induction.save_library(library, args.out)
    print(f"induced {len(library)} patterns -> {args.out}")


def _cmd_label(args) -> None:
    pairs = induction.ingest_pairs(args.pairs)
    library = induction.load_library(args.library)
    gateway_config = _config(GatewayConfig, args, asdict(GatewayConfig.from_env()))
    labels = induction.label_pairs(pairs, library, gateway_config.build())
    digest = settings_hash({**vars(args), **asdict(gateway_config)})
    induction.save_labels(labels, args.out, config_hash=digest)
    print(f"labeled {len(labels)} pairs -> {args.out}")


def _cmd_train_selector(args) -> None:
    pairs = induction.ingest_pairs(args.pairs)
    labels = {lb.pair_id: lb.pattern_id for lb in induction.load_labels(args.labels)}
    library = (
        induction.load_library(args.library) if args.library else induction.default_library()
    )
    missing = [p.pair_id for p in pairs if p.pair_id not in labels]
    if missing:
        raise DataError(f"no label for pairs: {missing[:10]}")
    for pair in pairs:
        if not 0 <= labels[pair.pair_id] < len(library):
            raise DataError(f"{args.labels}: pair {pair.pair_id!r} has label "
                            f"{labels[pair.pair_id]}, not a pattern id in [0, {len(library)})")
    hyper = _config(selector.TrainConfig, args)
    index = pipeline.open_index(args.corpus, args.index, args.k1, args.b)
    examples = []
    for pair in pairs:
        context = retrieve_topk(index, pair.query, args.k_context, query_id=pair.pair_id)
        examples.append((pair.query, context, labels[pair.pair_id]))
    model, history = selector.train_selector(examples, library, hyper)
    digest = settings_hash(vars(args))
    selector.save_model(model, args.out, config_hash=digest)
    if args.loss_csv:
        selector.write_loss_curve(history, args.loss_csv, config_hash=digest)
    print(f"trained on {len(examples)} examples, final loss {history[-1]:.6f} -> {args.out}")


def _cmd_run(args) -> None:
    layers = [{"gateway": asdict(GatewayConfig.from_env())}]
    if args.config:
        layers.append(read_json(args.config, "config file", ConfigError))
    result = pipeline.run_pipeline(_config(PipelineConfig, args, *layers))
    print(f"run file: {result.run_path}")
    if result.log_path:
        print(f"reformulation log: {result.log_path}")
    if result.report:
        print(evaluation.render_report_table(result.report))
        print(f"metrics csv: {result.report_path}")


def _cmd_evaluate(args) -> None:
    run = evaluation.parse_run(args.run)
    qrels = evaluation.parse_qrels(args.qrels)
    report = evaluation.evaluate_run(run, qrels, binarize_at=args.binarize_at)
    print(evaluation.render_report_table(report))
    if args.csv:
        evaluation.write_report_csv(report, args.csv, config_hash=settings_hash(vars(args)))


if __name__ == "__main__":
    sys.exit(main())
