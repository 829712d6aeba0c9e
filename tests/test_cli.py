import errno
import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import SEED_PATTERN_NAMES, consolidation_payload
from patternqr import cli, evaluation, induction, pipeline
from patternqr.cli import main
from patternqr.evaluation import parse_run
from patternqr.gateway import ENV_BASE_URL, ENV_MOCK_SCRIPT, ENV_MODEL, Gateway, MockScript
from patternqr.generator import read_reformulation_log
from patternqr.index import load_index
from patternqr.induction import (
    LIBRARY_FORMAT,
    default_library,
    load_labels,
    load_library,
    save_library,
)
from patternqr.selector import FeatureConfig, SelectorModel, load_model, save_model

CORPUS = "d1\tcat sat\nd2\tdog sat sat\nd3\tjaguar cat feline\n"
QUERIES = "q1\tsat\nq2\tjaguar\n"
QRELS = "q1 0 d2 3\nq2 0 d3 2\n"
PAIRS = "p1\tcheap flights\tlow cost airline tickets\np2\tjaguar speed\tjaguar animal speed\n"


@pytest.fixture
def files(tmp_path):
    paths = {
        "corpus": tmp_path / "corpus.tsv",
        "queries": tmp_path / "queries.tsv",
        "qrels": tmp_path / "qrels.txt",
        "pairs": tmp_path / "pairs.tsv",
    }
    paths["corpus"].write_text(CORPUS, encoding="utf-8")
    paths["queries"].write_text(QUERIES, encoding="utf-8")
    paths["qrels"].write_text(QRELS, encoding="utf-8")
    paths["pairs"].write_text(PAIRS, encoding="utf-8")
    paths["dir"] = tmp_path
    return paths


def _rewrite_index(path, **members):
    """Save the index file at `path` again with the given members replaced; a dict
    given as `meta` is merged into the file's meta."""
    with np.load(path, allow_pickle=False) as bundle:
        arrays = {name: bundle[name] for name in bundle.files}
    meta = {**json.loads(arrays["meta"].tobytes()), **members.pop("meta", {})}
    arrays.update(members, meta=np.frombuffer(json.dumps(meta).encode("utf-8"), np.uint8))
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def _mock(tmp_path, fallback):
    path = tmp_path / "mock.json"
    MockScript(fallback=fallback).save(path)
    return path


class TestIndexRunEvaluate:
    def test_index_then_run_then_evaluate(self, files, capsys):
        index_path = files["dir"] / "index.npz"
        out = files["dir"] / "out"
        assert main(["index", "--corpus", str(files["corpus"]), "--out", str(index_path)]) == 0
        argv = ["run", "--index", str(index_path), "--queries", str(files["queries"])]
        assert main([*argv, "--k-eval", "10", "--out-dir", str(out)]) == 0
        run = parse_run(out / "bm25.run")
        assert run["q1"].doc_ids == ("d2", "d1")
        evaluate = ["evaluate", "--run", str(out / "bm25.run"), "--qrels", str(files["qrels"])]
        assert main(evaluate) == 0
        out = capsys.readouterr().out
        assert "mean" in out

    def test_run_rm3(self, files):
        out = files["dir"] / "out"
        argv = ["run", "--mode", "rm3", "--corpus", str(files["corpus"]), "--queries"]
        assert main([*argv, str(files["queries"]), "--fb-docs", "2", "--out-dir", str(out)]) == 0
        assert parse_run(out / "rm3.run")

    @pytest.mark.parametrize(
        "mode, artifact",
        [("bm25", "bm25.run"), ("rm3", "rm3.metrics.csv"),
         ("reformer", "reformer.reformulations.jsonl")],
    )
    def test_failed_run_artifact_write_leaves_previous_file(
        self, files, monkeypatch, mode, artifact
    ):
        out = files["dir"] / "out"
        out.mkdir()
        previous = {name: out / name for name in (f"{mode}.run", f"{mode}.metrics.csv", artifact)}
        for path in previous.values():
            path.write_bytes(b"previous output")
        original_open = Path.open

        class HalfWrittenHandle:
            """The artifact's first write (`write_text`'s one write, or the run
            file's first streamed block) gets half its data through, then fails."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, data):
                self.handle.write(data[: len(data) // 2])
                raise OSError("disk full")

        def half_open(self, *args, **kwargs):
            handle = original_open(self, *args, **kwargs)
            return HalfWrittenHandle(handle) if self.name == f"{artifact}.tmp" else handle

        monkeypatch.setattr(Path, "open", half_open)
        argv = ["run", "--mode", mode, "--corpus", str(files["corpus"]), "--queries",
                str(files["queries"]), "--qrels", str(files["qrels"]), "--out-dir", str(out)]
        if mode == "reformer":
            mock = _mock(files["dir"], "Clarify Intent")
            argv += ["--selector", "prompt", "--mock-script", str(mock)]
        with pytest.raises(OSError, match="disk full"):
            main(argv)
        assert (out / artifact).read_bytes() == b"previous output"
        assert sorted(out.iterdir()) == sorted(previous.values())

    def test_failed_csv_write_leaves_previous_file(self, files, half_write_text):
        # Written with write_bytes: the fixture makes every Path.write_text fail.
        run = files["dir"] / "in.run"
        run.write_bytes(b"q1 Q0 d2 1 2.0 t\n")
        out = files["dir"] / "out.txt"
        out.write_bytes(b"previous output")
        argv = ["evaluate", "--run", str(run), "--qrels", str(files["qrels"]), "--csv", str(out)]
        with pytest.raises(OSError, match="disk full"):
            main(argv)
        assert out.read_bytes() == b"previous output"
        assert not out.with_name("out.txt.tmp").exists()

    def test_mixed_tags_in_one_query_are_a_data_error(self, files, capsys):
        run_path = files["dir"] / "run.txt"
        run_path.write_text("q1 Q0 d2 1 2.0 a\nq1 Q0 d1 2 1.0 b\n", encoding="utf-8")
        code = main(["evaluate", "--run", str(run_path), "--qrels", str(files["qrels"])])
        err = capsys.readouterr().err
        assert code == 3
        assert "data error" in err and "tags" in err


class TestLlmCommands:
    def test_induce_writes_library(self, files):
        mock = _mock(files["dir"], consolidation_payload(SEED_PATTERN_NAMES))
        out = files["dir"] / "library.json"
        code = main(
            [
                "induce",
                "--pairs",
                str(files["pairs"]),
                "--out",
                str(out),
                "--mock-script",
                str(mock),
                "--source-dataset",
                "fixture",
            ]
        )
        assert code == 0
        library = load_library(out)
        assert library.names == SEED_PATTERN_NAMES
        assert library.provenance.source_dataset == "fixture"

    def test_label_writes_labels(self, files):
        mock = _mock(files["dir"], consolidation_payload(SEED_PATTERN_NAMES))
        library_path = files["dir"] / "library.json"
        main(
            [
                "induce",
                "--pairs",
                str(files["pairs"]),
                "--out",
                str(library_path),
                "--mock-script",
                str(mock),
            ]
        )
        label_mock = _mock(files["dir"], "Contextual Expansion")
        out = files["dir"] / "labels.tsv"
        code = main(
            [
                "label",
                "--pairs",
                str(files["pairs"]),
                "--library",
                str(library_path),
                "--out",
                str(out),
                "--mock-script",
                str(label_mock),
            ]
        )
        assert code == 0
        labels = load_labels(out)
        assert len(labels) == 2
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert re.fullmatch(r"# config_hash=[0-9a-f]{12}", header)

    def test_train_selector_then_run_reformer(self, files):
        labels_path = files["dir"] / "labels.tsv"
        labels_path.write_text("p1\t0\np2\t4\n", encoding="utf-8")
        model_path = files["dir"] / "model.npz"
        loss_path = files["dir"] / "loss.csv"
        code = main(
            [
                "train-selector",
                "--corpus",
                str(files["corpus"]),
                "--pairs",
                str(files["pairs"]),
                "--labels",
                str(labels_path),
                "--epochs",
                "3",
                "--dimension",
                "1024",
                "--out",
                str(model_path),
                "--loss-csv",
                str(loss_path),
            ]
        )
        assert code == 0
        assert loss_path.read_text(encoding="utf-8").splitlines()[1] == "epoch,loss"

        mock = _mock(files["dir"], "a rewritten query")
        out = files["dir"] / "out"
        code = main(
            [
                "run",
                "--mode",
                "reformer",
                "--corpus",
                str(files["corpus"]),
                "--queries",
                str(files["queries"]),
                "--selector-model",
                str(model_path),
                "--out-dir",
                str(out),
                "--mock-script",
                str(mock),
            ]
        )
        assert code == 0
        records = read_reformulation_log(out / "reformer.reformulations.jsonl")
        assert [r.query_id for r in records] == ["q1", "q2"]
        assert records[0].reformulation == "a rewritten query"

    def test_train_selector_from_an_index_trains_as_from_its_corpus(self, files, capsys):
        labels = files["dir"] / "labels.tsv"
        labels.write_text("p1\t0\np2\t4\n", encoding="utf-8")
        index_path = files["dir"] / "index.npz"
        flags = ["--k1", "1.5", "--b", "0.9"]
        argv = ["index", "--corpus", str(files["corpus"]), *flags, "--out", str(index_path)]
        assert main(argv) == 0
        train = ["train-selector", "--pairs", str(files["pairs"]), "--labels", str(labels),
                 "--epochs", "2", "--dimension", "1024"]
        models = {}
        for source, path in (("corpus", files["corpus"]), ("index", index_path)):
            models[source] = files["dir"] / f"model-{source}.npz"
            argv = [*train, f"--{source}", str(path), *flags, "--out", str(models[source])]
            assert main(argv) == 0
        by_corpus, by_index = load_model(models["corpus"]), load_model(models["index"])
        assert np.array_equal(by_index.columns, by_corpus.columns)
        assert np.array_equal(by_index.weights, by_corpus.weights)
        assert np.array_equal(by_index.bias, by_corpus.bias)
        # The index's k1 and b, not the defaults, shaped the contexts it trained on.
        out = files["dir"] / "default.npz"
        assert main([*train, "--index", str(index_path), "--out", str(out)]) == 2
        assert "pass --k1 1.5 --b 0.9" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["induce", "label"])
    def test_gateway_settings_from_the_environment_enter_the_digest(
        self, files, monkeypatch, command
    ):
        library = files["dir"] / "seed.json"
        save_library(default_library(), library)
        fallback = consolidation_payload(SEED_PATTERN_NAMES) if command == "induce" else (
            "Clarify Intent")
        argv = [command, "--pairs", str(files["pairs"]), "--mock-script",
                str(_mock(files["dir"], fallback))]
        if command == "label":
            argv += ["--library", str(library)]

        def digest(env_model, flags):
            monkeypatch.delenv(ENV_MODEL, raising=False)
            if env_model:
                monkeypatch.setenv(ENV_MODEL, env_model)
            out = files["dir"] / f"{command}.out"
            assert main([*argv, *flags, "--out", str(out)]) == 0
            if command == "induce":
                return load_library(out).config_hash
            return out.read_text(encoding="utf-8").splitlines()[0].removeprefix("# config_hash=")

        from_env = digest("model-a", [])
        assert digest(None, ["--model", "model-a"]) == from_env
        assert digest("model-b", []) != from_env
        assert digest("model-b", ["--model", "model-a"]) == from_env


class TestRunCommand:
    def test_run_bm25(self, files, capsys):
        code = main(
            [
                "run",
                "--corpus",
                str(files["corpus"]),
                "--queries",
                str(files["queries"]),
                "--qrels",
                str(files["qrels"]),
                "--mode",
                "bm25",
                "--out-dir",
                str(files["dir"] / "out"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "run file" in out and "mean" in out

    def test_flags_override_config_file(self, files):
        config_path = files["dir"] / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "corpus": str(files["corpus"]),
                    "queries": str(files["queries"]),
                    "mode": "rm3",
                    "out_dir": str(files["dir"] / "out"),
                }
            ),
            encoding="utf-8",
        )
        code = main(["run", "--config", str(config_path), "--mode", "bm25"])
        assert code == 0
        assert (files["dir"] / "out" / "bm25.run").exists()
        assert not (files["dir"] / "out" / "rm3.run").exists()

    def test_config_file_alone_supplies_everything(self, files):
        config_path = files["dir"] / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "corpus": str(files["corpus"]),
                    "queries": str(files["queries"]),
                    "mode": "rocchio",
                    "out_dir": str(files["dir"] / "out"),
                }
            ),
            encoding="utf-8",
        )
        assert main(["run", "--config", str(config_path)]) == 0
        assert (files["dir"] / "out" / "rocchio.run").exists()

    def test_run_reformer_with_mock(self, files):
        model_path = files["dir"] / "model.npz"
        save_model(SelectorModel.zeros(10, FeatureConfig(dimension=1024), "seed-1"), model_path)
        mock = _mock(files["dir"], "rewritten")
        code = main(
            [
                "run",
                "--corpus",
                str(files["corpus"]),
                "--queries",
                str(files["queries"]),
                "--mode",
                "reformer",
                "--selector-model",
                str(model_path),
                "--mock-script",
                str(mock),
                "--out-dir",
                str(files["dir"] / "out"),
            ]
        )
        assert code == 0
        assert (files["dir"] / "out" / "reformer.run").exists()
        assert (files["dir"] / "out" / "reformer.reformulations.jsonl").exists()

    def test_run_with_prompt_selector_reads_a_name_as_label_does(self, files):
        # A trailing period is read the same by `label` and by the prompt selector.
        mock = _mock(files["dir"], "Clarify Intent.")
        labels = files["dir"] / "labels.tsv"
        library = files["dir"] / "library.json"
        save_library(default_library(), library)
        label = ["label", "--pairs", str(files["pairs"]), "--library", str(library)]
        assert main([*label, "--out", str(labels), "--mock-script", str(mock)]) == 0
        code = main(
            [
                "run",
                "--corpus",
                str(files["corpus"]),
                "--queries",
                str(files["queries"]),
                "--mode",
                "reformer",
                "--selector",
                "prompt",
                "--mock-script",
                str(mock),
                "--out-dir",
                str(files["dir"] / "out"),
            ]
        )
        assert code == 0
        records = read_reformulation_log(files["dir"] / "out" / "reformer.reformulations.jsonl")
        assert {r.pattern_name for r in records} == {"Clarify Intent"}
        assert {lb.pattern_id for lb in load_labels(labels)} == {0}


class TestExitCodes:
    @pytest.mark.parametrize("source", ["corpus", "index"])
    def test_config_error_is_2(self, files, capsys, source):
        missing = files["dir"] / "missing"
        code = main(["run", f"--{source}", str(missing), "--queries", str(files["queries"])])
        assert code == 2
        assert f"config error: {source} file {missing} does not exist" in capsys.readouterr().err

    def test_data_error_is_3(self, files, capsys):
        bad = files["dir"] / "bad.tsv"
        bad.write_text("no tab here\n", encoding="utf-8")
        code = main(
            ["run", "--corpus", str(bad), "--queries", str(files["queries"])]
        )
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_duplicate_query_id_is_3_and_writes_no_run(self, files, capsys):
        files["queries"].write_text("q1\tcat\nq1\tdog\n", encoding="utf-8")
        out = files["dir"] / "out"
        argv = ["run", "--mode", "bm25", "--corpus", str(files["corpus"])]
        assert main([*argv, "--queries", str(files["queries"]), "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{files['queries']}:2: duplicate query_id 'q1'" in err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize(
        "members, reason",
        [
            ({"stream": np.array([0, 1, 99], dtype=np.int32)}, "stream ids must lie in"),
            ({"meta": {"doc_ids": 5}}, "doc_ids must be a list"),
            ({"meta": {"doc_ids": [1, 2, 3]}}, "doc_ids must be a list"),
            ({"meta": {"doc_ids": ["", "d2", "d3"]}}, "doc_ids must be a list"),
            ({"meta": {"doc_ids": ["d1", "d\u00a02", "d3"]}}, "doc_id 'd\\xa02' holds whitespace"),
            ({"meta": {"b": "y"}}, "b must be a number in [0, 1], got 'y'"),
            ({"meta": {"b": 7.0}}, "b must be a number in [0, 1], got 7.0"),
            ({"meta": {"k1": -5.0}}, "k1 must be a finite number >= 0, got -5.0"),
            ({"meta": {"k1": True}}, "k1 must be a finite number >= 0, got True"),
            ({"doc_lengths": np.array([1, 1], dtype=np.int64)}, "doc_lengths must be"),
        ],
        ids=[
            "unknown-term", "doc-ids-number", "doc-ids-numbers", "doc-id-empty", "doc-id-spaced",
            "b-string",
            "b-above-one", "k1-negative", "k1-true", "lengths-too-few",
        ],
    )
    def test_malformed_index_file_is_3(self, files, capsys, members, reason):
        index_path = files["dir"] / "index.npz"
        assert main(["index", "--corpus", str(files["corpus"]), "--out", str(index_path)]) == 0
        _rewrite_index(index_path, **members)
        out = files["dir"] / "out"
        argv = ["run", "--index", str(index_path), "--queries", str(files["queries"])]
        assert main(argv + ["--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "data error: stage load-index: malformed index file" in err and reason in err
        assert not list(out.iterdir())

    @pytest.mark.parametrize(
        "corpus, queries, problem",
        [
            ("d 1\tcats and dogs\n", "q1\tcats\n", "{corpus}:1: doc_id 'd 1'"),
            ("d1\tcats and dogs\n", "q 1\tcats\n", "{queries}:1: query_id 'q 1'"),
        ],
        ids=["doc-id", "query-id"],
    )
    def test_an_id_holding_whitespace_is_3_and_writes_no_run(
        self, files, capsys, corpus, queries, problem
    ):
        # Its run line would have more than 6 fields, which `evaluate` cannot read.
        files["corpus"].write_text(corpus, encoding="utf-8")
        files["queries"].write_text(queries, encoding="utf-8")
        out = files["dir"] / "out"
        argv = ["run", "--mode", "bm25", "--corpus", str(files["corpus"]), "--queries"]
        assert main([*argv, str(files["queries"]), "--out-dir", str(out)]) == 3
        assert problem.format(**files) in capsys.readouterr().err
        assert not list(out.glob("*"))

    def test_evaluate_has_no_metric_cutoff_flags(self, files):
        # The report's columns are nDCG@10, mAP@1k and R@1k whatever a cutoff flag said.
        argv = ["evaluate", "--run", "r.run", "--qrels", str(files["qrels"]), "--ndcg-k", "5"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["index", "--out", "{dir}/index.npz"], ["run", "--mode", "bm25", "--out-dir", "{dir}/out"]],
        ids=["index", "run"],
    )
    def test_non_utf8_corpus_is_3_and_writes_nothing(self, files, capsys, argv):
        files["corpus"].write_bytes(b"d1\tcat sat\nd2\tcaf\xff\n")
        before = sorted(files["dir"].iterdir())
        argv = [arg.format(dir=files["dir"]) for arg in argv]
        extra = ["--queries", str(files["queries"])] if argv[0] == "run" else []
        assert main([*argv, "--corpus", str(files["corpus"]), *extra]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "data error: " in err and f"{files['corpus']}: not UTF-8" in err
        after = [p for p in sorted(files["dir"].iterdir()) if p.name != "out"]
        assert after == before
        assert not list(files["dir"].glob("out/*"))

    @pytest.mark.parametrize(
        "argv, target",
        [
            (["index", "--corpus", "{corpus}", "--out", "{dir}/missing/index.npz"],
             "{dir}/missing/index.npz"),
            (["index", "--corpus", "{corpus}", "--out", "{dir}/taken"], "{dir}/taken"),
            (["run", "--mode", "bm25", "--corpus", "{corpus}", "--queries", "{queries}",
              "--out-dir", "{queries}"], "{queries}"),
            (["induce", "--pairs", "{pairs}", "--mock-script", "{mock}", "--out",
              "{dir}/library.json", "--transcript", "{dir}/missing/t.jsonl"],
             "{dir}/missing/t.jsonl"),
        ],
        ids=[
            "index-missing-directory",
            "index-out-is-a-directory",
            "run-out-dir-is-a-file",
            "induce-transcript-missing-directory",
        ],
    )
    def test_unwritable_output_is_2_and_leaves_nothing(self, files, capsys, argv, target):
        (files["dir"] / "taken").mkdir()
        names = {**files, "mock": _mock(files["dir"], consolidation_payload(SEED_PATTERN_NAMES))}
        before = sorted(files["dir"].rglob("*"))
        assert main([arg.format(**names) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("config error: ") and target.format(**names) in err
        assert sorted(files["dir"].rglob("*")) == before

    @pytest.mark.parametrize(
        "argv, method",
        [
            (["run", "--mode", "bm25", "--corpus", "{corpus}", "--queries", "{queries}",
              "--out-dir", "{target}"], "mkdir"),
            (["induce", "--pairs", "{pairs}", "--mock-script", "{mock}", "--out",
              "{dir}/library.json", "--transcript", "{target}"], "write_text"),
        ],
        ids=["run-out-dir", "induce-transcript"],
    )
    def test_full_disk_on_an_output_is_not_a_config_error(self, files, monkeypatch, argv, method):
        names = {**files, "mock": _mock(files["dir"], consolidation_payload(SEED_PATTERN_NAMES))}
        target = files["dir"] / "target"
        original = getattr(Path, method)

        def full_disk(self, *args, **kwargs):
            if self == target:
                raise OSError(errno.ENOSPC, "No space left on device", str(self))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Path, method, full_disk)
        with pytest.raises(OSError, match="No space left on device"):
            main([arg.format(**names, target=target) for arg in argv])

    def test_next_line_character_stays_inside_a_document(self, files):
        files["corpus"].write_text("d1\tcat\nd2\tbaz\u0085d3\tqux\n", encoding="utf-8")
        index_path = files["dir"] / "index.npz"
        assert main(["index", "--corpus", str(files["corpus"]), "--out", str(index_path)]) == 0
        assert load_index(index_path).doc_ids == ["d1", "d2"]

    def test_v1_index_file_is_3(self, files, capsys):
        index_path = files["dir"] / "index.npz"
        index_path.write_text(
            '{"format": "patternqr-index-v1", "k1": 0.9, "b": 0.4, "doc_ids": ["d1"], '
            '"doc_tokens": [["cat"]], "postings": {"cat": [[0, 1]]}}',
            encoding="utf-8",
        )
        out = files["dir"] / "out"
        argv = ["run", "--index", str(index_path), "--queries", str(files["queries"])]
        assert main(argv + ["--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "is not a patternqr-index-v2 file: run `patternqr index` again" in err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("flags", [["--k1", "5"], ["--b", "1.0"]], ids=["k1", "b"])
    def test_index_with_other_k1_or_b_is_2(self, files, capsys, flags):
        index_path = files["dir"] / "index.npz"
        assert main(["index", "--corpus", str(files["corpus"]), "--out", str(index_path)]) == 0
        out = files["dir"] / "out"
        argv = ["run", "--index", str(index_path), "--queries", str(files["queries"])]
        assert main([*argv, *flags, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "k1=0.9 and b=0.4" in err
        assert not list(out.iterdir())

    def test_index_ranks_with_the_k1_and_b_it_was_built_with(self, files, capsys):
        flags = ["--k1", "1.5", "--b", "0.9"]
        index_path = files["dir"] / "index.npz"
        argv = ["index", "--corpus", str(files["corpus"]), *flags, "--out", str(index_path)]
        assert main(argv) == 0
        runs = {}
        for source, path in (("corpus", files["corpus"]), ("index", index_path)):
            out = files["dir"] / source
            argv = ["run", f"--{source}", str(path), "--queries", str(files["queries"])]
            assert main([*argv, *flags, "--out-dir", str(out)]) == 0
            runs[source] = out / "bm25.run"
        assert _ranked_lines(runs["index"]) == _ranked_lines(runs["corpus"])
        # Without the flags, the defaults would name values the ranking did not use.
        out = files["dir"] / "default"
        assert main([*argv, "--out-dir", str(out)]) == 2
        assert "pass --k1 1.5 --b 0.9" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("name, value", [("select_mode", "argmax"), ("seed", 3),
                                             ("snippet_tokens", 64)])
    def test_a_removed_run_setting_is_2_before_any_input_is_read(
        self, files, capsys, monkeypatch, name, value
    ):
        # The selector is always the argmax or the LLM's pick, and snippets are
        # always cut at the 64 tokens the selector is trained on.
        def no_read(*args, **kwargs):
            raise AssertionError("an input file was read")

        for reader in ("iter_corpus_tsv", "load_index", "read_queries_tsv", "parse_qrels"):
            monkeypatch.setattr(pipeline, reader, no_read)
        out = files["dir"] / "out"
        argv = ["run", "--mode", "reformer", "--selector", "prompt", "--corpus"]
        argv += [str(files["corpus"]), "--queries", str(files["queries"]), "--out-dir", str(out)]
        flag = f"--{name.replace('_', '-')}"
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, flag, str(value)])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        config = files["dir"] / "config.json"
        config.write_text(json.dumps({name: value}), encoding="utf-8")
        assert main([*argv, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: unknown pipeline config keys: ['{name}']\n"
        assert not out.exists()

    def test_bad_qrels_fail_before_the_index_or_any_gateway_call(
        self, files, capsys, monkeypatch
    ):
        calls = {"build_index": 0, "complete": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, call)

        counted(pipeline, "build_index")
        counted(Gateway, "complete")
        files["qrels"].write_text("q1 0 d2\n", encoding="utf-8")
        out = files["dir"] / "out"
        argv = ["run", "--mode", "reformer", "--selector", "prompt", "--corpus",
                str(files["corpus"]), "--queries", str(files["queries"]), "--qrels",
                str(files["qrels"]), "--mock-script", str(_mock(files["dir"], "Clarify Intent"))]
        assert main([*argv, "--out-dir", str(out)]) == 3
        assert "data error: stage load-qrels: " in capsys.readouterr().err
        assert calls == {"build_index": 0, "complete": 0}
        assert not list(out.iterdir())

    @pytest.mark.parametrize("mode", pipeline.REFORMER_MODES)
    def test_reformer_run_without_a_backend_is_2_before_the_corpus_is_read(
        self, files, capsys, monkeypatch, mode
    ):
        def no_read(path):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr(pipeline, "iter_corpus_tsv", no_read)
        for name in (ENV_BASE_URL, ENV_MOCK_SCRIPT):
            monkeypatch.delenv(name, raising=False)
        hook = files["dir"] / "hook.tsv"
        hook.write_text("q1\tpassage\n", encoding="utf-8")
        out = files["dir"] / "out"
        argv = ["run", "--mode", mode, "--selector", "prompt", "--hook-file", str(hook),
                "--corpus", str(files["corpus"]), "--queries", str(files["queries"])]
        assert main([*argv, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: gateway needs a mock script or a base URL "
            f"(set {ENV_MOCK_SCRIPT} or {ENV_BASE_URL})\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, name, content, message",
        [
            ("--library", "library.json", json.dumps({"format": LIBRARY_FORMAT}),
             "malformed pattern library {path}: KeyError('patterns')"),
            ("--selector-model", "model.npy", "not a model",
             "{path} is not a patternqr-selector-v2 file: run `patternqr train-selector` again"),
        ],
        ids=["library-without-patterns", "selector-model-not-npz"],
    )
    def test_bad_reformer_input_is_3_before_the_corpus_is_read(
        self, files, capsys, monkeypatch, flag, name, content, message
    ):
        def no_read(path):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr(pipeline, "iter_corpus_tsv", no_read)
        path = files["dir"] / name
        path.write_text(content, encoding="utf-8")
        selector = ["--selector", "prompt"] if flag == "--library" else []
        argv = ["run", "--mode", "reformer", *selector, flag, str(path), "--corpus",
                str(files["corpus"]), "--queries", str(files["queries"]), "--mock-script",
                str(_mock(files["dir"], "Clarify Intent")), "--out-dir", str(files["dir"] / "out")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == f"data error: stage load-reformer: {message.format(path=path)}\n"

    @pytest.mark.parametrize(
        "change, message",
        [({"dimension": 0}, "dimension in [1, 2**63]"),
         ({"dimension": 1024.7}, "dimension in [1, 2**63]"),
         ({"dimension": "1024"}, "dimension in [1, 2**63]"),
         ({"dimension": True}, "dimension in [1, 2**63]"),
         ({"ngram_orders": [1, 3]}, "n-gram orders [1, 2]")],
        ids=["dimension-0", "dimension-fraction", "dimension-string", "dimension-true",
             "orders-1-3"],
    )
    def test_selector_model_with_a_feature_config_out_of_range_is_3(
        self, files, capsys, change, message
    ):
        path = files["dir"] / "model.npz"
        config = {**FeatureConfig(dimension=1024).to_dict(), **change}
        meta = {"format": "patternqr-selector-v2", "config_hash": "",
                "feature_config": config, "library_version": "seed-1"}
        with open(path, "wb") as handle:
            np.savez(handle, weights=np.zeros((10, 0)), bias=np.zeros(10),
                     columns=np.zeros(0, np.int64), meta=np.array(json.dumps(meta)))
        argv = ["run", "--mode", "reformer", "--selector-model", str(path), "--corpus",
                str(files["corpus"]), "--queries", str(files["queries"]), "--mock-script",
                str(_mock(files["dir"], "Clarify Intent")), "--out-dir", str(files["dir"] / "out")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: stage load-reformer: {path}: malformed selector model")
        assert message in err and err.count("\n") == 1

    def test_v1_selector_model_is_3(self, files, capsys):
        # patternqr-selector-v1 files held the dense (M, F) weights and no columns.
        path = files["dir"] / "model.npz"
        meta = {"format": "patternqr-selector-v1", "config_hash": "",
                "feature_config": FeatureConfig(dimension=16).to_dict(), "library_version": "seed-1"}
        with open(path, "wb") as handle:
            np.savez(handle, weights=np.ones((10, 16)), bias=np.zeros(10),
                     meta=np.array(json.dumps(meta)))
        out = files["dir"] / "out"
        argv = ["run", "--mode", "reformer", "--selector-model", str(path), "--corpus",
                str(files["corpus"]), "--queries", str(files["queries"]), "--mock-script",
                str(_mock(files["dir"], "Clarify Intent")), "--out-dir", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == (f"data error: stage load-reformer: {path} is not a patternqr-selector-v2 "
                       "file: run `patternqr train-selector` again\n")
        assert not list(out.iterdir())

    def test_duplicate_label_is_3_and_writes_no_model(self, files, capsys):
        labels = files["dir"] / "labels.tsv"
        labels.write_text("p1\t0\np2\t4\np1\t3\n", encoding="utf-8")
        model = files["dir"] / "model.npz"
        argv = ["train-selector", "--corpus", str(files["corpus"]), "--pairs", str(files["pairs"]),
                "--labels", str(labels), "--epochs", "1", "--dimension", "64", "--out", str(model)]
        assert main(argv) == 3
        assert f"{labels}:3: duplicate pair_id 'p1'" in capsys.readouterr().err
        assert not model.exists()

    def test_diverged_training_is_3_and_writes_no_model(self, files, capsys):
        labels = files["dir"] / "labels.tsv"
        labels.write_text("p1\t0\np2\t4\n", encoding="utf-8")
        model, loss = files["dir"] / "model.npz", files["dir"] / "loss.csv"
        argv = ["train-selector", "--corpus", str(files["corpus"]), "--pairs", str(files["pairs"]),
                "--labels", str(labels), "--learning-rate", "1e300", "--dimension", "64",
                "--out", str(model), "--loss-csv", str(loss)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: training diverged: the loss of epoch 0 is ")
        assert err.count("\n") == 1
        assert not model.exists() and not loss.exists()

    def test_train_selector_reads_its_inputs_before_the_index(self, files, capsys, monkeypatch):
        def no_build(documents, **kwargs):
            raise AssertionError("the index was built")

        monkeypatch.setattr(pipeline, "build_index", no_build)
        labels = files["dir"] / "labels.tsv"
        labels.write_text("p1\t0\np1\t4\n", encoding="utf-8")
        model = files["dir"] / "model.npz"
        argv = ["train-selector", "--corpus", str(files["corpus"]), "--pairs", str(files["pairs"]),
                "--labels", str(labels), "--out", str(model)]
        assert main(argv) == 3
        assert f"{labels}:2: duplicate pair_id 'p1'" in capsys.readouterr().err
        assert not model.exists()

    def test_gateway_error_is_4(self, files, capsys):
        model_path = files["dir"] / "model.npz"
        save_model(SelectorModel.zeros(10, FeatureConfig(dimension=1024), "seed-1"), model_path)
        empty_mock = files["dir"] / "empty.json"
        MockScript().save(empty_mock)
        code = main(
            [
                "run",
                "--corpus",
                str(files["corpus"]),
                "--queries",
                str(files["queries"]),
                "--mode",
                "reformer",
                "--selector-model",
                str(model_path),
                "--mock-script",
                str(empty_mock),
                "--out-dir",
                str(files["dir"] / "out"),
            ]
        )
        assert code == 4
        assert "gateway error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--max-in-flight", "--max-retries"])
    def test_gateway_count_below_one_is_2(self, files, capsys, monkeypatch, flag):
        def no_call(self, request):
            raise AssertionError("a gateway call was made")

        # A cap of 0 in-flight calls would block the first call forever.
        monkeypatch.setattr(Gateway, "complete", no_call)
        model_path = files["dir"] / "model.npz"
        save_model(SelectorModel.zeros(10, FeatureConfig(dimension=1024), "seed-1"), model_path)
        code = main(
            [
                "run",
                "--corpus",
                str(files["corpus"]),
                "--queries",
                str(files["queries"]),
                "--mode",
                "reformer",
                "--selector-model",
                str(model_path),
                "--mock-script",
                str(_mock(files["dir"], "a rewritten query")),
                flag,
                "0",
                "--out-dir",
                str(files["dir"] / "out"),
            ]
        )
        assert code == 2
        assert f"{flag[2:].replace('-', '_')} must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--max-in-flight", "--max-retries"])
    @pytest.mark.parametrize("command", ["induce-missing-pairs", "run-bm25"])
    def test_gateway_count_below_one_is_2_without_a_gateway(self, files, capsys, flag, command):
        # Neither command builds a gateway: induce fails first on its missing
        # pairs file, and a bm25 run makes no LLM call at all.
        out = files["dir"] / "out"
        argv = {
            "induce-missing-pairs": [
                "induce", "--pairs", str(files["dir"] / "missing.tsv"), "--out", str(out),
            ],
            "run-bm25": [
                "run", "--mode", "bm25", "--corpus", str(files["corpus"]),
                "--queries", str(files["queries"]), "--out-dir", str(out),
            ],
        }[command]
        code = main([*argv, flag, "0"])
        assert code == 2
        assert f"{flag[2:].replace('-', '_')} must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, flag, value",
        [
            ("bm25", "--k1", "-1"),
            ("bm25", "--k1", "nan"),
            ("bm25", "--b", "-0.1"),
            ("bm25", "--b", "2"),
            ("bm25", "--binarize-at", "0"),
            ("rm3", "--fb-docs", "0"),
            ("rm3", "--fb-terms", "0"),
            ("rm3", "--orig-weight", "1.5"),
            ("rm3", "--orig-weight", "-0.5"),
        ],
    )
    def test_out_of_range_value_is_2_before_reading_the_corpus(
        self, files, capsys, monkeypatch, mode, flag, value
    ):
        def no_read(path):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr(pipeline, "iter_corpus_tsv", no_read)
        code = main(
            [
                "run",
                "--corpus",
                str(files["corpus"]),
                "--queries",
                str(files["queries"]),
                "--qrels",
                str(files["qrels"]),
                "--mode",
                mode,
                flag,
                value,
                "--out-dir",
                str(files["dir"] / "out"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and flag[2:].replace("-", "_") in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "--k1", "-1"], "k1"),
            (["run", "--b", "1.5"], "b"),
            (["run", "--k-eval", "0"], "k_eval"),
            (["run", "--mode", "rocchio", "--alpha", "nan"], "alpha"),
            (["run", "--mode", "rm3", "--fb-docs", "0"], "fb_docs"),
            (["run", "--mode", "rm3", "--orig-weight", "2"], "orig_weight"),
            (["index", "--k1", "-1"], "k1"),
            (["index", "--b", "-0.5"], "b"),
            (["run", "--mode", "reformer", "--k-context", "0"], "k_context"),
            (["run", "--mode", "reformer", "--repetition", "0"], "repetition"),
            (["train-selector", "--k-context", "0"], "k_context"),
            (["train-selector", "--k1", "inf"], "k1"),
            (["run", "--mode", "rocchio", "--beta", "-1"], "beta"),
            (["run", "--mode", "rocchio", "--alpha", "-0.5"], "alpha"),
            (["run", "--mode", "rocchio", "--beta", "inf"], "beta"),
        ],
    )
    def test_subcommand_out_of_range_value_is_2_before_reading_the_corpus(
        self, files, capsys, monkeypatch, argv, flag
    ):
        def no_read(path):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr(pipeline, "iter_corpus_tsv", no_read)
        out = files["dir"] / "out"
        extra = {
            "index": ["--out", str(out)],
            "train-selector": ["--pairs", str(files["pairs"]), "--labels", str(out)],
            "run": ["--queries", str(files["queries"]), "--out-dir", str(out)],
        }[argv[0]]
        if argv[0] == "train-selector":
            extra += ["--out", str(out)]
        code = main([*argv, "--corpus", str(files["corpus"]), *extra])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and flag in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, setting",
        [
            (["train-selector", "--epochs", "0"], "epochs"),
            (["train-selector", "--epochs", "-1"], "epochs"),
            (["train-selector", "--batch-size", "0"], "batch_size"),
            (["train-selector", "--dimension", "0"], "dimension"),
            (["train-selector", "--decay", "-1"], "decay"),
            (["train-selector", "--l2", "nan"], "l2"),
            (["train-selector", "--learning-rate", "nan"], "learning_rate"),
            (["train-selector", "--learning-rate", "0"], "learning_rate"),
            (["induce", "--sample", "-1"], "sample"),
            (["induce", "--sample", "0"], "sample"),
            (["induce", "--batch-size", "0"], "batch_size"),
            (["induce", "--max-patterns", "0"], "max_patterns"),
            (["evaluate", "--binarize-at", "0"], "binarize_at"),
        ],
    )
    def test_stage_setting_out_of_range_is_2_before_any_input_is_read(
        self, files, capsys, monkeypatch, argv, setting
    ):
        def no_read(*args, **kwargs):
            raise AssertionError("an input file was read")

        for module, reader in [
            (pipeline, "iter_corpus_tsv"),
            (pipeline, "load_index"),
            (induction, "ingest_pairs"),
            (evaluation, "parse_run"),
            (evaluation, "parse_qrels"),
        ]:
            monkeypatch.setattr(module, reader, no_read)
        out = files["dir"] / "out"
        labels = files["dir"] / "labels.tsv"
        labels.write_text("p1\t0\np2\t4\n", encoding="utf-8")
        inputs = {
            "train-selector": ["--corpus", str(files["corpus"]), "--pairs", str(files["pairs"])],
            "induce": ["--pairs", str(files["pairs"])],
            "evaluate": ["--run", str(files["dir"] / "a.run"), "--qrels", str(files["qrels"])],
        }[argv[0]]
        if argv[0] == "train-selector":
            inputs += ["--labels", str(labels), "--loss-csv", str(out / "loss.csv")]
        if argv[0] == "induce":
            inputs += ["--mock-script", str(_mock(files["dir"], "x"))]
        output = ["--csv", str(out)] if argv[0] == "evaluate" else ["--out", str(out)]
        code = main([*argv, *inputs, *output])
        captured = capsys.readouterr()
        assert code == 2
        assert "config error" in captured.err and setting in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_malformed_model_is_3(self, files, capsys):
        model_path = files["dir"] / "model.npz"
        save_model(SelectorModel.zeros(10, FeatureConfig(dimension=16), "seed-1"), model_path)
        with np.load(model_path) as bundle:
            arrays = {**bundle, "weights": np.zeros((10, 8))}
        with model_path.open("wb") as handle:
            np.savez(handle, **arrays)
        code = main(
            [
                "run",
                "--corpus",
                str(files["corpus"]),
                "--queries",
                str(files["queries"]),
                "--mode",
                "reformer",
                "--selector-model",
                str(model_path),
                "--mock-script",
                str(_mock(files["dir"], "Generalization")),
                "--out-dir",
                str(files["dir"] / "out"),
            ]
        )
        assert code == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"mystery": 1}, "mystery"),
            ({"gateway": {"mystery": 1}}, "mystery"),
            ({"k_eval": "5"}, "k_eval"),
        ],
        ids=["unknown", "unknown-gateway", "mistyped"],
    )
    def test_bad_config_file_is_2(self, files, capsys, payload, key):
        config_path = files["dir"] / "config.json"
        payload = {
            "corpus": str(files["corpus"]),
            "queries": str(files["queries"]),
            "out_dir": str(files["dir"] / "out"),
            "gateway": {"mock_script": str(_mock(files["dir"], "Clarify Intent"))},
            **payload,
        }
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["run", "--config", str(config_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and key in err

    def test_library_without_patterns_is_3(self, files, capsys):
        library = files["dir"] / "library.json"
        library.write_text(json.dumps({"format": LIBRARY_FORMAT}), encoding="utf-8")
        code = main(
            [
                "run",
                "--corpus",
                str(files["corpus"]),
                "--queries",
                str(files["queries"]),
                "--mode",
                "reformer",
                "--selector",
                "prompt",
                "--library",
                str(library),
                "--mock-script",
                str(_mock(files["dir"], "Clarify Intent")),
                "--out-dir",
                str(files["dir"] / "out"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "data error" in err and "patterns" in err

    def test_mock_script_that_is_not_an_object_is_2(self, files, capsys):
        mock = files["dir"] / "mock.json"
        mock.write_text("[1]", encoding="utf-8")
        code = main(
            [
                "run",
                "--corpus",
                str(files["corpus"]),
                "--queries",
                str(files["queries"]),
                "--mode",
                "reformer",
                "--selector",
                "prompt",
                "--mock-script",
                str(mock),
                "--out-dir",
                str(files["dir"] / "out"),
            ]
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_pairs_file_is_3(self, files, capsys):
        code = main(
            [
                "induce",
                "--pairs",
                str(files["dir"] / "nope.tsv"),
                "--out",
                str(files["dir"] / "lib.json"),
                "--mock-script",
                str(_mock(files["dir"], "x")),
            ]
        )
        assert code == 3


# Each input file a reader opens: its command line with the file as {bad}, its exit
# code on a file it cannot use, and which artifact of another kind stands in for it.
READER_ARGV = {
    "run-library": (["run", "--mode", "reformer", "--selector", "prompt", "--library", "{bad}",
                     "--corpus", "{corpus}", "--queries", "{queries}", "--mock-script", "{mock}",
                     "--out-dir", "{out}"], 3, "model"),
    "label-library": (["label", "--pairs", "{pairs}", "--library", "{bad}", "--mock-script",
                       "{mock}", "--out", "{out}/labels.tsv"], 3, "model"),
    "mock-script": (["run", "--mode", "reformer", "--selector", "prompt", "--mock-script", "{bad}",
                     "--corpus", "{corpus}", "--queries", "{queries}", "--out-dir", "{out}"], 2,
                    "model"),
    "config": (["run", "--config", "{bad}", "--corpus", "{corpus}", "--queries", "{queries}",
                "--out-dir", "{out}"], 2, "model"),
    "selector-model": (["run", "--mode", "reformer", "--selector-model", "{bad}", "--corpus",
                        "{corpus}", "--queries", "{queries}", "--mock-script", "{mock}",
                        "--out-dir", "{out}"], 3, "index"),
    "index": (["run", "--index", "{bad}", "--queries", "{queries}", "--out-dir", "{out}"], 3,
              "model"),
}


def _write_bad_input(path, fault, other_kind):
    if fault == "directory":
        path.mkdir()
    elif fault == "empty":
        path.write_bytes(b"")
    elif fault == "not-utf8":
        path.write_bytes(b'{"format": "\xff\xfe"}')
    elif fault == "nested-too-deep":  # deeper than the JSON decoder recurses
        path.write_text("[" * 100_000, encoding="utf-8")
    elif other_kind == "index":
        cli.main(["index", "--corpus", str(path.parent / "corpus.tsv"), "--out", str(path)])
    else:
        save_model(SelectorModel.zeros(10, FeatureConfig(dimension=16), "seed-1"), path)


class TestReaderFaults:
    @pytest.mark.parametrize(
        "fault", ["directory", "empty", "not-utf8", "nested-too-deep", "other-kind"]
    )
    @pytest.mark.parametrize("reader", READER_ARGV)
    def test_an_unusable_input_file_is_one_line_and_writes_nothing(
        self, files, capsys, monkeypatch, reader, fault
    ):
        template, code, other_kind = READER_ARGV[reader]
        bad = files["dir"] / "input.bin"
        _write_bad_input(bad, fault, other_kind)
        paths = {**files, "bad": bad, "out": files["dir"] / "out",
                 "mock": _mock(files["dir"], "Clarify Intent")}
        before = sorted(p for p in files["dir"].rglob("*") if p.is_file())
        capsys.readouterr()
        monkeypatch.setattr(pipeline, "iter_corpus_tsv", lambda path: pytest.fail("read corpus"))
        assert main([arg.format(**paths) for arg in template]) == code
        err = capsys.readouterr().err
        assert err.startswith(("config error: " if code == 2 else "data error: "))
        assert err.count("\n") == 1 and err.endswith("\n") and str(bad) in err
        assert sorted(p for p in files["dir"].rglob("*") if p.is_file()) == before


# Each artifact-writing subcommand's arguments, its output paths under {out} and named {name}.
OUTPUT_PATH_ARGV = {
    "index": ["index", "--corpus", "{corpus}", "--out", "{out}/{name}.npz"],
    "induce": ["induce", "--pairs", "{pairs}", "--mock-script", "{consolidate}", "--out",
               "{out}/{name}.json", "--transcript", "{out}/{name}.jsonl"],
    "label": ["label", "--pairs", "{pairs}", "--library", "{library}", "--mock-script", "{pick}",
              "--out", "{out}/{name}.tsv"],
    "train-selector": ["train-selector", "--corpus", "{corpus}", "--pairs", "{pairs}", "--labels",
                       "{labels}", "--epochs", "2", "--dimension", "1024", "--out",
                       "{out}/{name}.npz", "--loss-csv", "{out}/{name}.csv"],
    "run-bm25": ["run", "--corpus", "{corpus}", "--queries", "{queries}", "--qrels", "{qrels}",
                 "--out-dir", "{out}"],
    "run-rm3-index": ["run", "--mode", "rm3", "--index", "{index}", "--queries", "{queries}",
                      "--out-dir", "{out}"],
    "run-reformer": ["run", "--mode", "reformer", "--selector", "prompt", "--corpus", "{corpus}",
                     "--queries", "{queries}", "--qrels", "{qrels}", "--mock-script", "{pick}",
                     "--out-dir", "{out}"],
    "evaluate": ["evaluate", "--run", "{run}", "--qrels", "{qrels}", "--csv", "{out}/{name}.csv"],
}


class TestOutputPaths:
    @pytest.mark.parametrize("case", OUTPUT_PATH_ARGV)
    def test_output_paths_change_no_artifact_byte(self, files, case):
        inputs = {
            **files,
            "consolidate": files["dir"] / "consolidate.json",
            "pick": files["dir"] / "pick.json",
            "library": files["dir"] / "library.json",
            "labels": files["dir"] / "labels.tsv",
            "run": files["dir"] / "in.run",
            "index": files["dir"] / "index.npz",
        }
        MockScript(fallback=consolidation_payload(SEED_PATTERN_NAMES)).save(inputs["consolidate"])
        MockScript(fallback="Clarify Intent").save(inputs["pick"])
        save_library(default_library(), inputs["library"])
        inputs["labels"].write_text("p1\t0\np2\t4\n", encoding="utf-8")
        inputs["run"].write_text("q1 Q0 d2 1 2.0 t\nq2 Q0 d3 1 1.0 t\n", encoding="utf-8")
        assert main(["index", "--corpus", str(files["corpus"]), "--out", str(inputs["index"])]) == 0
        written = []
        for name in ("first", "second"):
            out = files["dir"] / name
            out.mkdir()
            argv = [arg.format(out=out, name=name, **inputs) for arg in OUTPUT_PATH_ARGV[case]]
            assert main(argv) == 0
            written.append({p.name.replace(name, "*"): p.read_bytes() for p in out.iterdir()})
        assert written[0]
        assert written[0] == written[1]


def _ranked_lines(path):
    """Run-file lines without the tag, which embeds the settings digest."""
    return [line.split()[:-1] for line in path.read_text(encoding="utf-8").splitlines()]


def _masked_artifacts(out: Path) -> dict[str, bytes]:
    """Each file in `out`, with the settings digest of its run's tag masked."""
    tag = (out / next(p.name for p in out.glob("*.run"))).read_text(encoding="utf-8").split()[5]
    digest = tag.rsplit("-", 1)[1].encode("ascii")
    return {p.name: p.read_bytes().replace(digest, b"<config_hash>") for p in out.iterdir()}


class TestIndexSource:
    """`run` ranks from a saved index as from the corpus it was built from."""

    @pytest.mark.parametrize("mode", pipeline.MODES)
    def test_index_and_corpus_give_the_same_artifacts(self, files, mode):
        index_path = files["dir"] / "index.npz"
        assert main(["index", "--corpus", str(files["corpus"]), "--out", str(index_path)]) == 0
        model_path = files["dir"] / "model.npz"
        save_model(SelectorModel.zeros(10, FeatureConfig(dimension=1024), "seed-1"), model_path)
        hook = files["dir"] / "hook.tsv"
        hook.write_text("q1\ta passage about sitting\n", encoding="utf-8")
        # Each rewrite carries its generation prompt's hash, so the logs match
        # only if the prompts, snippets and hook passages included, match.
        mock = _mock(files["dir"], "a rewritten query {fingerprint}")
        argv = ["run", "--mode", mode, "--queries", str(files["queries"]), "--qrels",
                str(files["qrels"]), "--selector-model", str(model_path), "--hook-file", str(hook),
                "--mock-script", str(mock)]
        written = {}
        for source, path in (("corpus", files["corpus"]), ("index", index_path)):
            out = files["dir"] / source
            assert main([*argv, f"--{source}", str(path), "--out-dir", str(out)]) == 0
            written[source] = _masked_artifacts(out)
        expected = {f"{mode}.run", f"{mode}.metrics.csv"}
        if mode in pipeline.REFORMER_MODES:
            expected.add(f"{mode}.reformulations.jsonl")
            assert b"a rewritten query" in written["corpus"][f"{mode}.reformulations.jsonl"]
        assert set(written["corpus"]) == expected
        assert written["index"] == written["corpus"]

    @pytest.mark.parametrize("sources", [["corpus", "index"], []], ids=["both", "neither"])
    def test_both_or_neither_source_is_2_before_any_input_is_read(
        self, files, capsys, monkeypatch, sources
    ):
        def no_read(*args, **kwargs):
            raise AssertionError("an input file was read")

        for reader in ("iter_corpus_tsv", "load_index", "read_queries_tsv", "parse_qrels"):
            monkeypatch.setattr(pipeline, reader, no_read)
        out = files["dir"] / "out"
        paths = {"corpus": files["corpus"], "index": files["dir"] / "index.npz"}
        argv = ["run", "--queries", str(files["queries"]), "--out-dir", str(out)]
        for source in sources:
            argv += [f"--{source}", str(paths[source])]
        assert main(argv) == 2
        err = capsys.readouterr().err
        given = "both" if sources else "neither"
        assert f"config error: give exactly one of a corpus and an index file, got {given}" in err
        assert not out.exists()

    def test_index_in_a_config_file_is_loaded(self, files, monkeypatch):
        index_path = files["dir"] / "index.npz"
        assert main(["index", "--corpus", str(files["corpus"]), "--out", str(index_path)]) == 0
        bm25 = ["run", "--corpus", str(files["corpus"]), "--queries", str(files["queries"])]
        assert main([*bm25, "--out-dir", str(files["dir"] / "corpus")]) == 0

        def no_read(path):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr(pipeline, "iter_corpus_tsv", no_read)
        config = files["dir"] / "config.json"
        out = files["dir"] / "index"
        payload = {"index": str(index_path), "queries": str(files["queries"]), "out_dir": str(out)}
        config.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 0
        corpus_run = files["dir"] / "corpus" / "bm25.run"
        assert _ranked_lines(out / "bm25.run") == _ranked_lines(corpus_run)


_GATEWAY_UNSET = {
    "base_url": None,
    "api_key": None,
    "model": None,
    "mock_script": None,
    "max_retries": None,
    "max_in_flight": None,
}

# (minimal argv, its parsed settings, the settings digest its artifacts embed). A
# setting or digest that moves changes what every artifact of the subcommand says.
PARSED_SETTINGS = [
    (
        ["index", "--corpus", "c.tsv", "--out", "i.json"],
        {"command": "index", "corpus": "c.tsv", "out": "i.json", "k1": 0.9, "b": 0.4},
        "ce8473bf5b40",
    ),
    (
        ["induce", "--pairs", "p.tsv", "--out", "l.json"],
        {
            "command": "induce",
            "pairs": "p.tsv",
            "out": "l.json",
            "batch_size": 50,
            "max_patterns": 16,
            "sample": None,
            "seed": 0,
            "existing": None,
            "transcript": None,
            "source_dataset": "",
            **_GATEWAY_UNSET,
        },
        "10835c7af999",
    ),
    (
        ["label", "--pairs", "p.tsv", "--library", "l.json", "--out", "lb.tsv"],
        {
            "command": "label",
            "pairs": "p.tsv",
            "library": "l.json",
            "out": "lb.tsv",
            **_GATEWAY_UNSET,
        },
        "6d62f1141337",
    ),
    (
        [
            "train-selector",
            "--corpus",
            "c.tsv",
            "--pairs",
            "p.tsv",
            "--labels",
            "lb.tsv",
            "--out",
            "m.npz",
        ],
        {
            "command": "train-selector",
            "corpus": "c.tsv",
            "index": None,
            "k1": 0.9,
            "b": 0.4,
            "pairs": "p.tsv",
            "labels": "lb.tsv",
            "library": None,
            "k_context": 3,
            "epochs": 20,
            "learning_rate": 0.1,
            "decay": 0.001,
            "l2": 1e-05,
            "batch_size": 32,
            "dimension": 262144,
            "seed": 0,
            "out": "m.npz",
            "loss_csv": None,
        },
        "58415759e526",
    ),
    (
        ["run", "--corpus", "c.tsv", "--queries", "q.tsv"],
        {
            "command": "run",
            "config": None,
            "corpus": "c.tsv",
            "queries": "q.tsv",
            "index": None,
            **dict.fromkeys(
                [
                    "mode", "qrels", "library", "selector_model", "selector", "k_context",
                    "k_eval", "repetition", "hook_file", "k1", "b", "fb_docs", "fb_terms",
                    "orig_weight", "alpha", "beta", "binarize_at", "out_dir",
                ]
            ),
            **_GATEWAY_UNSET,
        },
        "66ae31a17dae",
    ),
    (
        ["evaluate", "--run", "r.run", "--qrels", "q.txt"],
        {
            "command": "evaluate",
            "run": "r.run",
            "qrels": "q.txt",
            "binarize_at": 2,
            "csv": None,
        },
        "d88f512fc3f7",
    ),
]


class TestParsedSettings:
    @pytest.mark.parametrize(
        "argv, settings, digest", PARSED_SETTINGS, ids=[case[0][0] for case in PARSED_SETTINGS]
    )
    def test_each_subcommand_parses_to_its_frozen_settings(self, argv, settings, digest):
        args = cli._build_parser().parse_args(argv)
        parsed = {k: v for k, v in vars(args).items() if k != "handler"}
        assert parsed == settings
        # 1000 == 1000.0, but a float would change what a setting means and hashes to.
        assert {k: type(v) for k, v in parsed.items()} == {k: type(v) for k, v in settings.items()}
        assert pipeline.settings_hash(vars(args)) == digest

    @pytest.mark.parametrize("flag", ["--selector"])
    def test_unknown_selector_choice_is_2(self, files, capsys, monkeypatch, flag):
        def no_read(path):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr(pipeline, "iter_corpus_tsv", no_read)
        out = files["dir"] / "out"
        argv = ["run", "--mode", "reformer", "--corpus", str(files["corpus"]), "--queries"]
        argv += [str(files["queries"]), flag, "bogus", "--out-dir", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"config error: {flag[2:].replace('-', '_')} must be one of" in err
        assert "'bogus'" in err and not out.exists()
