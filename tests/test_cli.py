import json

import numpy as np
import pytest

from conftest import SEED_PATTERN_NAMES, consolidation_payload
from patternqr.cli import main
from patternqr.evaluation import parse_run
from patternqr.gateway import Gateway, GatewayConfig, MockScript
from patternqr.generator import read_reformulation_log
from patternqr.induction import load_labels, load_library
from patternqr.pipeline import PipelineConfig, run_pipeline
from patternqr.selector import FeatureConfig, SelectorModel, save_model

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


def _mock(tmp_path, fallback):
    path = tmp_path / "mock.json"
    MockScript(fallback=fallback).save(path)
    return path


class TestIndexRetrieveEvaluate:
    def test_index_then_retrieve_then_evaluate(self, files, capsys):
        index_path = files["dir"] / "index.json"
        run_path = files["dir"] / "run.txt"
        assert main(["index", "--corpus", str(files["corpus"]), "--out", str(index_path)]) == 0
        assert (
            main(
                [
                    "retrieve",
                    "--index",
                    str(index_path),
                    "--queries",
                    str(files["queries"]),
                    "--k",
                    "10",
                    "--out",
                    str(run_path),
                ]
            )
            == 0
        )
        run = parse_run(run_path)
        assert [e.doc_id for e in run["q1"]] == ["d2", "d1"]
        assert (
            main(["evaluate", "--run", str(run_path), "--qrels", str(files["qrels"])]) == 0
        )
        out = capsys.readouterr().out
        assert "mean" in out

    def test_baseline_rm3(self, files):
        run_path = files["dir"] / "rm3.txt"
        code = main(
            [
                "baseline",
                "--method",
                "rm3",
                "--corpus",
                str(files["corpus"]),
                "--queries",
                str(files["queries"]),
                "--fb-docs",
                "2",
                "--out",
                str(run_path),
            ]
        )
        assert code == 0
        assert parse_run(run_path)


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

    def test_train_selector_and_reformulate(self, files):
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
        log_path = files["dir"] / "log.jsonl"
        code = main(
            [
                "reformulate",
                "--corpus",
                str(files["corpus"]),
                "--queries",
                str(files["queries"]),
                "--selector-model",
                str(model_path),
                "--out",
                str(log_path),
                "--mock-script",
                str(mock),
            ]
        )
        assert code == 0
        records = read_reformulation_log(log_path)
        assert [r.query_id for r in records] == ["q1", "q2"]
        assert records[0].reformulation == "a rewritten query"

    def test_reformulate_with_prompt_selector(self, files):
        mock = _mock(files["dir"], "Clarify Intent")
        log_path = files["dir"] / "log.jsonl"
        code = main(
            [
                "reformulate",
                "--corpus",
                str(files["corpus"]),
                "--queries",
                str(files["queries"]),
                "--selector",
                "prompt",
                "--out",
                str(log_path),
                "--mock-script",
                str(mock),
            ]
        )
        assert code == 0
        records = read_reformulation_log(log_path)
        assert all(r.pattern_name == "Clarify Intent" for r in records)


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


class TestExitCodes:
    def test_config_error_is_2(self, files, capsys):
        code = main(
            [
                "run",
                "--corpus",
                str(files["dir"] / "missing.tsv"),
                "--queries",
                str(files["queries"]),
            ]
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_data_error_is_3(self, files, capsys):
        bad = files["dir"] / "bad.tsv"
        bad.write_text("no tab here\n", encoding="utf-8")
        code = main(
            ["run", "--corpus", str(bad), "--queries", str(files["queries"])]
        )
        assert code == 3
        assert "data error" in capsys.readouterr().err

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
            ({"mode": "reformer", "selector": "prompt", "select_mode": "bogus"}, "bogus"),
        ],
        ids=["unknown", "unknown-gateway", "mistyped", "bad-select-mode"],
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


def _ranked_lines(path):
    """Run-file lines without the tag, which embeds a per-command hash."""
    return [line.split()[:-1] for line in path.read_text(encoding="utf-8").splitlines()]


class TestSinglePath:
    """The subcommands rank and reformulate exactly as run_pipeline does."""

    @pytest.mark.parametrize(
        "argv, mode",
        [
            (["retrieve"], "bm25"),
            (["baseline", "--method", "rm3"], "rm3"),
            (["baseline", "--method", "rocchio"], "rocchio"),
        ],
    )
    def test_rankings_match_run_pipeline(self, files, argv, mode):
        out = files["dir"] / "cli.run"
        code = main(
            [
                *argv,
                "--corpus",
                str(files["corpus"]),
                "--queries",
                str(files["queries"]),
                "--k",
                "10",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        config = PipelineConfig(
            corpus=str(files["corpus"]),
            queries=str(files["queries"]),
            mode=mode,
            k_eval=10,
            out_dir=str(files["dir"] / "pipeline"),
        )
        assert _ranked_lines(out) == _ranked_lines(run_pipeline(config).run_path)

    @pytest.mark.parametrize("select_mode", ["argmax", "sample"])
    def test_reformulations_match_run_pipeline(self, files, select_mode):
        model_path = files["dir"] / "model.npz"
        save_model(SelectorModel.zeros(10, FeatureConfig(dimension=1024), "seed-1"), model_path)
        mock = _mock(files["dir"], "a rewritten query")
        log_path = files["dir"] / "log.jsonl"
        code = main(
            [
                "reformulate",
                "--corpus",
                str(files["corpus"]),
                "--queries",
                str(files["queries"]),
                "--selector-model",
                str(model_path),
                "--select-mode",
                select_mode,
                "--seed",
                "3",
                "--out",
                str(log_path),
                "--mock-script",
                str(mock),
            ]
        )
        assert code == 0
        config = PipelineConfig(
            corpus=str(files["corpus"]),
            queries=str(files["queries"]),
            mode="reformer",
            selector_model=str(model_path),
            select_mode=select_mode,
            seed=3,
            gateway=GatewayConfig(mock_script=str(mock)),
            out_dir=str(files["dir"] / "pipeline"),
        )
        result = run_pipeline(config)
        assert read_reformulation_log(log_path) == read_reformulation_log(result.log_path)
