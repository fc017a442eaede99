import shutil

import numpy as np
import pytest
from click.testing import CliRunner

from incongruity.cli import main
from incongruity.embeddings import load_embeddings
from incongruity.harness import load_dataset
from incongruity.synthetic import toy_embedding_tables
from test_harness import table_rows


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, runner):
    """A corpus plus toy embedding files generated through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    result = runner.invoke(
        main,
        [
            "gen-synthetic",
            "--n", "30",
            "--skew", "0.4",
            "--seed", "9",
            "--out", str(root / "corpus.tsv"),
            "--embeddings-out", str(root / "emb"),
        ],
    )
    assert result.exit_code == 0, result.output
    return root


class TestGenSynthetic:
    def test_writes_corpus_and_tables(self, workspace):
        instances = load_dataset(workspace / "corpus.tsv")
        assert len(instances) == 30
        assert sum(i.label for i in instances) == 12
        files = sorted(p.name for p in (workspace / "emb").iterdir())
        assert files == ["emb-a.txt", "emb-b.txt", "emb-c.txt", "emb-d.txt"]

    def test_tables_match_library_generation(self, workspace):
        expected = toy_embedding_tables(seed=9)["emb-a"]
        loaded = load_embeddings(workspace / "emb" / "emb-a.txt", "text_vectors")
        assert loaded.vocab == expected.vocab
        np.testing.assert_array_equal(loaded.vectors, expected.vectors)

    def test_summary_line(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "gen-synthetic",
                "--n", "10",
                "--skew", "0.3",
                "--out", str(tmp_path / "c.tsv"),
            ],
        )
        assert result.exit_code == 0
        assert "wrote 10 instances (3 sarcastic)" in result.output


class TestLoadEmbeddings:
    def test_summary_for_text_table(self, runner, workspace):
        result = runner.invoke(
            main, ["load-embeddings", str(workspace / "emb" / "emb-a.txt")]
        )
        assert result.exit_code == 0
        assert "emb-a: 51 words, dimension 64" in result.output

    def test_malformed_file_fails(self, runner, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("word 1.0 2.0\nshort 3.0\n", encoding="utf-8")
        result = runner.invoke(main, ["load-embeddings", str(bad)])
        assert result.exit_code != 0


class TestIntersectVocab:
    def test_common_vocabulary_written(self, runner, workspace, tmp_path):
        out = tmp_path / "shared"
        result = runner.invoke(
            main,
            [
                "intersect-vocab",
                str(workspace / "emb" / "emb-a.txt"),
                str(workspace / "emb" / "emb-b.txt"),
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "common vocabulary: 48 words across 2 tables" in result.output
        a = load_embeddings(out / "emb-a.txt", "text_vectors")
        b = load_embeddings(out / "emb-b.txt", "text_vectors")
        assert set(a.vocab) == set(b.vocab)
        assert len(a) == 48


    def test_word_text_vectors_cannot_hold_is_refused(self, runner, tmp_path):
        # A binary record's word ends at a space, so it may hold a tab; the
        # text format could not read that word back.
        one = np.float32(1.0).tobytes()
        paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for path in paths:
            path.write_bytes(b"2 1\n" + b"x\ty " + one + b"z " + one)
        out = tmp_path / "shared"
        result = runner.invoke(
            main, ["intersect-vocab", *map(str, paths), "--out", str(out)]
        )
        assert result.exit_code != 0
        assert "word 'x\\ty'" in str(result.exception)
        assert not list(out.iterdir())


class TestSameNamedTables:
    def test_embedding_dir_with_one_stem_twice_is_refused(
        self, runner, workspace, tmp_path
    ):
        directory = tmp_path / "emb"
        directory.mkdir()
        shutil.copy(workspace / "emb" / "emb-a.txt", directory / "e.txt")
        shutil.copy(workspace / "emb" / "emb-b.txt", directory / "e.vec")
        result = runner.invoke(
            main,
            [
                "extract-features",
                "--config", "L+S:e",
                "--dataset", str(workspace / "corpus.tsv"),
                "--embeddings", str(directory),
                "--out", str(tmp_path / "features.txt"),
            ],
        )
        assert result.exit_code == 2, result.output
        assert f"{directory / 'e.txt'} and {directory / 'e.vec'}" in result.output
        assert not (tmp_path / "features.txt").exists()

    def test_intersect_vocab_refuses_two_tables_of_one_name(
        self, runner, workspace, tmp_path
    ):
        paths = [tmp_path / "a" / "e.txt", tmp_path / "b" / "e.txt"]
        for source, path in zip(("emb-a.txt", "emb-b.txt"), paths):
            path.parent.mkdir()
            shutil.copy(workspace / "emb" / source, path)
        out = tmp_path / "shared"
        result = runner.invoke(
            main, ["intersect-vocab", *map(str, paths), "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert f"{paths[0]} and {paths[1]}" in result.output
        assert not out.exists()


class TestTrainEvaluateRoundTrip:
    def test_extract_then_train_then_evaluate(self, runner, workspace, tmp_path):
        corpus = str(workspace / "corpus.tsv")
        features_file = tmp_path / "features.txt"
        result = runner.invoke(
            main,
            [
                "extract-features",
                "--config", "L+S:emb-a",
                "--dataset", corpus,
                "--embeddings", str(workspace / "emb"),
                "--out", str(features_file),
            ],
        )
        assert result.exit_code == 0, result.output
        lines = features_file.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 30
        first_id, label, rendered = lines[0].split("\t")
        assert first_id == "q00000"
        assert label in ("0", "1")
        assert "emb.s.max_sim:" in rendered

        model_file = tmp_path / "model.txt"
        result = runner.invoke(
            main,
            [
                "train",
                "--config", "L+S:emb-a",
                "--dataset", corpus,
                "--embeddings", str(workspace / "emb"),
                "--epochs", "10",
                "--model-out", str(model_file),
            ],
        )
        assert result.exit_code == 0, result.output
        assert model_file.exists()

        result = runner.invoke(
            main,
            [
                "evaluate",
                "--config", "L+S:emb-a",
                "--dataset", corpus,
                "--model", str(model_file),
                "--embeddings", str(workspace / "emb"),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "precision" in result.output
        assert "f-score" in result.output

    def test_plain_config_needs_no_embeddings(self, runner, workspace, tmp_path):
        model_file = tmp_path / "model.txt"
        result = runner.invoke(
            main,
            [
                "train",
                "--config", "L",
                "--dataset", str(workspace / "corpus.tsv"),
                "--epochs", "3",
                "--model-out", str(model_file),
            ],
        )
        assert result.exit_code == 0, result.output
        assert model_file.exists()


class TestRunMatrix:
    def run_it(self, runner, workspace, report_path, fmt="markdown", env=None,
               extra=()):
        args = [
            "run-matrix",
            "--dataset", str(workspace / "corpus.tsv"),
            "--report", str(report_path),
            "--format", fmt,
            "--folds", "3",
            "--epochs", "2",
            *extra,
        ]
        if env is None:
            args[1:1] = ["--embeddings", str(workspace / "emb")]
        return runner.invoke(main, args, env=env)

    def test_full_grid_report(self, runner, workspace, tmp_path):
        report = tmp_path / "report.md"
        result = self.run_it(runner, workspace, report)
        assert result.exit_code == 0, result.output
        assert "(64 grid cells)" in result.output
        sections = report.read_text(encoding="utf-8").split("\n## ")[1:]
        cells = [row for section in sections[:-2] for row in table_rows(section)]
        assert len(cells) == 64
        gains = table_rows(sections[-2])
        assert len(gains) == 3 and all(len(row) == 1 + 4 for row in gains)
        assert len(table_rows(sections[-1])) == 4

    def test_reruns_are_byte_identical(self, runner, workspace, tmp_path):
        first = tmp_path / "first.tsv"
        second = tmp_path / "second.tsv"
        assert self.run_it(runner, workspace, first, fmt="tsv").exit_code == 0
        assert self.run_it(runner, workspace, second, fmt="tsv").exit_code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_embedding_dir_envvar(self, runner, workspace, tmp_path):
        report = tmp_path / "report.md"
        result = self.run_it(
            runner,
            workspace,
            report,
            env={"INCONGRUITY_EMBED_DIR": str(workspace / "emb")},
        )
        assert result.exit_code == 0, result.output
        assert report.exists()

    def test_predictions_dump(self, runner, workspace, tmp_path):
        report = tmp_path / "report.md"
        predictions = tmp_path / "predictions.tsv"
        result = self.run_it(
            runner, workspace, report,
            extra=["--predictions", str(predictions)],
        )
        assert result.exit_code == 0, result.output
        lines = predictions.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("prior\taugmentation\tembedding\tfold")
        # 64 grid cells x 30 pooled test predictions each.
        assert len(lines) == 1 + 64 * 30
