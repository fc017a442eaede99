import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import incongruity
import oracles
from incongruity import harness
from incongruity.classify import ModelFormatError, TrainConfig, TrainingError, load_model
from incongruity.cli import main
from incongruity.embeddings import EmbeddingFormatError, load_embeddings
from incongruity.features import LexiconFormatError, default_lexicon, load_lexicon
from incongruity.harness import DatasetParseError, load_dataset, stratified_kfold
from incongruity.synthetic import toy_embedding_tables
from incongruity.text import StopwordFormatError, default_stopwords, load_stopwords
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

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd")
    def test_bad_component_in_a_pipe_is_named(self, runner):
        # A pipe is read once: the bad row must be named from that one read,
        # as a shell's <(printf ...) hands a table to the command.
        read_fd, write_fd = os.pipe()
        try:
            os.write(write_fd, b"a 1 2\nb 3 x\n")
            os.close(write_fd)
            result = runner.invoke(main, ["load-embeddings", f"/dev/fd/{read_fd}"])
        finally:
            os.close(read_fd)
        assert result.exit_code == 1
        assert result.output == f"Error: /dev/fd/{read_fd}: line 2: non-numeric vector component\n"


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
        assert result.exit_code == 1
        assert result.output.startswith("Error: word 'x\\ty': an empty word or one")
        assert "Traceback" not in result.output
        assert not list(out.iterdir())


class TestInputErrors:
    """A fault in an input file or option is one line naming it, exit 1."""

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("dataset", "corpus.tsv: line 2: label must be 0 or 1, got '7'"),
            ("lexicon", "lexicon.tsv: line 1: unknown tag(s) ['shiny']"),
            ("embeddings", "bad.txt: line 2: expected 2 components, found 1"),
            ("model", "unsupported model header 'not a model'"),
            ("model-cat", "m-cat.txt: line 9: expected the end of the file after 1 weights, "
                          "found 'incongruity-model v1'"),
            ("config", "unknown embedding id 'missing'"),
            ("stopwords", "stop.txt: line 2: not valid UTF-8"),
            ("train-c", "c must be finite and positive, got nan"),
            ("train-negative-c", "c must be finite and positive, got -1.0"),
            ("matrix-w", "w must be finite and positive, got inf"),
            ("one-class", "training data must contain both classes"),
            ("folds", "class 0 has 1 instances; need at least 5 for 5-fold splits"),
            ("intersection", "no common vocabulary across tables"),
            ("synthetic-n", "n must be at least 1, got 0"),
            ("synthetic-negative-n", "n must be at least 1, got -5"),
            ("synthetic-skew", "skew must be strictly between 0 and 1, got 2.0"),
            ("synthetic-nan-skew", "skew must be strictly between 0 and 1, got nan"),
            ("synthetic-separability", "separability must lie in [0, 1], got 5.0"),
            ("synthetic-no-sarcastic", "n=3 and skew=0.1 give 0 sarcastic and 3 plain"),
            ("synthetic-no-plain", "n=3 and skew=0.9 give 3 sarcastic and 0 plain"),
            ("augmentation", "unknown augmentation 'X'; expected one of ('none', 'S', 'WS'"),
            ("no-tables", "no-tables holds no .txt, .vec or .bin table"),
            ("binary-header", "huge.bin: header declares 1000000000000 records of dimension 300"),
            ("train-overflow", "non-finite margin in epoch 0"),
            ("matrix-overflow", "non-finite margin for cell 'L (fold 0)' in epoch 0"),
            ("extract-out-dir", "No such file or directory: '{missing}/features.txt'"),
            ("train-out-dir", "No such file or directory: '{missing}/m.txt'"),
            ("matrix-report-dir", "No such file or directory: '{missing}/report.md'"),
            ("matrix-predictions-dir", "No such file or directory: '{missing}/p.tsv'"),
            ("synthetic-out-dir", "No such file or directory: '{missing}/synthetic.tsv'"),
            ("synthetic-tables-dir", "Not a directory: '{tmp}/afile/x'"),
            ("config-unnamed", "an embedding id is required when an augmentation is "
                               "selected; available: ['emb-a', 'emb-b', 'emb-c', 'emb-d']"),
            ("base-config-missing-table", "unknown embedding id 'emb-z'; "
                                          "available: ['emb-a', 'emb-b', 'emb-c', 'emb-d']"),
            ("matrix-report-is-predictions", "output {tmp}/r.md would overwrite {tmp}/r.md"),
            ("extract-out-is-dataset", "output {tmp}/c.tsv would overwrite {tmp}/c.tsv"),
            ("train-model-is-dataset", "output {tmp}/c.tsv would overwrite {tmp}/c.tsv"),
            ("train-model-links-to-dataset", "output {tmp}/link.tsv would overwrite {tmp}/c.tsv"),
            ("synthetic-out-is-a-table", "output {tmp}/g/emb-a.txt would overwrite {tmp}/g/emb-a.txt"),
            ("intersect-out-is-input", "output {tmp}/iv/emb-a.txt would overwrite {tmp}/iv/emb-a.txt"),
        ],
    )
    def test_error_is_one_line_and_exit_one(self, runner, workspace, tmp_path, kind, message):
        (tmp_path / "corpus.tsv").write_text("a\t1\tfine\nb\t7\tbad\n", encoding="utf-8")
        (tmp_path / "one-class.tsv").write_text("a\t1\tfine\nb\t1\tgood\n", encoding="utf-8")
        (tmp_path / "three.tsv").write_text(
            "a\t1\tfine\nb\t1\tgood\nc\t0\tbad\n", encoding="utf-8"
        )
        (tmp_path / "lexicon.tsv").write_text("good\tshiny\n", encoding="utf-8")
        (tmp_path / "stop.txt").write_bytes(b"the\n\xff\n")
        (tmp_path / "emb").mkdir()
        (tmp_path / "emb" / "bad.txt").write_text("a 1.0 2.0\nb 3.0\n", encoding="utf-8")
        (tmp_path / "x.txt").write_text("x 1.0\n", encoding="utf-8")
        (tmp_path / "y.txt").write_text("y 1.0\n", encoding="utf-8")
        (tmp_path / "model.txt").write_text("not a model\n", encoding="utf-8")
        # Two model files joined with cat.
        model = "incongruity-model v1\ndim 1\nbias 0.0\nthreshold 0.0\n"
        model += "names 1\nuni:fine\nweights 1\n0 1.0\n"
        (tmp_path / "m-cat.txt").write_text(model + model, encoding="utf-8")
        (tmp_path / "no-tables").mkdir()
        (tmp_path / "no-tables" / "notes.md").write_text("no table\n", encoding="utf-8")
        (tmp_path / "huge.bin").write_bytes(b"1000000000000 300\n")
        (tmp_path / "afile").write_text("not a directory\n", encoding="utf-8")
        shutil.copy(workspace / "corpus.tsv", tmp_path / "c.tsv")
        (tmp_path / "link.tsv").symlink_to(tmp_path / "c.tsv")
        (tmp_path / "iv").mkdir()
        for name in ("emb-a.txt", "emb-b.txt"):
            shutil.copy(workspace / "emb" / name, tmp_path / "iv")
        contents = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        missing = tmp_path / "missing"
        corpus = str(workspace / "corpus.tsv")
        extract = ["extract-features", "--out", str(tmp_path / "features.txt")]
        train = ["train", "--config", "L", "--model-out", str(tmp_path / "m.txt")]
        matrix = ["run-matrix", "--embeddings", str(workspace / "emb"),
                  "--report", str(tmp_path / "report.md"), "--epochs", "1"]
        synthetic = ["gen-synthetic", "--out", str(tmp_path / "synthetic.tsv"),
                     "--embeddings-out", str(tmp_path / "synthetic-emb")]
        args = {
            "dataset": [*extract, "--config", "L", "--dataset", str(tmp_path / "corpus.tsv")],
            "lexicon": [*extract, "--config", "G", "--dataset", corpus,
                        "--lexicon", str(tmp_path / "lexicon.tsv")],
            "embeddings": [*extract, "--config", "L+S:bad", "--dataset", corpus,
                           "--embeddings", str(tmp_path / "emb")],
            "model": ["evaluate", "--config", "L", "--dataset", corpus,
                      "--model", str(tmp_path / "model.txt")],
            "model-cat": ["evaluate", "--config", "L", "--dataset", corpus,
                          "--model", str(tmp_path / "m-cat.txt")],
            "config": [*extract, "--config", "L+S:missing", "--dataset", corpus],
            "stopwords": [*extract, "--config", "L", "--dataset", corpus,
                          "--stopwords", str(tmp_path / "stop.txt")],
            "train-c": [*train, "--dataset", corpus, "--c", "nan"],
            "train-negative-c": [*train, "--dataset", corpus, "--c", "-1"],
            "matrix-w": [*matrix, "--dataset", corpus, "--w", "inf"],
            "one-class": [*train, "--dataset", str(tmp_path / "one-class.tsv")],
            "folds": [*matrix, "--dataset", str(tmp_path / "three.tsv"), "--folds", "5"],
            "intersection": ["intersect-vocab", str(tmp_path / "x.txt"),
                             str(tmp_path / "y.txt"), "--out", str(tmp_path / "shared")],
            "synthetic-n": [*synthetic, "--n", "0", "--skew", "0.5"],
            "synthetic-negative-n": [*synthetic, "--n", "-5", "--skew", "0.5"],
            "synthetic-skew": [*synthetic, "--n", "10", "--skew", "2"],
            "synthetic-nan-skew": [*synthetic, "--n", "10", "--skew", "nan"],
            "synthetic-separability": [*synthetic, "--n", "10", "--skew", "0.5",
                                       "--separability", "5"],
            "synthetic-no-sarcastic": [*synthetic, "--n", "3", "--skew", "0.1"],
            "synthetic-no-plain": [*synthetic, "--n", "3", "--skew", "0.9"],
            "augmentation": [*extract, "--config", "L+X", "--dataset", corpus,
                             "--embeddings", str(workspace / "emb")],
            # The last --embeddings given wins.
            "no-tables": [*matrix, "--dataset", corpus,
                          "--embeddings", str(tmp_path / "no-tables")],
            "binary-header": ["load-embeddings", str(tmp_path / "huge.bin")],
            "train-overflow": [*train, "--dataset", corpus, "--w", "1e308"],
            "matrix-overflow": [*matrix, "--dataset", corpus, "--w", "1e308"],
            "extract-out-dir": ["extract-features", "--config", "L", "--dataset", corpus,
                                "--out", str(missing / "features.txt")],
            "train-out-dir": ["train", "--config", "L", "--dataset", corpus,
                              "--model-out", str(missing / "m.txt")],
            "matrix-report-dir": [*matrix, "--dataset", corpus,
                                  "--report", str(missing / "report.md")],
            "matrix-predictions-dir": [*matrix, "--dataset", corpus,
                                       "--predictions", str(missing / "p.tsv")],
            "synthetic-out-dir": [*synthetic, "--n", "10", "--skew", "0.5",
                                  "--out", str(missing / "synthetic.tsv")],
            "synthetic-tables-dir": [*synthetic, "--n", "10", "--skew", "0.5",
                                     "--embeddings-out", str(tmp_path / "afile" / "x")],
            "config-unnamed": ["train", "--config", "J+S+WS", "--dataset", corpus,
                               "--embeddings", str(workspace / "emb"),
                               "--model-out", str(tmp_path / "m.txt")],
            "base-config-missing-table": [*train, "--config", "L:emb-z", "--dataset", corpus,
                                          "--embeddings", str(workspace / "emb")],
            "matrix-report-is-predictions": [*matrix, "--dataset", corpus,
                                             "--report", str(tmp_path / "r.md"),
                                             "--predictions", str(tmp_path / "r.md")],
            "extract-out-is-dataset": ["extract-features", "--config", "L", "--dataset",
                                       str(tmp_path / "c.tsv"), "--out", str(tmp_path / "c.tsv")],
            "train-model-is-dataset": ["train", "--config", "L", "--dataset",
                                       str(tmp_path / "c.tsv"),
                                       "--model-out", str(tmp_path / "c.tsv")],
            "train-model-links-to-dataset": ["train", "--config", "L", "--dataset",
                                             str(tmp_path / "c.tsv"),
                                             "--model-out", str(tmp_path / "link.tsv")],
            "synthetic-out-is-a-table": ["gen-synthetic", "--n", "10", "--skew", "0.5",
                                         "--out", str(tmp_path / "g" / "emb-a.txt"),
                                         "--embeddings-out", str(tmp_path / "g")],
            "intersect-out-is-input": ["intersect-vocab", str(tmp_path / "iv" / "emb-a.txt"),
                                       str(tmp_path / "iv" / "emb-b.txt"),
                                       "--out", str(tmp_path / "iv")],
        }[kind]
        written = sorted(tmp_path.rglob("*"))
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        [line] = result.output.splitlines()
        assert line.startswith("Error: ") and message.format(missing=missing, tmp=tmp_path) in line
        # No output file, and no output directory, is left behind, and no
        # input is changed.
        assert sorted(tmp_path.rglob("*")) == written
        assert {path: path.read_bytes() for path in contents} == contents

    @pytest.mark.parametrize("command", ["run-matrix", "train", "gen-synthetic"])
    def test_negative_seed_is_one_error_line(self, runner, workspace, tmp_path, command):
        corpus = str(workspace / "corpus.tsv")
        args = {
            "run-matrix": ["run-matrix", "--dataset", corpus, "--embeddings",
                           str(workspace / "emb"), "--report", str(tmp_path / "report.md")],
            "train": ["train", "--config", "L", "--dataset", corpus,
                      "--model-out", str(tmp_path / "model.txt")],
            "gen-synthetic": ["gen-synthetic", "--n", "10", "--skew", "0.5",
                              "--out", str(tmp_path / "corpus.tsv"),
                              "--embeddings-out", str(tmp_path / "emb")],
        }[command]
        result = runner.invoke(main, [*args, "--seed", "-1"])
        assert result.exit_code != 0
        # A usage error, not an escaped exception and its traceback.
        assert isinstance(result.exception, SystemExit), result.exception
        [line] = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert "'--seed'" in line
        assert not any(tmp_path.iterdir())


class TestNotUtf8:
    """A byte that is not UTF-8 names the file and its line in every text
    reader, and the CLI prints it as one error line."""

    @pytest.mark.parametrize("reader", ["dataset", "lexicon", "stopwords", "table", "model"])
    def test_error_names_line(self, runner, workspace, tmp_path, reader):
        corpus = str(workspace / "corpus.tsv")
        extract = ["extract-features", "--config", "G", "--out", str(tmp_path / "f.txt")]
        good, error, load, args = {
            "dataset": (b"a\t1\tfine\nb\t0\tgood\n", DatasetParseError, load_dataset,
                        [*extract, "--dataset"]),
            "lexicon": (b"# tags\nbad\tnegative\n", LexiconFormatError, load_lexicon,
                        [*extract, "--dataset", corpus, "--lexicon"]),
            "stopwords": (b"the\n\n", StopwordFormatError, load_stopwords,
                          [*extract, "--dataset", corpus, "--stopwords"]),
            "table": (b"2 2\na 1 2\n", EmbeddingFormatError,
                      lambda path: load_embeddings(path, "text_vectors"), ["load-embeddings"]),
            "model": (b"incongruity-model v1\ndim 1\n", ModelFormatError, load_model,
                      ["evaluate", "--config", "L", "--dataset", corpus, "--model"]),
        }[reader]
        path = tmp_path / "input.txt"
        path.write_bytes(good + b"x\xffy 1\n")
        with pytest.raises(error, match=r"input\.txt: line 3: not valid UTF-8$") as info:
            load(path)
        assert isinstance(info.value.__cause__, UnicodeDecodeError)
        result = runner.invoke(main, [*args, str(path)])
        assert result.exit_code == 1, result.output
        assert result.output == f"Error: {info.value}\n"


def bom_crlf_copy(source, target):
    """Copy a text file with a byte-order mark and CRLF line ends."""
    target.write_bytes(b"\xef\xbb\xbf" + source.read_bytes().replace(b"\n", b"\r\n"))


class TestByteOrderMarkAndCrlf:
    """A BOM + CRLF copy of every text input gives the bytes its LF
    original gives."""

    @pytest.fixture(scope="class")
    def originals(self, workspace, tmp_path_factory):
        root = tmp_path_factory.mktemp("lf")
        # The synthetic rows reach the tables; the lexicon-corpus rows reach
        # the lexicon.
        rows = (workspace / "corpus.tsv").read_bytes() + LEXICON_CORPUS.read_bytes()
        (root / "corpus.tsv").write_bytes(rows)
        (root / "corpus.jsonl").write_text(
            "".join(
                json.dumps({"id": i.id, "label": i.label, "text": i.text}) + "\n"
                for i in load_dataset(root / "corpus.tsv")
            ),
            encoding="utf-8",
        )
        (root / "emb").mkdir()
        shutil.copy(workspace / "emb" / "emb-a.txt", root / "emb")
        # emb-b without its "<count> <dim>" header line.
        headed = (workspace / "emb" / "emb-b.txt").read_bytes()
        (root / "emb" / "emb-b.txt").write_bytes(headed.split(b"\n", 1)[1])
        data = Path(incongruity.__file__).parent / "data"
        shutil.copy(data / "sentiment_lexicon.tsv", root / "lexicon.tsv")
        shutil.copy(data / "stopwords.txt", root / "stopwords.txt")
        return root

    @pytest.mark.parametrize("corpus", ["corpus.tsv", "corpus.jsonl"])
    def test_outputs_are_byte_identical(self, runner, originals, tmp_path, corpus):
        copies = tmp_path / "copies"
        (copies / "emb").mkdir(parents=True)
        for path in originals.rglob("*.*"):
            bom_crlf_copy(path, copies / path.relative_to(originals))

        def run(*args):
            result = runner.invoke(main, [str(arg) for arg in args])
            assert result.exit_code == 0, result.output
            return result.output

        def given(root):
            return ["--dataset", root / corpus, "--embeddings", root / "emb",
                    "--lexicon", root / "lexicon.tsv", "--stopwords", root / "stopwords.txt"]

        config = ["--config", "J+S+WS:emb-b"]

        def outputs(root, out):
            out.mkdir()
            matrix = ["run-matrix", *given(root), "--folds", "3", "--epochs", "2"]
            run(*matrix, "--report", out / "report.md", "--predictions", out / "predictions.tsv")
            run(*matrix, "--format", "tsv", "--report", out / "report.tsv")
            run("extract-features", *given(root), *config, "--out", out / "features.txt")
            run("train", *given(root), *config, "--epochs", "5", "--model-out", out / "model.txt")
            return {path.name: path.read_bytes() for path in out.iterdir()}

        expected = outputs(originals, tmp_path / "lf")
        assert outputs(copies, tmp_path / "crlf") == expected
        bom_crlf_copy(tmp_path / "lf" / "model.txt", copies / "model.txt")
        scores = [
            run("evaluate", *given(root), *config, "--model", model)
            for root, model in [(originals, tmp_path / "lf" / "model.txt"),
                                (copies, copies / "model.txt")]
        ]
        assert scores[0] == scores[1]


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


@pytest.mark.parametrize("command", ["train", "run-matrix"])
def test_training_option_defaults_are_train_configs(command):
    defaults = {param.name: param.default for param in main.commands[command].params}
    config = TrainConfig()
    assert (defaults["c"], defaults["w"], defaults["epochs"]) == (
        config.c, config.w, config.epochs
    )


class TestTableChoice:
    """A single-config command reads only the table its config names, and
    infers it only from a directory of one table."""

    def features(self, runner, workspace, tmp_path, config, tables):
        out = tmp_path / "features.txt"
        result = runner.invoke(main, [
            "extract-features", "--config", config, "--dataset", str(workspace / "corpus.tsv"),
            "--embeddings", str(tables), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        return out.read_bytes()

    def test_one_table_is_inferred(self, runner, workspace, tmp_path):
        (tmp_path / "one").mkdir()
        shutil.copy(workspace / "emb" / "emb-b.txt", tmp_path / "one")
        inferred = self.features(runner, workspace, tmp_path, "J+S+WS", tmp_path / "one")
        named = self.features(runner, workspace, tmp_path, "J+S+WS:emb-b", workspace / "emb")
        assert inferred == named

    def test_only_the_named_table_is_loaded(self, runner, workspace, tmp_path):
        tables = tmp_path / "emb"
        shutil.copytree(workspace / "emb", tables)
        (tables / "bad.txt").write_text("a 1.0 2.0\nb 3.0\n", encoding="utf-8")
        for config in ("L", "J+S+WS:emb-c"):
            expected = self.features(runner, workspace, tmp_path, config, workspace / "emb")
            assert self.features(runner, workspace, tmp_path, config, tables) == expected

    def test_unknown_table_lists_the_directory(self, runner, workspace, tmp_path):
        # The config is checked before any file is read: the "model" is not one.
        result = runner.invoke(main, [
            "evaluate", "--config", "L+S:emb-z", "--dataset", str(workspace / "corpus.tsv"),
            "--embeddings", str(workspace / "emb"), "--model", str(workspace / "corpus.tsv"),
        ])
        assert result.exit_code == 1
        assert result.output == (
            "Error: unknown embedding id 'emb-z'; "
            "available: ['emb-a', 'emb-b', 'emb-c', 'emb-d']\n"
        )


@pytest.mark.skipif(sys.platform != "linux", reason="folds are forked on Linux only")
def test_a_workers_training_error_is_one_error_line(runner, workspace, tmp_path, monkeypatch):
    def failing(rows, config, names):
        if names[0].endswith("(fold 1)"):
            raise TrainingError(f"no fit for {names[0]}")
        return train_cells(rows, config, names)

    train_cells = harness.train
    monkeypatch.setattr(harness, "train", failing)
    outputs = []
    # Fold 1 is trained here, then in a forked worker.
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        result = runner.invoke(main, [
            "run-matrix", "--dataset", str(workspace / "corpus.tsv"),
            "--embeddings", str(workspace / "emb"), "--folds", "3", "--epochs", "1",
            "--report", str(tmp_path / "report.md"),
        ])
        assert result.exit_code == 1
        outputs.append(result.output)
    assert outputs == ["Error: no fit for L (fold 1)\n"] * 2
    assert not (tmp_path / "report.md").exists()


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


# A corpus of shipped lexicon entries: sentiment runs and flips, emphasis
# and ellipses after sentiment words, interjections, laughter, multi-tag
# words, case variants, implicit phrases and a decomposed letter.
LEXICON_CORPUS = Path(__file__).parent / "data" / "lexicon_corpus.tsv"
# sha256 of its ``extract-features --config <prior>`` file, with the shipped
# lexicon and stopwords.  A change to these bytes changes the features.
LEXICON_CORPUS_FEATURES_SHA256 = {
    "L": "cc3005f748a5caacc785121cc7afbd2977610704dc25c3533898c6e8dee089f5",
    "G": "ee4685cb1ee37e2bcbfd6582447aa9368960c2a00138ce8a871959bb3d4d856b",
    "B": "7fbd1dc59cb66301b45ac4032763158bf1ff33876fe753f2df0c5ffcf5d7654f",
    "J": "087719e1322881241a070538a522fe5ad39d504fa12307d585edf0cb779fa2a8",
}


# sha256 of its ``train --config <prior> --epochs 50`` model file.  The
# trainer sums in one canonical order and these configs have no S/WS block,
# so the bytes do not depend on the BLAS kernel, though L rows reach 28
# entries.
LEXICON_CORPUS_MODEL_SHA256 = {
    "L": "ba1e3545f5b5bcf5af4ef95115a31f4d075a78cbcad90708da79fd33ee3957c5",
    "J": "b4c23be3c8f69bd7bbf16787252be1dd8f47fce0c40d408164cd72ed54e69b88",
}


class TestLexiconCorpusFeatures:
    @pytest.mark.parametrize("prior", sorted(LEXICON_CORPUS_FEATURES_SHA256))
    def test_feature_file_bytes_are_pinned(self, runner, tmp_path, prior):
        out = tmp_path / "features.txt"
        result = runner.invoke(
            main,
            [
                "extract-features",
                "--config", prior,
                "--dataset", str(LEXICON_CORPUS),
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == LEXICON_CORPUS_FEATURES_SHA256[prior]

    @pytest.mark.parametrize("prior", sorted(LEXICON_CORPUS_MODEL_SHA256))
    def test_model_file_bytes_are_pinned(self, runner, tmp_path, prior):
        out = tmp_path / "model.txt"
        result = runner.invoke(
            main,
            [
                "train",
                "--config", prior,
                "--dataset", str(LEXICON_CORPUS),
                "--epochs", "50",
                "--model-out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == LEXICON_CORPUS_MODEL_SHA256[prior]


# sha256 of the ``run-matrix --folds 3 --epochs 3`` report of
# ``gen-synthetic --n 200 --skew 0.3 --seed 0 --separability 0.8``, per
# format; CI checks the same bytes under other hash seeds and OpenBLAS
# kernels.  The predictions file is not pinned: its scores carry the S/WS
# cosines' last bits, which change with the kernel.
N200_REPORT_SHA256 = {
    "markdown": "f90d3e25424b6b1969307fc81df35b7f0881b64e8d27552596ba95ec26ee7127",
    "tsv": "8ef940975eaf193c895fbdf58d9caf29c6a9120eb56547602a08383536c4eeaf",
}


class TestPinnedReports:
    @pytest.fixture(scope="class")
    def corpus(self, runner, tmp_path_factory):
        root = tmp_path_factory.mktemp("n200")
        result = runner.invoke(
            main,
            [
                "gen-synthetic",
                "--n", "200",
                "--skew", "0.3",
                "--seed", "0",
                "--separability", "0.8",
                "--out", str(root / "corpus.tsv"),
                "--embeddings-out", str(root / "emb"),
            ],
        )
        assert result.exit_code == 0, result.output
        return root

    @pytest.mark.parametrize("fmt", sorted(N200_REPORT_SHA256))
    def test_n200_report_bytes_are_pinned(self, runner, corpus, tmp_path, fmt):
        report = tmp_path / "report"
        result = runner.invoke(
            main,
            [
                "run-matrix",
                "--dataset", str(corpus / "corpus.tsv"),
                "--embeddings", str(corpus / "emb"),
                "--folds", "3",
                "--epochs", "3",
                "--format", fmt,
                "--report", str(report),
            ],
        )
        assert result.exit_code == 0, result.output
        assert hashlib.sha256(report.read_bytes()).hexdigest() == N200_REPORT_SHA256[fmt]


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
        assert lines[0] == "prior\taugmentation\tembedding\tfold\tid\tlabel\tpredicted\tscore"
        instances = load_dataset(workspace / "corpus.tsv")
        tables = {
            path.stem: load_embeddings(path, "text_vectors")
            for path in sorted((workspace / "emb").iterdir())
        }
        expected = oracles.reference_matrix(
            instances,
            tables,
            default_lexicon(),
            default_stopwords(),
            stratified_kfold(instances, k=3, seed=0),
            TrainConfig(epochs=2),
        )
        rendered = [
            f"{prior}\t{augmentation.label}\t{name}\t{fold}\t{instance_id}\t{label}\t"
            f"{predicted}\t{score!r}"
            for prior, augmentation, name in sorted(
                expected, key=lambda k: (k[0], k[1].label, k[2])
            )
            for instance_id, label, predicted, score, fold in expected[
                (prior, augmentation, name)
            ][0]
        ]
        # 64 grid cells x 30 pooled test predictions each.
        assert len(rendered) == 64 * 30
        assert lines[1:] == rendered
