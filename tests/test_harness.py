import dataclasses
import json
import os
import re
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    ORACLE_LEXICON_ENTRIES,
    cell_models,
    fragments_of_rows,
    no_children,
    oracle_chunk,
    random_table,
)
from incongruity import classify, harness
from incongruity.classify import LinearModel, TrainConfig
from incongruity.embeddings import EmbeddingTable, intersect_vocabularies
from incongruity.features import (
    ExperimentConfig,
    FeatureRegistry,
    FeatureVector,
    Lexicon,
    PRIOR_SETS,
    default_lexicon,
)
from incongruity.harness import (
    AUGMENTATIONS,
    ConfigResult,
    DatasetParseError,
    IncompleteMatrixError,
    LabeledInstance,
    MatrixResult,
    MetricsReport,
    Prediction,
    Resources,
    compute_gains,
    emit_report,
    extract_features,
    load_dataset,
    metrics_from_predictions,
    run_matrix,
    save_dataset_tsv,
    stratified_kfold,
)
from incongruity.similarity import Augmentation, similarity_block
from incongruity.synthetic import generate_corpus, toy_embedding_tables
from incongruity.text import token_table, tokenize

FIXTURE_CORPUS = Path(__file__).parent / "data" / "fixture_corpus.tsv"


@pytest.fixture(scope="module")
def resources():
    return Resources(embeddings=toy_embedding_tables(seed=0))


@pytest.fixture
def one_process(monkeypatch):
    """Run every fold in this process, where a test can count or record
    calls: a forked worker's calls are not seen here."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.fixture(scope="module")
def fixture_instances():
    return load_dataset(FIXTURE_CORPUS)


@pytest.fixture(scope="module")
def fixture_matrix(fixture_instances, resources):
    return run_matrix(
        fixture_instances, resources, folds=5, seed=0, train_config=TrainConfig(epochs=10)
    )


@pytest.fixture(scope="module")
def small_matrix(resources):
    instances = generate_corpus(30, 0.4, seed=9)
    return run_matrix(
        instances,
        resources,
        folds=3,
        seed=0,
        train_config=TrainConfig(epochs=2),
    )


def pooled_predictions(matrix, instances, cell):
    """``cell``'s test outcomes in the pooled order, each as (id, label,
    predicted, score, fold)."""
    return [
        (instances[i].id, instances[i].label, int(predicted), score, fold)
        for i, fold, predicted, score in zip(
            matrix.test_rows.tolist(),
            matrix.test_folds.tolist(),
            cell.predicted.tolist(),
            cell.scores.tolist(),
        )
    ]


class TestLoadDataset:
    def test_tsv_round_trip(self, tmp_path):
        instances = generate_corpus(20, 0.5, seed=1)
        path = tmp_path / "corpus.tsv"
        save_dataset_tsv(instances, path)
        assert load_dataset(path) == instances

    def test_jsonl_and_auto_detection(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rows = [
            {"id": "a", "label": 1, "text": "yeah right"},
            {"id": "b", "label": 0, "text": "plain words"},
        ]
        path.write_text(
            "\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8"
        )
        instances = load_dataset(path)
        assert [i.id for i in instances] == ["a", "b"]
        assert [i.label for i in instances] == [1, 0]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\t1\thello there\n\nb\t0\tbye now\n", encoding="utf-8")
        assert len(load_dataset(path)) == 2

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\t1\tok text\nb\t2\tbad label\n", encoding="utf-8")
        with pytest.raises(DatasetParseError, match="line 2"):
            load_dataset(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\t1\n", encoding="utf-8")
        with pytest.raises(DatasetParseError, match="line 1"):
            load_dataset(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\t1\tfirst\na\t0\tsecond\n", encoding="utf-8")
        with pytest.raises(DatasetParseError, match="duplicate id"):
            load_dataset(path)

    def test_empty_text_rejected(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\t1\t \n", encoding="utf-8")
        with pytest.raises(DatasetParseError, match="empty text"):
            load_dataset(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "label": 1, "text": "x"}\n{oops\n', encoding="utf-8")
        with pytest.raises(DatasetParseError, match="line 2"):
            load_dataset(path)

    def test_missing_json_key_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "label": 1}\n', encoding="utf-8")
        with pytest.raises(DatasetParseError, match="'id', 'label', 'text'"):
            load_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DatasetParseError, match="no instances"):
            load_dataset(path)

    def test_non_utf8_file_names_file_and_line(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_bytes(b"a\t1\tfine\r\nb\t0\tbad \xff byte\n")
        with pytest.raises(
            DatasetParseError, match="corpus.tsv: line 2: not valid UTF-8$"
        ) as info:
            load_dataset(path)
        assert isinstance(info.value.__cause__, UnicodeDecodeError)

    @pytest.mark.parametrize(
        "name, body",
        [
            ("corpus.tsv", "a\t1\tfirst\nb\t0\tsecond\n"),
            # With the mark kept, the file would be sniffed as TSV.
            (
                "corpus.jsonl",
                '{"id": "a", "label": 1, "text": "first"}\n'
                '{"id": "b", "label": 0, "text": "second"}\n',
            ),
        ],
        ids=["tsv", "jsonl"],
    )
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, name, body):
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
        assert load_dataset(path) == [
            LabeledInstance("a", "first", 1),
            LabeledInstance("b", "second", 0),
        ]

    def test_byte_order_mark_keeps_utf8_error_line(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_bytes(b"\xef\xbb\xbfa\t1\tfine\nb\t0\tbad \xff byte\n")
        with pytest.raises(DatasetParseError, match="corpus.tsv: line 2: not valid UTF-8$"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "separator", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
    )
    def test_round_trip_keeps_other_line_separators(self, tmp_path, separator):
        instances = [
            LabeledInstance("a", f"one{separator}two", 1),
            LabeledInstance("b", "three", 0),
        ]
        path = tmp_path / "corpus.tsv"
        save_dataset_tsv(instances, path)
        assert load_dataset(path) == instances

    def test_jsonl_text_may_hold_a_line_separator(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"id": "a", "label": 1, "text": "one\u2028two"}\n'
            '{"id": "b", "label": 0, "text": "three"}\n',
            encoding="utf-8",
        )
        assert [i.text for i in load_dataset(path)] == ["one\u2028two", "three"]

    def test_crlf_file_loads(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_bytes(b"a\t1\tone two\r\nb\t0\tthree\r\n")
        assert load_dataset(path) == [
            LabeledInstance("a", "one two", 1),
            LabeledInstance("b", "three", 0),
        ]

    @pytest.mark.parametrize(
        "instance",
        [
            LabeledInstance("a\nb", "text", 1),
            LabeledInstance("a\rb", "text", 1),
            LabeledInstance("a\tb", "text", 1),
            LabeledInstance("ab", "one\ntwo", 1),
            LabeledInstance("ab", "one\rtwo", 1),
        ],
    )
    def test_writer_refuses_rows_the_reader_cannot_return(self, tmp_path, instance):
        path = tmp_path / "corpus.tsv"
        with pytest.raises(ValueError, match=re.escape(repr(instance.id))):
            save_dataset_tsv([instance], path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            ('{"id": null, "label": 1, "text": "x y"}', "id must be a string or an integer"),
            ('{"id": true, "label": 1, "text": "x y"}', "id must be a string or an integer"),
            ('{"id": 1.5, "label": 1, "text": "x y"}', "id must be a string or an integer"),
            ('{"id": "a", "label": true, "text": "x y"}', "label must be 0 or 1"),
            ('{"id": "a", "label": false, "text": "x y"}', "label must be 0 or 1"),
            ('{"id": "a", "label": 1.0, "text": "x y"}', "label must be 0 or 1"),
            ('{"id": "a", "label": 1, "text": 5}', "text must be a string"),
            ('{"id": "a", "label": 1, "text": ["x y"]}', "text must be a string"),
            ('{"id": "x\\ty", "label": 0, "text": "x y"}', "id 'x\\\\ty' is empty or holds"),
            ('{"id": "x\\ny", "label": 0, "text": "x y"}', "id 'x\\\\ny' is empty or holds"),
            ('{"id": "x\\ry", "label": 0, "text": "x y"}', "id 'x\\\\ry' is empty or holds"),
            ('{"id": "", "label": 0, "text": "x y"}', "id '' is empty or holds"),
        ],
    )
    def test_jsonl_row_the_writer_cannot_return_names_line(self, tmp_path, row, message):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": 7, "label": 0, "text": "fine"}\n' + row + "\n", encoding="utf-8")
        with pytest.raises(DatasetParseError, match=rf"corpus\.jsonl: line 2: {message}"):
            load_dataset(path)

    @pytest.mark.parametrize("row", ["a\rb\t1\tx y", "\t1\tx y"])
    def test_tsv_id_the_writer_cannot_return_names_line(self, tmp_path, row):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\t0\tfine\n" + row + "\n", encoding="utf-8")
        with pytest.raises(DatasetParseError, match=r"corpus\.tsv: line 2: id .* is empty or holds"):
            load_dataset(path)

    def test_jsonl_integer_id_loads_as_its_string(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": 7, "label": 0, "text": "fine"}\n', encoding="utf-8")
        assert load_dataset(path) == [LabeledInstance("7", "fine", 0)]

    def test_fixture_corpus_loads(self, fixture_instances):
        assert len(fixture_instances) == 50
        assert sum(i.label for i in fixture_instances) == 15


class TestStratifiedKfold:
    def make(self, n_pos, n_neg):
        pos = [LabeledInstance(f"p{i}", f"pos text {i}", 1) for i in range(n_pos)]
        neg = [LabeledInstance(f"n{i}", f"neg text {i}", 0) for i in range(n_neg)]
        return pos + neg

    def test_class_balance_per_fold(self):
        instances = self.make(10, 40)
        splits = stratified_kfold(instances, k=5, seed=0)
        for _, test in splits:
            labels = [instances[i].label for i in test]
            assert labels.count(1) == 2
            assert labels.count(0) == 8

    def test_test_folds_partition_the_data(self):
        instances = self.make(13, 29)
        splits = stratified_kfold(instances, k=5, seed=3)
        seen = []
        for train, test in splits:
            assert set(train).isdisjoint(test)
            assert sorted(train + test) == list(range(len(instances)))
            seen.extend(test)
        assert sorted(seen) == list(range(len(instances)))

    def test_uneven_classes_differ_by_at_most_one(self):
        instances = self.make(7, 11)
        splits = stratified_kfold(instances, k=3, seed=1)
        sizes = [len(test) for _, test in splits]
        assert max(sizes) - min(sizes) <= 2  # one per class
        for _, test in splits:
            positives = sum(instances[i].label for i in test)
            assert positives in (2, 3)

    def test_same_seed_reproduces_split(self):
        instances = self.make(10, 10)
        assert stratified_kfold(instances, k=5, seed=4) == stratified_kfold(
            instances, k=5, seed=4
        )

    def test_seed_changes_split(self):
        instances = self.make(20, 20)
        assert stratified_kfold(instances, k=5, seed=0) != stratified_kfold(
            instances, k=5, seed=1
        )

    def test_small_class_rejected(self):
        instances = self.make(3, 40)
        with pytest.raises(Exception) as excinfo:
            stratified_kfold(instances, k=5, seed=0)
        assert "class 1 has 3" in str(excinfo.value)

    def test_k_below_two_rejected(self):
        with pytest.raises(Exception, match="at least 2"):
            stratified_kfold(self.make(5, 5), k=1)


class TestMetrics:
    def test_counts_from_predictions(self):
        predictions = [
            Prediction("a", 1, 1, 1.0, 0),
            Prediction("b", 1, 0, -1.0, 0),
            Prediction("c", 0, 1, 0.5, 0),
            Prediction("d", 0, 0, -0.5, 0),
        ]
        precision, recall, f_score = metrics_from_predictions(predictions)
        assert precision == 50.0
        assert recall == 50.0
        assert f_score == 50.0

    def test_no_positive_predictions(self):
        predictions = [Prediction("a", 1, 0, -1.0, 0)]
        assert metrics_from_predictions(predictions) == (0.0, 0.0, 0.0)


class TestRunConfig:
    """One configuration's cross-validated run, read off its cell of the
    grid, and one configuration's extracted features."""

    def test_golden_baseline_on_fixture_corpus(self, fixture_matrix):
        metrics = fixture_matrix.cells[("L", Augmentation.NONE, "emb-a")].metrics
        # Trigram presence carries no label signal in this corpus, so the
        # pooled positive-class metrics bottom out at zero.
        assert metrics.precision == 0.0
        assert metrics.f_score == 0.0

    def test_golden_augmented_on_fixture_corpus(self, fixture_matrix):
        metrics = fixture_matrix.cells[("L", Augmentation.S, "emb-a")].metrics
        assert metrics.f_score == pytest.approx(55.172413793, abs=1e-6)

    def test_pooled_metrics_match_prediction_recount(
        self, fixture_instances, fixture_matrix
    ):
        for key, cell in fixture_matrix.cells.items():
            predictions = [
                Prediction(*p)
                for p in pooled_predictions(fixture_matrix, fixture_instances, cell)
            ]
            recounted = metrics_from_predictions(predictions)
            assert recounted == (
                cell.metrics.precision,
                cell.metrics.recall,
                cell.metrics.f_score,
            ), key
            assert len(predictions) == len(fixture_instances), key
            assert len(cell.metrics.per_fold) == 5, key
            for fold, metrics in enumerate(cell.metrics.per_fold):
                recounted = metrics_from_predictions(
                    [p for p in predictions if p.fold == fold]
                )
                assert recounted == dataclasses.astuple(metrics), (key, fold)

    def test_every_instance_predicted_once(self, fixture_instances, fixture_matrix):
        for key, cell in fixture_matrix.cells.items():
            ids = [p[0] for p in pooled_predictions(fixture_matrix, fixture_instances, cell)]
            assert sorted(ids) == sorted(i.id for i in fixture_instances), key

    def test_frozen_registry_blocks_test_only_features(self, resources):
        train_sentences = [tokenize("the cat and the dog sat")]
        test_sentences = [tokenize("a brand new unseen sentence arrived")]
        registry = FeatureRegistry()
        config = ExperimentConfig("L")
        extract_features(train_sentences, config, resources, registry)
        registry.freeze()
        size_before = len(registry)
        vectors = extract_features(test_sentences, config, resources, registry)
        assert len(registry) == size_before
        assert all(fid < size_before for fid, _ in vectors[0].items())

    def test_extracted_block_values_are_similarity_block_bits(self, resources):
        sentences = [tokenize(i.text) for i in generate_corpus(30, 0.4, seed=9)]
        registry = FeatureRegistry()
        config = ExperimentConfig.parse("J+S+WS", embedding="emb-a")
        vectors = extract_features(sentences, config, resources, registry)
        tokens = token_table(sentences, resources.stopwords)
        block = similarity_block(tokens, resources.embeddings["emb-a"])
        names = Augmentation.S_AND_WS.feature_names
        assert block.any()
        for vector, row in zip(vectors, block.tolist()):
            extracted = {
                registry.name_of(fid): value.hex()
                for fid, value in vector.items()
                if registry.name_of(fid).startswith("emb.")
            }
            # Zero values are dropped from a sparse vector.
            assert extracted == {n: v.hex() for n, v in zip(names, row) if v != 0.0}


FOLD_NAMES = ("a", "b", "c", "d", "e", "f")
fold_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0]),
    # Bounded, so that training on these values stays finite.
    st.floats(-1e3, 1e3),
)


@st.composite
def fold_inputs(draw):
    """Fragment rows, train and test indices, and a block appended to each row."""
    rows = []
    for _ in range(draw(st.integers(3, 8))):
        entries = draw(
            st.lists(
                st.tuples(st.sampled_from(FOLD_NAMES), fold_values),
                unique_by=lambda entry: entry[0],
                max_size=5,
            )
        )
        cut = draw(st.integers(0, len(entries)))
        rows.append([dict(entries[:cut]), dict(entries[cut:])])
    order = draw(st.permutations(range(len(rows))))
    n_train = draw(st.integers(2, len(rows) - 1))
    width = draw(st.integers(0, 3))
    block = draw(st.lists(fold_values, min_size=len(rows) * width, max_size=len(rows) * width))
    return rows, order[:n_train], order[n_train:], np.reshape(block, (len(rows), width))


class TestCompiledFolds:
    @given(fold_inputs())
    @example(
        (
            # Test rows: a name seen only in test ("c"), a row that is
            # empty after filtering, a name whose only training value is 0
            # ("z"), and a zero-valued entry of a training name ("b").
            [
                [{"a": 1.0, "z": 0.0}],
                [{"b": -2.5}, {"y": 0.0}],
                [{"c": 3.0, "a": 2.0}],
                [{"c": 1.0}, {}],
                [{"z": 5.0, "b": 0.0}],
            ],
            [1, 0],
            [2, 3, 4],
            np.zeros((5, 0)),
        )
    )
    @example(
        (
            # Block values in every row; zero and -0.0 block values are
            # dropped.
            [[{"a": 1.0, "b": 0.0}], [{"c": 2.0}], [{"c": 1.0, "a": 3.0}]],
            [0, 1],
            [2],
            np.array([[0.5, 0.0], [-0.0, 2.0], [1.0, -1.0]]),
        )
    )
    def test_cells_read_corpus_rows_in_ascending_id(self, inputs):
        rows, train_idx, test_idx, block = inputs
        # Training rows alternate positive and negative, so both classes train.
        labels = [0] * len(rows)
        for k, i in enumerate(train_idx):
            labels[i] = 1 - k % 2
        # Two corpora that number the same names differently: the second
        # reads each row's fragments in reverse order.  Each has a base cell
        # and a cell with a block.
        cells, sources = [], []
        for prior, corpus_rows, corpus_block in (
            ("L", rows, block),
            ("G", [row[::-1] for row in rows], block[:, ::-1]),
        ):
            corpus_names = FeatureRegistry()
            corpus = harness._compile(
                fragments_of_rows(corpus_rows), len(rows), corpus_names
            )
            assert corpus.size == len(corpus_names)
            for config, cell_block in (
                (ExperimentConfig(prior), np.zeros((len(rows), 0))),
                (ExperimentConfig(prior, Augmentation.S_AND_WS, "t"), corpus_block),
            ):
                cells.append(harness._GridCell(config, corpus, cell_block))
                sources.append((corpus_rows, corpus_names))

        groups = []

        def recording(layout, config, names):
            trained = train_cells(layout, config, names)
            groups.append((layout, cell_models(layout, trained)))
            return trained

        train_cells = harness.train
        with mock.patch.object(harness, "train", recording):
            results = harness._cross_validate(
                cells, np.array(labels), [(list(train_idx), list(test_idx))],
                TrainConfig(epochs=2),
            )
        [(layout, models)] = groups
        assert layout.labels.tolist() == [labels[i] for i in train_idx]

        for cell, (model, grid_cell, (corpus_rows, corpus_names)) in enumerate(
            zip(models, cells, sources)
        ):
            size = grid_cell.corpus.size
            # A cell owns its corpus's names, then its block columns.
            assert len(model.weights) == size + grid_cell.block.shape[1]
            corpus_ids = {name: fid for fid, name in enumerate(corpus_names.names)}
            corpus_ids.update({f"blk{j}": size + j for j in range(grid_cell.block.shape[1])})
            cell_rows = [
                [*fragments, {f"blk{j}": value for j, value in enumerate(block_row)}]
                for fragments, block_row in zip(corpus_rows, grid_cell.block.tolist())
            ]
            registry = FeatureRegistry()
            fit = [oracles.number_row(registry, cell_rows[i]) for i in train_idx]
            registry.freeze()
            seen = set()
            for k, pairs in enumerate(fit):
                start, stop = layout.starts[k], layout.stops[k]
                mine = layout.cells[start:stop] == cell
                ids = layout.ids[start:stop][mine] - layout.offsets[cell]
                values = layout.values[start:stop][mine]
                # Ascending within the row, so block ids follow prior ids.
                assert np.all(np.diff(ids) > 0)
                names = [
                    corpus_names.name_of(i) if i < size else f"blk{i - size}"
                    for i in ids.tolist()
                ]
                expected = {registry.name_of(fid): value for fid, value in pairs}
                assert len(names) == len(expected)
                assert dict(zip(names, values.tolist())) == expected
                seen.update(ids.tolist())
            # A name no training row carries keeps a +0.0 weight.
            unseen = model.weights[np.setdiff1d(np.arange(len(model.weights)), list(seen))]
            assert not np.any(unseen) and not np.any(np.signbit(unseen))
            assert len(results[cell].scores) == len(test_idx)
            for i, score in zip(test_idx, results[cell].scores.tolist()):
                terms = sorted(
                    (corpus_ids[registry.name_of(fid)], value)
                    for fid, value in oracles.number_row(registry, cell_rows[i])
                )
                expected = oracles.sequential_sum(
                    model.weights[fid] * value for fid, value in terms if fid in seen
                )
                assert score.hex() == expected.hex()


def single_cell(rows, cell):
    """Cell ``cell`` of a lockstep layout's rows as a one-cell layout."""
    positions = [
        np.arange(start, stop)[rows.cells[start:stop] == cell]
        for start, stop in zip(rows.starts.tolist(), rows.stops.tolist())
    ]
    lengths = [len(row) for row in positions]
    stops = np.cumsum(lengths)
    kept = np.concatenate(positions)
    return classify.CellRows(
        stops - lengths,
        stops,
        rows.ids[kept] - rows.offsets[cell],
        rows.values[kept],
        np.zeros(len(kept), dtype=np.intp),
        np.array([0, rows.offsets[cell + 1] - rows.offsets[cell]]),
        rows.labels,
    )


GRID_LEXICON = Lexicon(ORACLE_LEXICON_ENTRIES)
GRID_STOPWORDS = frozenset({"a", "in", "w005"})
GRID_WORDS = ("w000", "w001", "W001", "w002", "w003", "w004", "w005", "w006")


@st.composite
def grid_inputs(draw):
    """A corpus of 2-4 folds, ragged ones included, whose sentences mix
    table words (a stopword and a case variant among them) with lexicon
    words and marks; 1-2 tables, a split seed, and 1-3 epochs."""
    folds = draw(st.integers(2, 4))
    labels = draw(
        st.permutations(
            [1] * draw(st.integers(folds, folds + 4))
            + [0] * draw(st.integers(folds, folds + 7))
        )
    )
    chunk = st.one_of(st.sampled_from(GRID_WORDS), oracle_chunk())
    texts = [
        " ".join(draw(st.lists(chunk, min_size=1, max_size=8))) for _ in labels
    ]
    instances = [
        LabeledInstance(f"i{k}", text, label)
        for k, (text, label) in enumerate(zip(texts, labels))
    ]
    tables = {
        f"t{j}": random_table(7, draw(st.integers(1, 4)), draw(st.integers(0, 99)), f"t{j}")
        for j in range(draw(st.integers(1, 2)))
    }
    train_config = TrainConfig(epochs=draw(st.integers(1, 3)), seed=draw(st.integers(0, 3)))
    return instances, tables, folds, draw(st.integers(0, 3)), train_config


def hexes(*values):
    return [value.hex() for value in values]


class TestRunMatrix:
    def test_grid_is_complete(self, small_matrix):
        assert len(small_matrix.cells) == 64
        for prior in PRIOR_SETS:
            for augmentation in AUGMENTATIONS:
                for name in small_matrix.embeddings:
                    assert (prior, augmentation, name) in small_matrix.cells

    def test_baseline_cells_constant_across_embeddings(self, small_matrix):
        for prior in PRIOR_SETS:
            cells = [
                small_matrix.cells[(prior, Augmentation.NONE, name)]
                for name in small_matrix.embeddings
            ]
            assert len({c.metrics.f_score for c in cells}) == 1
            assert len({c.metrics.precision for c in cells}) == 1
            embeddings = {c.config.embedding for c in cells}
            assert embeddings == set(small_matrix.embeddings)

    def test_vocab_sizes_reported(self, small_matrix, resources):
        for name, table in resources.embeddings.items():
            assert small_matrix.vocab_sizes[name] == len(table)

    def test_intersection_equalizes_vocabularies(self, resources):
        instances = generate_corpus(30, 0.4, seed=9)
        matrix = run_matrix(
            instances,
            resources,
            intersect=True,
            folds=3,
            seed=0,
            train_config=TrainConfig(epochs=1),
        )
        sizes = set(matrix.vocab_sizes.values())
        assert len(sizes) == 1
        assert matrix.intersected
        # Each variant carries unique filler words, so intersecting must
        # shrink every vocabulary.
        assert sizes.pop() < min(len(t) for t in resources.embeddings.values())

    def test_intersect_makes_a_word_one_table_lacks_oov_in_both(self):
        # "rain" is a content word of the corpus that "short" lacks; with
        # --intersect, "full" loses it too.
        words = ["love", "rain", "sunny", "traffic", "monday", "beach", "cold"]
        vectors = np.random.default_rng(0).standard_normal((len(words), 4))
        full = EmbeddingTable("full", words, vectors)
        short = EmbeddingTable("short", words[:1] + words[2:], vectors[[0, *range(2, 7)]])
        texts = [
            "love rain on a cold monday", "sunny beach and rain", "rain in traffic again",
            "cold rain at the beach", "love sunny monday traffic", "rain rain and love",
            "sunny beach on monday", "traffic on a cold monday", "love the sunny beach",
            "monday traffic is cold", "beach love and sunny rain", "cold traffic at the beach",
        ]
        instances = [
            LabeledInstance(f"s{i}", text, i % 2) for i, text in enumerate(texts)
        ]
        intersected = intersect_vocabularies([full, short])
        assert "rain" not in intersected[0].vocab
        tokens = token_table([tokenize(t) for t in texts], Resources().stopwords)
        assert not np.array_equal(
            similarity_block(tokens, full), similarity_block(tokens, intersected[0])
        )

        def grid(tables, intersect):
            resources = Resources({t.name: t for t in tables})
            return run_matrix(
                instances, resources, intersect=intersect, folds=3, seed=0,
                train_config=TrainConfig(epochs=5),
            ).cells

        plain, merged = grid([full, short], False), grid([full, short], True)
        reference = grid(intersected, False)
        assert any(
            not np.array_equal(plain[key].scores, merged[key].scores) for key in plain
        )
        assert merged.keys() == reference.keys()
        for key, cell in merged.items():
            expected = reference[key]
            assert cell.scores.tobytes() == expected.scores.tobytes(), key
            assert cell.predicted.tobytes() == expected.predicted.tobytes(), key
            assert cell.metrics == expected.metrics, key

    @settings(max_examples=25, deadline=None)
    @given(grid_inputs())
    def test_cells_equal_reference_matrix_bit_for_bit(self, inputs):
        instances, tables, folds, seed, train_config = inputs
        resources = Resources(tables, GRID_LEXICON, GRID_STOPWORDS)
        matrix = run_matrix(
            instances, resources, folds=folds, seed=seed, train_config=train_config
        )
        expected = oracles.reference_matrix(
            instances,
            tables,
            GRID_LEXICON,
            GRID_STOPWORDS,
            stratified_kfold(instances, k=folds, seed=seed),
            train_config,
        )
        assert matrix.cells.keys() == expected.keys()
        for key, cell in matrix.cells.items():
            predictions, per_fold, pooled = expected[key]
            assert [
                (instance_id, label, predicted, score.hex(), fold)
                for instance_id, label, predicted, score, fold
                in pooled_predictions(matrix, instances, cell)
            ] == [
                (instance_id, label, predicted, score.hex(), fold)
                for instance_id, label, predicted, score, fold in predictions
            ], key
            assert [
                hexes(m.precision, m.recall, m.f_score) for m in cell.metrics.per_fold
            ] == [hexes(*metrics) for metrics in per_fold], key
            m = cell.metrics
            assert hexes(m.precision, m.recall, m.f_score) == hexes(*pooled), key

    @pytest.mark.parametrize("folds", [2, 4])
    @pytest.mark.usefixtures("one_process")
    def test_features_built_once_per_corpus(self, resources, monkeypatch, folds):
        calls = {"tokenize": 0, "table": 0, "build": 0, "block": 0, "layout": 0, "train": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(harness, "tokenize", counting("tokenize", harness.tokenize))
        monkeypatch.setattr(harness, "token_table", counting("table", harness.token_table))
        monkeypatch.setattr(
            harness,
            "build_config_features",
            counting("build", harness.build_config_features),
        )
        monkeypatch.setattr(
            harness, "similarity_block", counting("block", harness.similarity_block)
        )
        # One layout of every row serves all folds; each fold trains once.
        monkeypatch.setattr(harness, "_cell_rows", counting("layout", harness._cell_rows))
        monkeypatch.setattr(harness, "train", counting("train", harness.train))
        instances = generate_corpus(30, 0.4, seed=9)
        run_matrix(
            instances,
            resources,
            folds=folds,
            seed=0,
            train_config=TrainConfig(epochs=1),
        )
        n, tables = len(instances), len(resources.embeddings)
        assert calls == {
            "tokenize": n,
            "table": 1,
            "build": len(PRIOR_SETS),
            "block": tables,
            "layout": 1,
            "train": folds,
        }

    @pytest.mark.parametrize("folds", [2, 4])
    @pytest.mark.usefixtures("one_process")
    def test_interned_once_per_corpus(self, resources, monkeypatch, folds):
        # Folds select rows and train in lockstep: no per-fold interning, no
        # FeatureVector, no one-cell fit, no per-row prediction and no
        # Prediction: outcomes stay in arrays.  Each
        # prior set interns each distinct name it emits once per corpus, so
        # the intern count is the same at every fold count.
        instances = generate_corpus(30, 0.4, seed=9)
        emitted = sum(
            len({
                name
                for inst in instances
                for fragment in oracles.prior_fragments(inst.text, prior, resources.lexicon)
                for name in fragment
            })
            for prior in PRIOR_SETS
        )
        calls = {
            "intern": 0,
            "compile": 0,
            "FeatureVector": 0,
            "train": 0,
            "predict": 0,
            "decision": 0,
            "Prediction": 0,
        }

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            FeatureRegistry, "intern", counting("intern", FeatureRegistry.intern)
        )
        monkeypatch.setattr(harness, "_compile", counting("compile", harness._compile))
        monkeypatch.setattr(
            FeatureVector, "__init__", counting("FeatureVector", FeatureVector.__init__)
        )
        monkeypatch.setattr(classify, "train", counting("train", classify.train))
        monkeypatch.setattr(
            Prediction, "__init__", counting("Prediction", Prediction.__init__)
        )
        for method in ("predict", "decision"):
            monkeypatch.setattr(
                LinearModel, method, counting(method, getattr(LinearModel, method))
            )
        run_matrix(
            instances,
            resources,
            folds=folds,
            seed=0,
            train_config=TrainConfig(epochs=1),
        )
        assert calls.pop("compile") == len(PRIOR_SETS)
        assert calls.pop("intern") == emitted
        assert not any(calls.values()), calls

    @pytest.mark.usefixtures("one_process")
    def test_lockstep_cells_match_sequential_oracle(self, resources, monkeypatch):
        # 31 instances in 3 folds: the training sizes differ by one.
        instances = generate_corpus(31, 0.4, seed=9)
        splits = stratified_kfold(instances, k=3, seed=0)
        assert len({len(train_idx) for train_idx, _ in splits}) == 2
        groups = []

        def recording(rows, config, names):
            trained = train_cells(rows, config, names)
            groups.append((rows, config, names, cell_models(rows, trained)))
            return trained

        train_cells = harness.train
        monkeypatch.setattr(harness, "train", recording)
        run_matrix(
            instances, resources, folds=3, seed=0, train_config=TrainConfig(epochs=2)
        )
        # One group per fold holds every prior set's cells.
        assert len(groups) == 3
        for rows, config, names, models in groups:
            labels = rows.labels.tolist()
            assert len(models) == len(PRIOR_SETS) * (1 + 3 * len(resources.embeddings))
            for cell, (name, model) in enumerate(zip(names, models)):
                alone = single_cell(rows, cell)
                bounds = zip(alone.starts, alone.stops)
                vectors = [FeatureVector(alone.ids[a:b], alone.values[a:b]) for a, b in bounds]
                weights, threshold = oracles.sequential_sgd_weights(
                    list(zip(vectors, labels)), config
                )
                [single] = cell_models(alone, train_cells(alone, config, [name]))
                # The oracle's dimension is the largest training id + 1; the
                # cell's fixed range past it holds names no training row has.
                prefix, rest = np.split(model.weights, [len(weights)])
                assert prefix.tobytes() == weights.tobytes(), name
                assert not np.any(rest) and not np.any(np.signbit(rest)), name
                assert model.weights.tobytes() == single.weights.tobytes(), name
                assert model.threshold == single.threshold == threshold, name

    @pytest.mark.usefixtures("one_process")
    def test_group_names_each_cell_by_label_table_and_fold(self, resources, monkeypatch):
        groups = []

        def recording(rows, config, names):
            groups.append(list(names))
            return train_cells(rows, config, names)

        train_cells = harness.train
        monkeypatch.setattr(harness, "train", recording)
        run_matrix(
            generate_corpus(30, 0.4, seed=9), resources, folds=3,
            train_config=TrainConfig(epochs=1),
        )
        assert len(groups) == 3
        for fold, names in enumerate(groups):
            expected = []
            for prior in PRIOR_SETS:
                expected.append(f"{prior} (fold {fold})")
                for table in resources.embeddings:
                    for augmentation in AUGMENTATIONS[1:]:
                        expected.append(f"{prior}+{augmentation.label}:{table} (fold {fold})")
            assert names == expected
            assert len(set(names)) == len(names)

    def test_training_error_names_table_and_fold(self, resources, monkeypatch):
        def overflowing(tokens, table):
            block = similarity_block(tokens, table)
            if table is resources.embeddings["emb-b"]:
                block[:, 0] = 1e308
            return block

        monkeypatch.setattr(harness, "similarity_block", overflowing)
        # In one process, and with fold 1 in a forked worker.
        for processes in (1, 2):
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid: set(range(processes)), raising=False
            )
            with pytest.raises(
                classify.TrainingError,
                match=re.escape("non-finite margin for cell 'L+S:emb-b (fold 0)' in epoch 0"),
            ):
                run_matrix(
                    generate_corpus(30, 0.4, seed=9), resources, folds=3,
                    train_config=TrainConfig(epochs=1),
                )

    def test_name_emitted_twice_is_rejected(self, resources, monkeypatch):
        def colliding(tokens, *args):
            rows = [[{"dup": 1.0}, {"dup": 0.0}]] * len(tokens.sentences)
            return [*build_config_features(tokens, *args), *fragments_of_rows(rows)]

        build_config_features = harness.build_config_features
        monkeypatch.setattr(harness, "build_config_features", colliding)
        instances = generate_corpus(30, 0.4, seed=9)
        with pytest.raises(ValueError, match="'dup' emitted twice"):
            run_matrix(instances, resources, folds=3, train_config=TrainConfig(epochs=1))

    def test_missing_embeddings_rejected(self):
        with pytest.raises(ValueError):
            run_matrix(generate_corpus(30, 0.4, seed=9), Resources())



def matrix_bytes(matrix):
    """Everything a MatrixResult holds, scores and predicted labels as bytes."""
    return (
        {
            key: (cell.config, cell.metrics, cell.scores.tobytes(), cell.predicted.tobytes())
            for key, cell in matrix.cells.items()
        },
        matrix.test_rows.tobytes(),
        matrix.test_folds.tobytes(),
        dataclasses.replace(matrix, cells={}, test_rows=None, test_folds=None),
    )


def fold_of(names):
    """The fold of a ``train`` call's cell names: 1 for ``L (fold 1)``."""
    return int(names[0].rpartition("(fold ")[2].rstrip(")"))


@pytest.mark.skipif(sys.platform != "linux", reason="folds are forked on Linux only")
class TestFoldPool:
    """The folds run on min(usable CPUs, folds) processes, each once, give
    the bytes and the first error of one process, and leave no process
    behind."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """Records each fold pool's worker count and whether it gave a result."""
        records = []

        def spy(jobs, receive):
            result = run_forked(jobs, receive)
            records.append((len(jobs), result is not None))
            return result

        run_forked = harness.run_forked
        monkeypatch.setattr(harness, "run_forked", spy)
        return records

    @staticmethod
    def grid(resources, folds, processes, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(processes)))
        return run_matrix(
            generate_corpus(30, 0.4, seed=9), resources, folds=folds, seed=3,
            train_config=TrainConfig(epochs=2),
        )

    @pytest.mark.parametrize("folds", [2, 3, 4, 5])
    def test_process_count_changes_no_byte(self, resources, monkeypatch, pools, folds):
        alone = matrix_bytes(self.grid(resources, folds, 1, monkeypatch))
        assert pools == []
        for processes in (2, 3):
            pooled = self.grid(resources, folds, processes, monkeypatch)
            assert matrix_bytes(pooled) == alone, processes
            assert pools[-1] == (min(processes, folds) - 1, True)
        assert no_children()

    def test_training_error_in_a_workers_fold_is_named_in_process(
        self, resources, monkeypatch, pools
    ):
        parent = os.getpid()
        trained = []

        def failing(rows, config, names):
            if os.getpid() == parent:
                trained.append(fold_of(names))
            if fold_of(names) == 1:
                raise classify.TrainingError(f"no fit for {names[0]}")
            return train_cells(rows, config, names)

        train_cells = harness.train
        monkeypatch.setattr(harness, "train", failing)
        # Fold 1 runs in a worker from 2 processes on, and is named as in
        # one process; this process trains no fold twice and no fold of a
        # worker's.
        for processes, own in [(1, [0, 1]), (2, [0, 2]), (3, [0])]:
            trained.clear()
            with pytest.raises(classify.TrainingError, match=r"^no fit for L \(fold 1\)$"):
                self.grid(resources, 3, processes, monkeypatch)
            assert trained == own, processes
        assert pools == [(1, True), (2, True)]
        assert no_children()

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_first_failing_fold_is_named_and_no_fold_trains_twice(self, resources, data):
        folds = data.draw(st.integers(2, 5), "folds")
        processes = data.draw(st.integers(1, 3), "processes")
        failing = data.draw(st.sets(st.integers(0, folds - 1), min_size=1), "failing")
        parent = os.getpid()
        trained = []

        def train(rows, config, names):
            if os.getpid() == parent:
                trained.append(fold_of(names))
            if fold_of(names) in failing:
                raise classify.TrainingError(f"no fit for {names[0]}")
            return train_cells(rows, config, names)

        train_cells = harness.train
        with (
            mock.patch.object(harness, "train", train),
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(processes))),
            pytest.raises(classify.TrainingError) as raised,
        ):
            run_matrix(
                generate_corpus(30, 0.4, seed=9), resources, folds=folds,
                train_config=TrainConfig(epochs=1),
            )
        assert str(raised.value) == f"no fit for L (fold {min(failing)})"
        # This process trains its own folds up to its first failing one.
        share = range(0, folds, min(processes, folds))
        stop = min(failing & {*share}, default=folds)
        assert trained == [fold for fold in share if fold <= stop]
        assert no_children()

    def test_a_worker_that_ends_early_is_run_in_process(self, resources, monkeypatch, pools):
        parent = os.getpid()
        alone = matrix_bytes(self.grid(resources, 3, 1, monkeypatch))
        trained = []

        def ending(rows, config, names):
            if os.getpid() != parent:
                os._exit(0)  # a clean exit status, but no payload
            trained.append(fold_of(names))
            return train_cells(rows, config, names)

        train_cells = harness.train
        monkeypatch.setattr(harness, "train", ending)
        assert matrix_bytes(self.grid(resources, 3, 2, monkeypatch)) == alone
        # This process's own folds, then the worker's missing fold, once each.
        assert trained == [0, 2, 1]
        assert pools == [(1, True)]
        assert no_children()

    def test_a_worker_that_fails_is_run_in_process(self, resources, monkeypatch, pools):
        parent = os.getpid()
        alone = matrix_bytes(self.grid(resources, 3, 1, monkeypatch))
        trained = []

        def crashing(rows, config, names):
            if os.getpid() != parent:
                raise ZeroDivisionError  # a bug, not an input error: exit 1
            trained.append(fold_of(names))
            return train_cells(rows, config, names)

        train_cells = harness.train
        monkeypatch.setattr(harness, "train", crashing)
        assert matrix_bytes(self.grid(resources, 3, 2, monkeypatch)) == alone
        # Every fold is computed again in this process.
        assert trained == [0, 2, 0, 1, 2]
        assert pools == [(1, False)]
        assert no_children()

    def test_interrupt_kills_the_running_workers(self, resources, monkeypatch):
        parent = os.getpid()

        def interrupted(rows, config, names):
            if os.getpid() != parent:
                time.sleep(60)  # still training when the parent is interrupted
            raise KeyboardInterrupt

        monkeypatch.setattr(harness, "train", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            self.grid(resources, 3, 3, monkeypatch)
        assert time.monotonic() - start < 30
        assert no_children()

    def test_refused_fork_runs_in_process(self, resources, monkeypatch, pools):
        alone = matrix_bytes(self.grid(resources, 3, 1, monkeypatch))

        def refused():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refused)
        assert matrix_bytes(self.grid(resources, 3, 2, monkeypatch)) == alone
        assert pools == [(1, False)]


def constant_matrix(f_scores):
    """Build a MatrixResult from a {(prior, aug, emb): F} mapping."""
    embeddings = sorted({key[2] for key in f_scores})
    cells = {}
    for (prior, augmentation, name), f_score in f_scores.items():
        config = ExperimentConfig(
            prior,
            augmentation,
            name if augmentation is not Augmentation.NONE else name,
        )
        cells[(prior, augmentation, name)] = ConfigResult(
            config,
            MetricsReport(f_score, f_score, f_score),
            np.zeros(0),
            np.zeros(0, dtype=bool),
        )
    return MatrixResult(
        cells=cells,
        embeddings=tuple(embeddings),
        vocab_sizes={name: 100 for name in embeddings},
        intersected=False,
        n_instances=10,
        folds=5,
        seed=0,
        test_rows=np.zeros(0, dtype=int),
        test_folds=np.zeros(0, dtype=int),
    )


def full_grid(base, embeddings=("e1",)):
    scores = {}
    for name in embeddings:
        for prior in PRIOR_SETS:
            for augmentation in AUGMENTATIONS:
                scores[(prior, augmentation, name)] = base
    return scores


class TestComputeGains:
    def test_single_raised_cell_averages_over_priors(self):
        scores = full_grid(50.0)
        scores[("L", Augmentation.S, "e1")] = 54.0
        gains = compute_gains(constant_matrix(scores))
        assert gains.per_augmentation[("e1", Augmentation.S)] == pytest.approx(1.0)
        assert gains.per_augmentation[("e1", Augmentation.WS)] == pytest.approx(0.0)
        # The embedding average spreads the single +1 over 3 augmentations.
        assert gains.per_embedding["e1"] == pytest.approx(1.0 / 3.0)

    def test_gains_are_relative_to_matching_prior(self):
        scores = full_grid(40.0)
        for prior in PRIOR_SETS:
            scores[(prior, Augmentation.NONE, "e1")] = 40.0
            scores[(prior, Augmentation.S, "e1")] = 42.0
            scores[(prior, Augmentation.WS, "e1")] = 44.0
            scores[(prior, Augmentation.S_AND_WS, "e1")] = 46.0
        gains = compute_gains(constant_matrix(scores))
        assert gains.per_augmentation[("e1", Augmentation.S)] == pytest.approx(2.0)
        assert gains.per_augmentation[("e1", Augmentation.WS)] == pytest.approx(4.0)
        assert gains.per_augmentation[("e1", Augmentation.S_AND_WS)] == pytest.approx(6.0)
        assert gains.per_embedding["e1"] == pytest.approx(4.0)

    def test_missing_cell_raises(self):
        scores = full_grid(50.0)
        del scores[("J", Augmentation.WS, "e1")]
        with pytest.raises(IncompleteMatrixError):
            compute_gains(constant_matrix(scores))

    def test_gains_on_real_matrix_match_hand_reduction(self, small_matrix):
        gains = compute_gains(small_matrix)
        # Means sum left to right, whatever the built-in sum() does.
        name = small_matrix.embeddings[0]
        expected = oracles.sequential_sum(
            small_matrix.cells[(prior, Augmentation.S, name)].metrics.f_score
            - small_matrix.cells[(prior, Augmentation.NONE, name)].metrics.f_score
            for prior in PRIOR_SETS
        ) / len(PRIOR_SETS)
        assert gains.per_augmentation[(name, Augmentation.S)] == expected
        expected_avg = oracles.sequential_sum(
            gains.per_augmentation[(name, augmentation)]
            for augmentation in AUGMENTATIONS[1:]
        ) / 3
        assert gains.per_embedding[name] == expected_avg


def report_cells(matrix):
    """(embedding, prior, augmentation, cell) in report order."""
    for name in matrix.embeddings:
        for prior in PRIOR_SETS:
            for augmentation in AUGMENTATIONS:
                yield name, prior, augmentation, matrix.cells[(prior, augmentation, name)]


def two_decimals(cell):
    m = cell.metrics
    return [f"{value:.2f}" for value in (m.precision, m.recall, m.f_score)]


def table_rows(markdown):
    """Data rows of the first Markdown table in ``markdown``, as cell lists."""
    table = [line for line in markdown.splitlines() if line.startswith("|")]
    return [[field.strip() for field in line.strip("|").split("|")] for line in table[2:]]


class TestReports:
    def test_same_matrix_emits_identical_bytes(self, small_matrix):
        gains = compute_gains(small_matrix)
        for fmt in ("tsv", "markdown"):
            assert emit_report(small_matrix, gains, fmt) == emit_report(
                small_matrix, gains, fmt
            )

    def test_tsv_round_trips_at_two_decimals(self, small_matrix):
        gains = compute_gains(small_matrix)
        text = emit_report(small_matrix, gains, "tsv")
        cells, per_augmentation, per_embedding = [
            section.splitlines()[1:] for section in text.rstrip("\n").split("\n\n")
        ]
        names = small_matrix.embeddings
        assert cells == [
            "\t".join((name, prior, augmentation.label, *two_decimals(cell)))
            for name, prior, augmentation, cell in report_cells(small_matrix)
        ]
        assert len(cells) == 64
        assert per_augmentation == [
            f"{name}\t+{augmentation.label}\t"
            f"{gains.per_augmentation[(name, augmentation)]:.2f}"
            for name in names
            for augmentation in AUGMENTATIONS[1:]
        ]
        assert per_embedding == [
            f"{name}\t{gains.per_embedding[name]:.2f}" for name in names
        ]

    def test_markdown_round_trips_at_two_decimals(self, small_matrix):
        gains = compute_gains(small_matrix)
        text = emit_report(small_matrix, gains, "markdown")
        sections = text.split("\n## ")[1:]
        names = small_matrix.embeddings
        assert len(sections) == len(names) + 2
        cells = [row for section in sections[: len(names)] for row in table_rows(section)]
        assert cells == [
            [prior if augmentation is Augmentation.NONE else f"{prior}+{augmentation.label}",
             *two_decimals(cell)]
            for _, prior, augmentation, cell in report_cells(small_matrix)
        ]
        assert table_rows(sections[-2]) == [
            [f"+{augmentation.label}"]
            + [f"{gains.per_augmentation[(name, augmentation)]:.2f}" for name in names]
            for augmentation in AUGMENTATIONS[1:]
        ]
        assert table_rows(sections[-1]) == [
            [name, f"{gains.per_embedding[name]:.2f}"] for name in names
        ]

    def test_markdown_header_documents_the_run(self, small_matrix):
        gains = compute_gains(small_matrix)
        text = emit_report(small_matrix, gains, "markdown")
        assert "- instances: 30" in text
        assert "- folds: 3 (stratified, seed 0)" in text
        assert "- vocabulary intersected: no" in text
        assert "hinge SGD" in text
        for name, size in small_matrix.vocab_sizes.items():
            assert f"## Embedding: {name} (vocabulary {size})" in text

    def test_report_write_to_disk(self, small_matrix, tmp_path):
        gains = compute_gains(small_matrix)
        path = tmp_path / "report.md"
        text = emit_report(small_matrix, gains, "markdown", path)
        assert path.read_text(encoding="utf-8") == text

    def test_unknown_format_rejected(self, small_matrix):
        gains = compute_gains(small_matrix)
        with pytest.raises(ValueError):
            emit_report(small_matrix, gains, "yaml")

    def test_incomplete_matrix_fails_to_render(self, small_matrix):
        cells = dict(small_matrix.cells)
        del cells[("L", Augmentation.S, small_matrix.embeddings[0])]
        broken = dataclasses.replace(small_matrix, cells=cells)
        with pytest.raises(IncompleteMatrixError):
            emit_report(broken, compute_gains(small_matrix), "tsv")


class TestResources:
    def test_default_lexicon_attached_once(self):
        assert Resources().lexicon is default_lexicon()
