import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from incongruity import classify, harness
from incongruity.classify import LinearModel, TrainConfig
from incongruity.features import (
    ConfigurationError,
    ExperimentConfig,
    FeatureRegistry,
    FeatureVector,
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
    run_config,
    run_matrix,
    save_dataset_tsv,
    stratified_kfold,
)
from incongruity.similarity import Augmentation
from incongruity.synthetic import generate_corpus, toy_embedding_tables
from incongruity.text import tokenize

FIXTURE_CORPUS = Path(__file__).parent / "data" / "fixture_corpus.tsv"


@pytest.fixture(scope="module")
def resources():
    return Resources(embeddings=toy_embedding_tables(seed=0))


@pytest.fixture(scope="module")
def fixture_instances():
    return load_dataset(FIXTURE_CORPUS)


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
    def test_golden_baseline_on_fixture_corpus(self, fixture_instances, resources):
        result = run_config(
            ExperimentConfig("L"),
            fixture_instances,
            resources,
            folds=5,
            seed=0,
            train_config=TrainConfig(epochs=10),
        )
        # Trigram presence carries no label signal in this corpus, so the
        # pooled positive-class metrics bottom out at zero.
        assert result.metrics.precision == 0.0
        assert result.metrics.f_score == 0.0

    def test_golden_augmented_on_fixture_corpus(self, fixture_instances, resources):
        result = run_config(
            ExperimentConfig("L", Augmentation.S, "emb-a"),
            fixture_instances,
            resources,
            folds=5,
            seed=0,
            train_config=TrainConfig(epochs=10),
        )
        assert result.metrics.f_score == pytest.approx(55.172413793, abs=1e-6)

    def test_pooled_metrics_match_prediction_recount(
        self, fixture_instances, resources
    ):
        result = run_config(
            ExperimentConfig("L", Augmentation.S_AND_WS, "emb-b"),
            fixture_instances,
            resources,
            folds=5,
            seed=0,
            train_config=TrainConfig(epochs=5),
        )
        recounted = metrics_from_predictions(result.predictions)
        assert recounted == (
            result.metrics.precision,
            result.metrics.recall,
            result.metrics.f_score,
        )
        assert len(result.predictions) == len(fixture_instances)
        assert len(result.metrics.per_fold) == 5

    def test_every_instance_predicted_once(self, fixture_instances, resources):
        result = run_config(
            ExperimentConfig("G"),
            fixture_instances,
            resources,
            folds=5,
            seed=0,
            train_config=TrainConfig(epochs=3),
        )
        ids = [p.instance_id for p in result.predictions]
        assert sorted(ids) == sorted(i.id for i in fixture_instances)

    def test_unknown_embedding_fails_before_folds(self, fixture_instances, resources):
        with pytest.raises(ConfigurationError):
            run_config(
                ExperimentConfig("L", Augmentation.S, "emb-z"),
                fixture_instances,
                resources,
                folds=5,
                seed=0,
            )

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


FOLD_NAMES = ("a", "b", "c", "d", "e", "f")
fold_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def fold_inputs(draw):
    """Fragment rows, train and test indices, and a block appended to each row."""
    rows = []
    for _ in range(draw(st.integers(2, 8))):
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
    n_train = draw(st.integers(1, len(rows) - 1))
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
            # Block columns after the first training row's two prior names
            # and before a name first seen in the second; zero and -0.0
            # block values are dropped.
            [[{"a": 1.0, "b": 0.0}], [{"c": 2.0}], [{"c": 1.0, "a": 3.0}]],
            [0, 1],
            [2],
            np.array([[0.5, 0.0], [-0.0, 2.0], [1.0, -1.0]]),
        )
    )
    def test_fold_ids_match_a_fresh_then_frozen_registry(self, inputs):
        rows, train_idx, test_idx, block = inputs
        rows = [
            [*fragments, {f"blk{j}": value for j, value in enumerate(block_row)}]
            for fragments, block_row in zip(rows, block.tolist())
        ]
        registry = FeatureRegistry()
        expected = [FeatureVector.from_fragments(registry, rows[i]) for i in train_idx]
        registry.freeze()
        expected += [FeatureVector.from_fragments(registry, rows[i]) for i in test_idx]

        fold_order = train_idx + test_idx
        prior = harness._compile([fragments[:-1] for fragments in rows])
        head = int(np.diff(prior.indptr)[train_idx[0]])
        folds = [
            harness._fold_rows(harness._compile(rows), fold_order, len(train_idx)),
            harness._augment_rows(
                harness._fold_rows(prior, fold_order, len(train_idx)),
                block[fold_order],
                head,
            ),
        ]
        for row_of, ids, values in folds:
            assert np.all(np.diff(row_of) >= 0)
            for row, oracle in enumerate(expected):
                oracle_ids, oracle_values = oracle.as_arrays()
                in_row = row_of == row
                assert ids.dtype == oracle_ids.dtype and values.dtype == oracle_values.dtype
                assert ids[in_row].tobytes() == oracle_ids.tobytes()
                assert values[in_row].tobytes() == oracle_values.tobytes()
            assert len(row_of) == sum(len(oracle) for oracle in expected)


def single_cell(rows, cell):
    """Cell ``cell`` of a lockstep layout as a one-cell layout."""
    mask = rows.cells == cell
    n = len(rows.indptr) - 1
    row_of = np.repeat(np.arange(n), np.diff(rows.indptr))
    lengths = np.bincount(row_of[mask], minlength=n)
    return classify.CellRows(
        np.concatenate([[0], np.cumsum(lengths)]),
        rows.ids[mask] - rows.offsets[cell],
        rows.values[mask],
        np.zeros(int(mask.sum()), dtype=np.intp),
        np.array([0, rows.offsets[cell + 1] - rows.offsets[cell]]),
        rows.labels,
    )


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

    def test_cells_match_single_config_runs(self, small_matrix, resources):
        instances = generate_corpus(30, 0.4, seed=9)
        for key, cell in small_matrix.cells.items():
            single = run_config(
                cell.config,
                instances,
                resources,
                folds=3,
                seed=0,
                train_config=TrainConfig(epochs=2),
            )
            assert single.predictions == cell.predictions, key
            assert single.metrics == cell.metrics, key

    @pytest.mark.parametrize("folds", [2, 4])
    def test_features_built_once_per_corpus(self, resources, monkeypatch, folds):
        calls = {"tokenize": 0, "build": 0, "embed": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(harness, "tokenize", counting("tokenize", harness.tokenize))
        monkeypatch.setattr(
            harness,
            "build_config_features",
            counting("build", harness.build_config_features),
        )
        monkeypatch.setattr(
            harness, "embed_features", counting("embed", harness.embed_features)
        )
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
            "build": len(PRIOR_SETS) * n,
            "embed": tables * n,
        }

    @pytest.mark.parametrize("folds", [2, 4])
    def test_interned_once_per_corpus(self, resources, monkeypatch, folds):
        # Folds remap ids and train in lockstep: no per-fold interning, no
        # FeatureVector, no one-cell fit and no per-row prediction.
        calls = {
            "intern": 0,
            "from_fragments": 0,
            "compile": 0,
            "FeatureVector": 0,
            "train": 0,
            "predict": 0,
            "decision": 0,
        }

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            FeatureRegistry, "intern", counting("intern", FeatureRegistry.intern)
        )
        monkeypatch.setattr(
            FeatureVector,
            "from_fragments",
            classmethod(counting("from_fragments", FeatureVector.from_fragments.__func__)),
        )
        monkeypatch.setattr(harness, "_compile", counting("compile", harness._compile))
        monkeypatch.setattr(
            FeatureVector, "__init__", counting("FeatureVector", FeatureVector.__init__)
        )
        monkeypatch.setattr(classify, "train", counting("train", classify.train))
        for method in ("predict", "decision"):
            monkeypatch.setattr(
                LinearModel, method, counting(method, getattr(LinearModel, method))
            )
        run_matrix(
            generate_corpus(30, 0.4, seed=9),
            resources,
            folds=folds,
            seed=0,
            train_config=TrainConfig(epochs=1),
        )
        assert calls.pop("compile") == len(PRIOR_SETS)
        assert not any(calls.values()), calls

    def test_lockstep_cells_match_sequential_oracle(self, resources, monkeypatch):
        # 31 instances in 3 folds: the training sizes differ by one.
        instances = generate_corpus(31, 0.4, seed=9)
        splits = stratified_kfold(instances, k=3, seed=0)
        assert len({len(train_idx) for train_idx, _ in splits}) == 2
        groups = []

        def recording(rows, config, names):
            models = train_cells(rows, config, names)
            groups.append((rows, config, names, models))
            return models

        train_cells = harness.train
        monkeypatch.setattr(harness, "train", recording)
        run_matrix(
            instances, resources, folds=3, seed=0, train_config=TrainConfig(epochs=2)
        )
        assert len(groups) == len(PRIOR_SETS) * 3
        for rows, config, names, models in groups:
            labels = rows.labels.tolist()
            assert len(models) == 1 + 3 * len(resources.embeddings)
            for cell, (name, model) in enumerate(zip(names, models)):
                alone = single_cell(rows, cell)
                bounds = zip(alone.indptr[:-1], alone.indptr[1:])
                vectors = [
                    FeatureVector(dict(zip(alone.ids[a:b].tolist(), alone.values[a:b].tolist())))
                    for a, b in bounds
                ]
                weights, threshold = oracles.sequential_sgd_weights(
                    list(zip(vectors, labels)), config
                )
                [single] = train_cells(alone, config, [name])
                assert model.weights.tobytes() == weights.tobytes(), name
                assert model.weights.tobytes() == single.weights.tobytes(), name
                assert model.threshold == single.threshold == threshold, name

    def test_name_emitted_twice_is_rejected(self, resources, monkeypatch):
        def colliding(*args, **kwargs):
            return [*build_config_features(*args, **kwargs), {"dup": 1.0}, {"dup": 0.0}]

        build_config_features = harness.build_config_features
        monkeypatch.setattr(harness, "build_config_features", colliding)
        instances = generate_corpus(30, 0.4, seed=9)
        with pytest.raises(ValueError, match="'dup' emitted twice"):
            run_config(ExperimentConfig("L", Augmentation.S, "emb-a"), instances, resources)
        with pytest.raises(ValueError, match="'dup' emitted twice"):
            run_matrix(instances, resources, folds=3, train_config=TrainConfig(epochs=1))

    def test_missing_embeddings_rejected(self):
        with pytest.raises(ValueError):
            run_matrix(generate_corpus(30, 0.4, seed=9), Resources())


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
            (),
        )
    return MatrixResult(
        cells=cells,
        embeddings=tuple(embeddings),
        vocab_sizes={name: 100 for name in embeddings},
        intersected=False,
        n_instances=10,
        folds=5,
        seed=0,
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
        name = small_matrix.embeddings[0]
        expected = sum(
            small_matrix.cells[(prior, Augmentation.S, name)].metrics.f_score
            - small_matrix.cells[(prior, Augmentation.NONE, name)].metrics.f_score
            for prior in PRIOR_SETS
        ) / len(PRIOR_SETS)
        assert gains.per_augmentation[(name, Augmentation.S)] == pytest.approx(expected)
        expected_avg = sum(
            gains.per_augmentation[(name, augmentation)]
            for augmentation in AUGMENTATIONS[1:]
        ) / 3
        assert gains.per_embedding[name] == pytest.approx(expected_avg)


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
