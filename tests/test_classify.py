import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from incongruity import classify
from incongruity.classify import (
    CellRows,
    DegenerateTrainingError,
    LinearModel,
    ModelFormatError,
    TrainConfig,
    TrainingError,
    load_model,
    save_model,
    train,
    train_cells,
    tune_threshold,
)
from incongruity.features import FeatureRegistry, FeatureVector


def make_instances(registry, rows):
    """rows: list of (name -> value dict, label) pairs."""
    return [
        (FeatureVector.from_fragments(registry, [fragment]), label)
        for fragment, label in rows
    ]


def separable_rows(n_per_class, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_per_class):
        rows.append(
            ({"pos": 1.0, "noise": float(rng.normal())}, 1)
        )
        rows.append(
            ({"neg": 1.0, "noise": float(rng.normal())}, 0)
        )
    return rows


def noisy_rows(n, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        label = int(rng.integers(2))
        fragment = {
            "signal": float(label + rng.normal(scale=1.5)),
            "junk": float(rng.normal()),
        }
        rows.append((fragment, label))
    return rows


def cell_rows(cells, labels):
    """CellRows for per-cell lists of feature vectors over the same rows."""
    dims = [
        max((int(v.as_arrays()[0][-1]) + 1 for v in vectors if len(v)), default=0)
        for vectors in cells
    ]
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(np.int64)
    ids, values, cell_index, indptr = [], [], [], [0]
    for row in zip(*cells):
        for cell, vector in enumerate(row):
            row_ids, row_values = vector.as_arrays()
            ids.extend((row_ids + offsets[cell]).tolist())
            values.extend(row_values.tolist())
            cell_index.extend([cell] * len(row_ids))
        indptr.append(len(ids))
    return CellRows(
        np.array(indptr, dtype=np.int64),
        np.array(ids, dtype=np.int64),
        np.array(values, dtype=np.float64),
        np.array(cell_index, dtype=np.intp),
        offsets,
        np.array(labels),
    )


def float_bytes(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestSegmentSums:
    # Segments of 16 or more terms are where np.dot stops summing left to
    # right; a segment with no terms must come out as +0.0.
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.one_of(
                    st.sampled_from([0.0, -0.0, 1.0, 1e16, -1e16]),
                    st.floats(allow_nan=False, allow_infinity=False),
                ),
            ),
            max_size=80,
        )
    )
    @example([(1, -0.0), (1, -0.0), (3, 1e16), (3, 1.0), (3, -1e16)])
    @example([(0, 0.1 * k) for k in range(20)] + [(2, 1e16)] + [(2, 1.0)] * 17)
    def test_each_segment_is_a_left_to_right_loop(self, pairs):
        segments = np.array([segment for segment, _ in pairs], dtype=np.intp)
        terms = np.array([term for _, term in pairs], dtype=np.float64)
        expected = [
            oracles.sequential_sum(term for seg, term in pairs if seg == segment)
            for segment in range(5)
        ]
        sums = classify._segment_sums(segments, terms, 5)
        assert float_bytes(sums) == float_bytes(expected)


class TestTuneThreshold:
    def test_picks_perfect_separator(self):
        scores = np.array([-1.0, 0.5, 2.0, 3.0])
        labels = np.array([0, 0, 1, 1])
        threshold, best_f = tune_threshold(scores, labels)
        assert threshold == 2.0
        assert best_f == 1.0

    def test_tie_prefers_lowest_threshold(self):
        # Thresholds 0.0 and 1.0 both give F = 2/3; the lower wins.
        scores = np.array([1.0, 2.0])
        labels = np.array([1, 0])
        threshold, best_f = tune_threshold(scores, labels)
        assert threshold == 0.0
        assert best_f == pytest.approx(2 / 3)

    def test_zero_always_among_candidates(self):
        # All scores positive: threshold 0.0 predicts everything positive,
        # which beats any cut that loses a true positive here.
        scores = np.array([0.5, 1.0, 2.0])
        labels = np.array([1, 1, 1])
        threshold, best_f = tune_threshold(scores, labels)
        assert threshold == 0.0
        assert best_f == 1.0

    def test_never_below_zero_threshold_f(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            scores = rng.normal(size=30)
            labels = rng.integers(2, size=30)
            if labels.min() == labels.max():
                continue
            threshold, best_f = tune_threshold(scores, labels)
            predicted = scores >= 0.0
            tp = int(np.sum(predicted & (labels == 1)))
            fp = int(np.sum(predicted & (labels == 0)))
            fn = int(np.sum(~predicted & (labels == 1)))
            zero_f = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
            assert best_f >= zero_f

    # A small pool of values forces ties between scores, across classes
    # and at exactly 0.0.
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 3.0]),
                    st.floats(allow_nan=False),
                ),
                st.integers(0, 1),
            ),
            max_size=40,
        )
    )
    @example([(0.0, 1), (0.0, 0), (0.0, 1)])
    @example([(2.0, 0), (2.0, 0), (2.0, 1), (2.0, 1)])
    @example([(-1.0, 1), (-1.0, 0)])
    @example([])
    def test_sorted_sweep_matches_brute_force(self, pairs):
        scores = np.array([score for score, _ in pairs], dtype=np.float64)
        labels = np.array([label for _, label in pairs], dtype=np.int64)
        threshold, best_f = tune_threshold(scores, labels)
        expected_threshold, expected_f = oracles.brute_force_threshold(scores, labels)
        assert np.float64(threshold).tobytes() == np.float64(expected_threshold).tobytes()
        assert best_f == expected_f


class TestTrain:
    def test_separable_problem_fits_training_data(self):
        registry = FeatureRegistry()
        instances = make_instances(registry, separable_rows(20, seed=1))
        model = train(instances, TrainConfig(epochs=20, seed=0))
        for vector, label in instances:
            _, predicted = model.predict(vector)
            assert predicted == label

    def test_bit_deterministic_under_fixed_seed(self):
        registry = FeatureRegistry()
        instances = make_instances(registry, noisy_rows(60, seed=2))
        first = train(instances, TrainConfig(epochs=15, seed=7))
        second = train(instances, TrainConfig(epochs=15, seed=7))
        np.testing.assert_array_equal(first.weights, second.weights)
        assert first.threshold == second.threshold

    def test_seed_changes_the_walk(self):
        registry = FeatureRegistry()
        instances = make_instances(registry, noisy_rows(60, seed=2))
        first = train(instances, TrainConfig(epochs=15, seed=7))
        second = train(instances, TrainConfig(epochs=15, seed=8))
        assert not np.array_equal(first.weights, second.weights)

    def test_single_class_rejected(self):
        registry = FeatureRegistry()
        instances = make_instances(
            registry, [({"a": 1.0}, 1), ({"b": 1.0}, 1)]
        )
        with pytest.raises(DegenerateTrainingError):
            train(instances)

    def test_positive_weighting_changes_solution(self):
        registry = FeatureRegistry()
        rows = noisy_rows(40, seed=3)
        instances = make_instances(registry, rows)
        light = train(instances, TrainConfig(w=1.0, epochs=10, seed=0))
        heavy = train(instances, TrainConfig(w=5.0, epochs=10, seed=0))
        assert not np.array_equal(light.weights, heavy.weights)

    def test_bias_stays_zero(self):
        registry = FeatureRegistry()
        instances = make_instances(registry, separable_rows(10, seed=4))
        model = train(instances, TrainConfig(epochs=5, seed=0))
        assert model.bias == 0.0

    def test_scaling_invariance_with_rescaled_hyperparameters(self):
        # Scaling every feature by k = 4 while dividing c and eta0 by
        # k**2 = 16 rescales the weights by exactly 1/k and reproduces
        # every training score, the threshold, and all decisions
        # bit-for-bit (powers of two commute with float rounding).
        k = 4.0
        registry = FeatureRegistry()
        rows = noisy_rows(50, seed=5)
        scaled_rows = [
            ({name: value * k for name, value in fragment.items()}, label)
            for fragment, label in rows
        ]
        base_instances = make_instances(registry, rows)
        scaled_instances = make_instances(registry, scaled_rows)

        base = train(base_instances, TrainConfig(c=20.0, eta0=0.5, epochs=12, seed=0))
        scaled = train(
            scaled_instances,
            TrainConfig(c=20.0 / k**2, eta0=0.5 / k**2, epochs=12, seed=0),
        )

        np.testing.assert_array_equal(scaled.weights * k, base.weights)
        assert scaled.threshold == base.threshold
        for (bv, label), (sv, _) in zip(base_instances, scaled_instances):
            assert base.decision(bv) == scaled.decision(sv)
            assert base.predict(bv)[1] == scaled.predict(sv)[1]

    @pytest.mark.parametrize(
        "rows",
        [
            [({"a": 1e300}, 1), ({"a": 1e300}, 0)],
            [({"a": 1e300}, 1), ({"b": 1e300}, 0)],
        ],
    )
    # "error" is the tier-1 filter; under "default" numpy only warns.
    @pytest.mark.parametrize("action", ["error", "default"])
    def test_overflow_raises_training_error(self, rows, action):
        registry = FeatureRegistry()
        instances = make_instances(registry, rows)
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(TrainingError, match=r"epoch \d+"):
                train(instances, TrainConfig(epochs=3))


class TestDenseOracle:
    """The scale-factor trainer against the dense step loop it replaces."""

    def assert_matches_dense(self, instances, config):
        model = train(instances, config)
        dense = oracles.dense_sgd_weights(instances, config)
        np.testing.assert_allclose(model.weights, dense, rtol=1e-10, atol=0)
        return model.weights, dense

    def test_noisy_rows(self):
        registry = FeatureRegistry()
        instances = make_instances(registry, noisy_rows(60, seed=2))
        self.assert_matches_dense(instances, TrainConfig(epochs=15, seed=7))

    def test_scale_floor_fires(self):
        registry = FeatureRegistry()
        instances = make_instances(registry, noisy_rows(40, seed=4))
        n, eta0, epochs = len(instances), 0.5, 30
        # eta0 * lam = 1 - 1e-6: the first decay leaves the scale at about
        # 1e-6, and the later ones shrink it past the floor.
        config = TrainConfig(c=eta0 / (n * (1.0 - 1e-6)), eta0=eta0, epochs=epochs)
        lam = 1.0 / (config.c * n)
        scale = 1.0
        fired_at = None
        for step in range(n * epochs):
            scale *= 1.0 - eta0 / (1.0 + eta0 * lam * step) * lam
            if abs(scale) < classify._SCALE_FLOOR:
                fired_at = step
                break
        assert fired_at is not None and fired_at > 0
        self.assert_matches_dense(instances, config)

    def test_zero_decay_factor(self):
        # c * n = 0.5, so eta0 * lam == 1 and the first step's decay
        # factor is exactly 0: the scale must be folded before dividing.
        registry = FeatureRegistry()
        instances = make_instances(
            registry,
            [({"a": 1.0}, 1), ({"a": 1.0}, 1), ({"b": 1.0}, 0), ({"a": 1.0, "b": 1.0}, 0)],
        )
        config = TrainConfig(c=0.125, eta0=0.5, epochs=1, seed=0)
        weights, dense = self.assert_matches_dense(instances, config)
        np.testing.assert_array_equal(dense, [0.625, -0.25])
        np.testing.assert_array_equal(weights, [0.625, -0.25])


class TestTrainCells:
    """The lockstep trainer against the one-cell sequential oracle."""

    def test_single_cell_matches_oracle_and_train(self):
        registry = FeatureRegistry()
        instances = make_instances(registry, noisy_rows(60, seed=2))
        config = TrainConfig(epochs=15, seed=7)
        [model] = train_cells(
            cell_rows(
                [[vector for vector, _ in instances]], [label for _, label in instances]
            ),
            config,
            ["noisy"],
        )
        weights, threshold = oracles.sequential_sgd_weights(instances, config)
        assert float_bytes(model.weights) == float_bytes(weights)
        assert model.threshold == threshold
        np.testing.assert_allclose(
            model.weights, train(instances, config).weights, rtol=1e-10, atol=0
        )

    def test_cells_do_not_see_each_other(self):
        # Three cells on the same labels: wide rows (20 features, past
        # np.dot's left-to-right range), the noisy rows, and an empty cell.
        rng = np.random.default_rng(3)
        labels = [int(label) for label in rng.integers(2, size=40)]
        labels[:2] = [0, 1]
        registry = FeatureRegistry()
        wide = [
            FeatureVector.from_fragments(
                registry,
                [{f"f{j}": float(rng.normal() + label) for j in range(20)}],
            )
            for label in labels
        ]
        noisy = [v for v, _ in make_instances(FeatureRegistry(), noisy_rows(40, 5))]
        cells = [wide, noisy, [FeatureVector()] * len(labels)]
        config = TrainConfig(c=0.5, epochs=6, seed=1)
        names = ["wide", "noisy", "empty"]
        models = train_cells(cell_rows(cells, labels), config, names)
        for cell, (vectors, model) in enumerate(zip(cells, models)):
            [alone] = train_cells(cell_rows([vectors], labels), config, ["alone"])
            weights, threshold = oracles.sequential_sgd_weights(
                list(zip(vectors, labels)), config
            )
            assert float_bytes(model.weights) == float_bytes(alone.weights), cell
            assert float_bytes(model.weights) == float_bytes(weights), cell
            assert model.threshold == alone.threshold == threshold, cell
        assert len(models[2].weights) == 0

    def test_single_class_rejected(self):
        vectors = [FeatureVector({0: 1.0}), FeatureVector({1: 1.0})]
        with pytest.raises(DegenerateTrainingError):
            train_cells(cell_rows([vectors], [1, 1]), TrainConfig(), ["one"])

    @pytest.mark.parametrize(
        "rows",
        [
            [({"a": 1e300}, 1), ({"a": 1e300}, 0)],
            [({"a": 1e300}, 1), ({"b": 1e300}, 0)],
        ],
    )
    @pytest.mark.parametrize("action", ["error", "default"])
    def test_overflowing_cell_is_named(self, rows, action):
        normal = make_instances(FeatureRegistry(), [({"a": 1.0}, 1), ({"b": 1.0}, 0)])
        overflowing = make_instances(FeatureRegistry(), rows)
        cells = [
            [vector for vector, _ in normal],
            [vector for vector, _ in overflowing],
            [vector for vector, _ in normal],
        ]
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(TrainingError, match=r"cell 'L\+S' .*epoch \d+"):
                train_cells(
                    cell_rows(cells, [1, 0]), TrainConfig(epochs=3), ["L", "L+S", "G"]
                )


class TestPredict:
    def test_threshold_is_inclusive(self):
        model = LinearModel(
            weights=np.array([1.0]), bias=0.0, threshold=2.0
        )
        at = FeatureVector({0: 2.0})
        below = FeatureVector({0: 1.9999})
        assert model.predict(at) == (2.0, 1)
        assert model.predict(below)[1] == 0

    def test_unknown_feature_ids_contribute_zero(self):
        model = LinearModel(
            weights=np.array([1.0, -1.0]), bias=0.25, threshold=0.0
        )
        vector = FeatureVector({0: 2.0, 7: 100.0})
        assert model.decision(vector) == 2.25

    def test_empty_vector_scores_bias(self):
        model = LinearModel(
            weights=np.array([1.0]), bias=0.5, threshold=0.0
        )
        assert model.decision(FeatureVector()) == 0.5

    def test_batched_decisions_match_decision(self):
        model = LinearModel(
            weights=np.array([1.0, -1.0, 0.5]), bias=0.25, threshold=0.0
        )
        vectors = [
            FeatureVector({0: 2.0, 7: 100.0}),
            FeatureVector(),
            FeatureVector({1: 3.0, 2: 1.0}),
        ]
        rows = np.array([0, 0, 2, 2])
        ids = np.array([0, 7, 1, 2])
        values = np.array([2.0, 100.0, 3.0, 1.0])
        scores = model.decisions(rows, ids, values, 3)
        assert scores.tolist() == [model.decision(vector) for vector in vectors]


# Feature names never contain line breaks: tokens are split on whitespace.
feature_names = st.lists(
    st.text(
        st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), min_size=1
    ),
    min_size=1,
    max_size=12,
    unique=True,
)
finite_weights = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 2.2250738585072009e-308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestModelIO:
    @given(
        feature_names.flatmap(
            lambda names: st.tuples(
                st.just(names),
                st.lists(finite_weights, max_size=len(names)),
            )
        ),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_save_then_load_is_bit_exact(self, names_and_weights, bias, threshold):
        names, weight_list = names_and_weights
        registry = FeatureRegistry()
        for name in names:
            registry.intern(name)
        model = LinearModel(np.array(weight_list, dtype=np.float64), bias, threshold)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "model.txt"
            save_model(path, model, registry)
            loaded, loaded_registry = load_model(path)
        # Only nonzero weights are stored, so a -0.0 weight loads as 0.0;
        # adding 0.0 maps -0.0 to 0.0 and leaves every other value as is.
        assert loaded.weights.tobytes() == (model.weights + 0.0).tobytes()
        assert np.float64(loaded.bias).tobytes() == np.float64(bias).tobytes()
        assert np.float64(loaded.threshold).tobytes() == np.float64(threshold).tobytes()
        assert loaded_registry.names == registry.names

    def test_round_trip_is_exact(self, tmp_path):
        registry = FeatureRegistry()
        instances = make_instances(registry, noisy_rows(30, seed=6))
        model = train(instances, TrainConfig(epochs=8, seed=1))
        path = tmp_path / "model.txt"
        save_model(path, model, registry)
        loaded, loaded_registry = load_model(path)
        np.testing.assert_array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias
        assert loaded.threshold == model.threshold
        assert loaded_registry.names == registry.names
        assert loaded_registry.frozen
        for vector, _ in instances:
            assert loaded.decision(vector) == model.decision(vector)

    def test_loaded_registry_drops_unseen_names(self, tmp_path):
        registry = FeatureRegistry()
        registry.intern("only")
        model = LinearModel(np.array([1.5]), 0.0, 0.0)
        path = tmp_path / "model.txt"
        save_model(path, model, registry)
        _, loaded_registry = load_model(path)
        assert loaded_registry.intern("only") == 0
        assert loaded_registry.intern("fresh") is None

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("something-else v1\n", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        registry = FeatureRegistry()
        registry.intern("a")
        model = LinearModel(np.array([1.0]), 0.0, 0.0)
        path = tmp_path / "model.txt"
        save_model(path, model, registry)
        clipped = path.read_text(encoding="utf-8").splitlines()[:3]
        path.write_text("\n".join(clipped) + "\n", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def write_model(self, path, edit):
        """Save a two-name, two-weight model, then rewrite its lines with ``edit``."""
        registry = FeatureRegistry()
        registry.intern("a")
        registry.intern("b")
        save_model(path, LinearModel(np.array([1.0, 2.0]), 0.0, 0.0), registry)
        lines = edit(path.read_text(encoding="utf-8").splitlines())
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("fid", ["-1", "2"])
    def test_out_of_range_weight_id_names_line(self, tmp_path, fid):
        path = self.write_model(
            tmp_path / "model.txt", lambda lines: lines[:-1] + [f"{fid} 5.0"]
        )
        with pytest.raises(ModelFormatError, match=f"line 10: weight id {fid}"):
            load_model(path)

    def test_repeated_name_names_line(self, tmp_path):
        path = self.write_model(
            tmp_path / "model.txt", lambda lines: [*lines[:6], "a", *lines[7:]]
        )
        with pytest.raises(ModelFormatError, match="line 7: name 'a' listed twice"):
            load_model(path)

    def test_repeated_weight_id_names_line(self, tmp_path):
        path = self.write_model(
            tmp_path / "model.txt", lambda lines: lines[:-1] + ["0 5.0"]
        )
        with pytest.raises(ModelFormatError, match="line 10: weight id 0 listed twice"):
            load_model(path)

    def test_missing_weight_lines_name_header(self, tmp_path):
        path = self.write_model(tmp_path / "model.txt", lambda lines: lines[:-1])
        with pytest.raises(ModelFormatError, match="line 8: declares 2 weights"):
            load_model(path)

    def test_dim_beyond_names_rejected(self, tmp_path):
        path = self.write_model(
            tmp_path / "model.txt", lambda lines: [lines[0], "dim 3", *lines[2:]]
        )
        with pytest.raises(ModelFormatError, match="line 2: dim 3 exceeds 2 names"):
            load_model(path)

    def test_registry_must_cover_weights(self, tmp_path):
        registry = FeatureRegistry()
        model = LinearModel(np.array([1.0]), 0.0, 0.0)
        with pytest.raises(ValueError):
            save_model(tmp_path / "model.txt", model, registry)


class TestTrainConfig:
    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            TrainConfig(c=0.0)
        with pytest.raises(ValueError):
            TrainConfig(w=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(eta0=0.0)
