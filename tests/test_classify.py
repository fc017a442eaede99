import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import cell_models
from incongruity import classify
from incongruity.classify import (
    CellRows,
    DegenerateTrainingError,
    LinearModel,
    ModelFormatError,
    TrainConfig,
    TrainConfigError,
    TrainingError,
    load_model,
    save_model,
    train,
    train_cells,
    tune_threshold,
)
from incongruity.errors import InputError
from incongruity.features import ExperimentConfig, FeatureRegistry, FeatureVector
from incongruity.harness import Resources, extract_features
from incongruity.synthetic import generate_corpus
from incongruity.text import tokenize


def as_vector(pairs):
    """The FeatureVector of (id, value) pairs, ids ascending."""
    return FeatureVector([fid for fid, _ in pairs], [value for _, value in pairs])


def make_instances(registry, rows):
    """rows: list of (name -> value dict, label) pairs."""
    return [
        (as_vector(oracles.number_row(registry, [fragment])), label)
        for fragment, label in rows
    ]


def separable_rows(n_per_class, seed, signal=1.0):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_per_class):
        rows.append(
            ({"pos": signal, "noise": float(rng.normal())}, 1)
        )
        rows.append(
            ({"neg": signal, "noise": float(rng.normal())}, 0)
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
    indptr = np.array(indptr, dtype=np.int64)
    return CellRows(
        indptr[:-1],
        indptr[1:],
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

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, 1e16, -1e16]),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=80,
        )
    )
    @example([-0.0])
    @example([-0.0, -0.0])
    @example([1e16, 1.0, -1e16, 1.0] * 5)
    def test_row_sum_is_a_left_to_right_loop(self, terms):
        with np.errstate(over="ignore", invalid="ignore"):
            total = classify._row_sum(np.array(terms, dtype=np.float64))
        assert float_bytes(total) == float_bytes(oracles.sequential_sum(terms))


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

    @pytest.mark.parametrize(
        "labels, row, label",
        [([1, 0, 2], 2, "2"), ([1.0, 0.5], 1, "0.5")],
    )
    def test_label_other_than_0_or_1_names_the_row(self, labels, row, label):
        vectors = [FeatureVector([0], [1.0]), FeatureVector([1], [1.0])]
        instances = [(vectors[k % 2], value) for k, value in enumerate(labels)]
        with pytest.raises(InputError, match=rf"^row {row}: label {label} is not 0 or 1$"):
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
            with pytest.raises(TrainingError, match=r"epoch \d+") as raised:
                train(instances, TrainConfig(epochs=3))
            with pytest.raises(TrainingError) as expected:
                oracles.step_loop_train(instances, TrainConfig(epochs=3))
        assert str(raised.value) == str(expected.value)


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


def model_bytes(trainer, instances, config):
    """(weights bytes, threshold hex) of a fit, or the TrainingError message."""
    try:
        model = trainer(instances, config)
    except TrainingError as exc:
        return str(exc)
    return model.weights.tobytes(), float.hex(model.threshold)


# BLAS dot products sum left to right below 16 entries and in blocks above,
# and np.add.reduce goes pairwise at 8, so the row lengths straddle 8, 16
# and 64: a trainer that summed in such an order would part from the loop.
ROW_LENGTHS = [0, 1, 15, 16, 17, 65, 80]


@st.composite
def step_loop_problems(draw):
    """(instances, config, clean run) for ``train`` against the step loop.

    Rows draw their lengths from ``ROW_LENGTHS`` and their values from
    +-1e-3 to +-1e3; some rows repeat earlier ones.  Separable problems
    add a class indicator, so updates stop and long certified runs occur.
    The configs include the scale-floor and zero-decay ones of
    ``TestDenseOracle``, and the clean run that starts a certification is
    the trainer's own or a short one, which certifies after almost every
    step.
    """
    n = draw(st.integers(2, 24))
    lengths = draw(st.lists(st.sampled_from(ROW_LENGTHS), min_size=n, max_size=n))
    separable = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(2, size=n)
    labels[:2] = [0, 1]
    width = 2 + draw(st.integers(80, 120))
    vectors = []
    for i, (length, label) in enumerate(zip(lengths, labels)):
        if i >= 2 and rng.random() < 0.25:
            source = int(rng.integers(i))
            vectors.append(vectors[source])
            labels[i] = labels[source]
            continue
        ids = np.sort(rng.choice(np.arange(2, width), size=length, replace=False))
        values = rng.choice([-1.0, 1.0], size=length) * 10.0 ** rng.uniform(-3, 3, length)
        if separable:
            ids = np.concatenate([[1 - label], ids])
            values = np.concatenate([[10.0 ** rng.uniform(-1, 1)], values])
        vectors.append(FeatureVector(ids, values))
    instances = [(vector, int(label)) for vector, label in zip(vectors, labels)]

    epochs = draw(st.integers(30, 80))
    seed = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["default", "drawn", "floor", "zero"]))
    if kind == "default":
        config = TrainConfig(epochs=epochs, seed=seed)
    elif kind == "drawn":
        config = TrainConfig(
            c=draw(st.floats(0.01, 100)),
            w=draw(st.floats(0.5, 5)),
            eta0=draw(st.floats(0.01, 2)),
            epochs=epochs,
            seed=seed,
        )
    elif kind == "floor":
        config = TrainConfig(c=0.5 / (n * (1.0 - 1e-6)), eta0=0.5, epochs=epochs, seed=seed)
    else:
        config = TrainConfig(c=0.5 / n, eta0=0.5, epochs=epochs, seed=seed)
    clean_run = draw(st.sampled_from([classify._CLEAN_RUN, 1, 7]))
    first_block = draw(st.sampled_from([classify._FIRST_BLOCK, 1, 3]))
    return instances, config, clean_run, first_block


def certification_log(monkeypatch):
    """Wrap ``_certified_steps`` and ``_row_dots``: one dict per
    certification with its ``step``, pending ``rows``, certified ``count``,
    row ``dots`` computed, the ``writes`` to v before it and the ``kept``
    rows."""
    log = []
    certify, row_dots = classify._certified_steps, classify._row_dots

    def counted_dots(rows, v, chosen):
        log[-1]["dots"] += len(chosen)
        return row_dots(rows, v, chosen)

    def counted(rows, v, scale, step, eta0, lam, pending):
        log.append(
            {"step": step, "rows": len(pending), "dots": 0, "writes": rows.writes, "kept": rows}
        )
        count, scale = certify(rows, v, scale, step, eta0, lam, pending)
        log[-1]["count"] = count
        return count, scale

    monkeypatch.setattr(classify, "_certified_steps", counted)
    monkeypatch.setattr(classify, "_row_dots", counted_dots)
    return log


class TestStepLoopOracle:
    """``train`` against the exact step loop it skips on certified steps."""

    @settings(max_examples=60, deadline=None)
    @given(step_loop_problems())
    def test_bit_identical_to_step_loop(self, problem):
        instances, config, clean_run, first_block = problem
        expected = model_bytes(oracles.step_loop_train, instances, config)
        with mock.patch.object(classify, "_CLEAN_RUN", clean_run), mock.patch.object(
            classify, "_FIRST_BLOCK", first_block
        ):
            assert model_bytes(train, instances, config) == expected
        # The same sums as the lockstep trainer on one cell and the
        # sequential oracle, so the same fit.
        rows = cell_rows([[vector for vector, _ in instances]], [label for _, label in instances])
        if isinstance(expected, str):
            with pytest.raises(TrainingError):
                train_cells(rows, config, ["one"])
            return
        [cell] = cell_models(rows, train_cells(rows, config, ["one"]))
        weights, threshold = oracles.sequential_sgd_weights(instances, config)
        assert (float_bytes(cell.weights), float.hex(cell.threshold)) == expected
        assert (float_bytes(weights), float.hex(threshold)) == expected

    @pytest.mark.parametrize(
        "config",
        [
            TrainConfig(epochs=60, seed=3),
            # The scale crosses the floor at step 1,000, in the middle of an
            # epoch that the step loop would otherwise certify.
            TrainConfig(c=0.5 / (80 * (1.0 - 1e-6)), eta0=0.5, epochs=60),
            TrainConfig(c=0.37, w=1.7, eta0=0.3, epochs=60, seed=1),
        ],
    )
    def test_certified_path_runs(self, monkeypatch, config):
        log = certification_log(monkeypatch)
        rows = separable_rows(40, seed=6, signal=100.0)
        instances = make_instances(FeatureRegistry(), rows)
        expected = model_bytes(oracles.step_loop_train, instances, config)
        assert model_bytes(train, instances, config) == expected
        assert log
        assert sum(entry["count"] for entry in log) > len(instances) * config.epochs // 2

    def test_epoch_after_one_without_update_computes_no_row_dot(self, monkeypatch):
        # A dot is kept until the next write to v, so once an epoch passes
        # without an update every row's dot is kept: each step either ran
        # exactly, keeping its own dot, or was examined by a
        # certification.  A write counted before a certification happened
        # no later than its epoch.
        log = certification_log(monkeypatch)
        instances = make_instances(FeatureRegistry(), separable_rows(300, seed=6, signal=10.0))
        n, config = len(instances), TrainConfig(epochs=40, seed=2)
        train(instances, config)
        writes = log[-1]["kept"].writes
        last_write_epoch = next(e["step"] // n for e in log if e["writes"] == writes)
        quiet = [e for e in log if e["step"] // n >= last_write_epoch + 2]
        assert log[0]["dots"] > 0
        assert len(quiet) >= 10
        assert [e["dots"] for e in quiet] == [0] * len(quiet)

    def test_rows_sharing_the_largest_feature_equal_the_step_loop(self, monkeypatch):
        # Every row holds "bias" at 5, the largest value: the two classes'
        # updates pull its weight both ways, and most steps are certified.
        log = certification_log(monkeypatch)
        rows = [({**fragment, "bias": 5.0}, label) for fragment, label in separable_rows(40, 6)]
        instances = make_instances(FeatureRegistry(), rows)
        config = TrainConfig(epochs=60, seed=3)
        expected = model_bytes(oracles.step_loop_train, instances, config)
        assert model_bytes(train, instances, config) == expected
        assert sum(e["count"] for e in log) > len(instances) * config.epochs // 2

    def test_corpus_rows_with_partial_and_whole_epoch_certifications(self, monkeypatch):
        # L-prior rows of a 300-sentence corpus, most with more than 16
        # entries, where BLAS sums in blocks: 50 epochs equal the step loop
        # bit for bit, through certifications that stop inside a block and
        # ones that certify the rest of an epoch past the first block.
        log = certification_log(monkeypatch)
        corpus = generate_corpus(300, 0.3, seed=4, separability=0.8)
        vectors = extract_features(
            [tokenize(inst.text) for inst in corpus],
            ExperimentConfig("L"),
            Resources(),
            FeatureRegistry(),
        )
        assert np.mean([len(vector) > 16 for vector in vectors]) > 0.5
        instances = [(vector, inst.label) for vector, inst in zip(vectors, corpus)]
        config = TrainConfig(epochs=50, seed=0)
        assert model_bytes(train, instances, config) == model_bytes(
            oracles.step_loop_train, instances, config
        )
        assert any(e["count"] < e["rows"] for e in log)
        assert any(e["count"] == e["rows"] > classify._FIRST_BLOCK for e in log)

    def test_kept_dots_are_the_canonical_sums(self, monkeypatch):
        # Every dot the trainer holds for the current v, whether an exact
        # step or a certification computed it, is the left-to-right sum the
        # step loop's margin comes from.  Rows carry 17-40 entries, where
        # BLAS and pairwise sums part from that order, and a class
        # indicator, so long certified runs occur.
        rng = np.random.default_rng(5)
        instances = []
        for k in range(60):
            label = k % 2
            length = int(rng.integers(16, 40))
            ids = np.sort(rng.choice(np.arange(2, 200), size=length, replace=False))
            values = rng.choice([-1.0, 1.0], size=len(ids)) * rng.uniform(0.1, 3.0, len(ids))
            instances.append(
                (FeatureVector([1 - label, *ids.tolist()], [3.0, *values.tolist()]), label)
            )
        checked = []
        certify = classify._certified_steps

        def checking(rows, v, scale, step, eta0, lam, pending):
            kept = (rows.stamps >= rows.writes) & (np.diff(rows.bounds) > 0)
            for row in np.flatnonzero(kept).tolist():
                a, b = rows.bounds[row], rows.bounds[row + 1]
                expected = oracles.sequential_dot(v, rows.ids[a:b], rows.values[a:b])
                assert float.hex(float(rows.dots[row])) == float.hex(expected), row
            checked.append(int(kept.sum()))
            return certify(rows, v, scale, step, eta0, lam, pending)

        monkeypatch.setattr(classify, "_certified_steps", checking)
        train(instances, TrainConfig(epochs=30, seed=1))
        assert sum(checked) > 1000


class TestCertifiedSteps:
    """One certification, on rows and weights set by hand: a step is
    certified exactly when the step loop would not update."""

    def certify(self, v, rows, scale=1.0, step=0, eta0=0.5, lam=1e-3):
        v = np.asarray(v, dtype=np.float64)
        prepared = [
            (np.arange(len(values)), np.asarray(values, dtype=np.float64), 1.0, 1.0)
            for values in rows
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            return classify._certified_steps(
                classify._Rows(prepared), v, scale, step, eta0, lam, np.arange(len(rows))
            )

    def test_margin_of_one_is_certified(self):
        assert self.certify([1.0], [[1.0]])[0] == 1
        assert self.certify([1.0 - 2.0**-53], [[1.0]])[0] == 0

    def test_long_row_is_certified_on_its_canonical_sum(self):
        # 64 terms of (1 + 2**-46) / 64 add up to 1 + 2**-46 exactly, and
        # 64 terms of 1/64 to exactly 1.
        assert self.certify([1.0 + 2.0**-46] * 64, [[1 / 64] * 64])[0] == 1
        assert self.certify([1.0] * 64, [[1 / 64] * 64])[0] == 1
        assert self.certify([1.0 - 2.0**-53] * 64, [[1 / 64] * 64])[0] == 0

    def test_margin_of_another_summation_order_does_not_count(self):
        # Left to right, 1e16 + 1 rounds to 1e16, so the sum is 1; a
        # pairwise sum, (1e16 + 1) + (-1e16 + 1), is 0 and would update.
        assert self.certify([1e16, 1.0, -1e16, 1.0], [[1.0] * 4])[0] == 1
        assert self.certify([1e16, 1.0, 1.0, -1e16], [[1.0] * 4])[0] == 0

    @pytest.mark.parametrize("weight", [np.inf, -np.inf, np.nan])
    def test_non_finite_margin_is_not_certified(self, weight):
        assert self.certify([weight], [[1.0]])[0] == 0

    def test_scale_floor_stops_the_run(self):
        # Decay factors 1/2, then 2/3: the second step takes the scale
        # below the floor, so it is left to the step loop.
        count, scale = self.certify([1e12], [[1.0]] * 3, scale=2.5e-9, lam=1.0)
        assert count == 1
        assert scale == 2.5e-9 * 0.5

    def test_scales_match_the_step_loop(self):
        # eta0 * (lam * step) differs from (eta0 * lam) * step in the last
        # bit often enough to change a decay factor of this run (at step
        # 575) and so the scale after it.
        eta0, lam, step = 0.7, 1.25, 300
        count, scale = self.certify(
            [1e3], [[1.0]] * 1000, scale=0.7, step=step, eta0=eta0, lam=lam
        )
        expected = 0.7
        for t in range(step, step + 1000):
            expected *= 1.0 - eta0 / (1.0 + eta0 * lam * t) * lam
        assert count == 1000
        assert float.hex(scale) == float.hex(expected)


class TestTrainCells:
    """The lockstep trainer against the one-cell sequential oracle."""

    def test_single_cell_matches_oracle_and_train(self):
        # The noisy rows with 20 more features each: 22 entries a row, past
        # the 16 below which BLAS sums left to right.
        rng = np.random.default_rng(8)
        rows = [
            ({**fragment, **{f"f{j}": float(rng.normal()) for j in range(20)}}, label)
            for fragment, label in noisy_rows(60, seed=2)
        ]
        instances = make_instances(FeatureRegistry(), rows)
        assert min(len(vector) for vector, _ in instances) == 22
        config = TrainConfig(epochs=15, seed=7)
        rows = cell_rows(
            [[vector for vector, _ in instances]], [label for _, label in instances]
        )
        [model] = cell_models(rows, train_cells(rows, config, ["noisy"]))
        weights, threshold = oracles.sequential_sgd_weights(instances, config)
        assert float_bytes(model.weights) == float_bytes(weights)
        assert model.threshold == threshold
        alone = train(instances, config)
        assert float_bytes(alone.weights) == float_bytes(weights)
        assert float.hex(alone.threshold) == float.hex(threshold)

    def test_cells_do_not_see_each_other(self):
        # Three cells on the same labels: wide rows (20 features, past
        # np.dot's left-to-right range), the noisy rows, and an empty cell.
        rng = np.random.default_rng(3)
        labels = [int(label) for label in rng.integers(2, size=40)]
        labels[:2] = [0, 1]
        registry = FeatureRegistry()
        wide = [
            as_vector(
                oracles.number_row(
                    registry, [{f"f{j}": float(rng.normal() + label) for j in range(20)}]
                )
            )
            for label in labels
        ]
        noisy = [v for v, _ in make_instances(FeatureRegistry(), noisy_rows(40, 5))]
        cells = [wide, noisy, [FeatureVector([], [])] * len(labels)]
        config = TrainConfig(c=0.5, epochs=6, seed=1)
        names = ["wide", "noisy", "empty"]
        rows = cell_rows(cells, labels)
        models = cell_models(rows, train_cells(rows, config, names))
        for cell, (vectors, model) in enumerate(zip(cells, models)):
            single = cell_rows([vectors], labels)
            [alone] = cell_models(single, train_cells(single, config, ["alone"]))
            weights, threshold = oracles.sequential_sgd_weights(
                list(zip(vectors, labels)), config
            )
            assert float_bytes(model.weights) == float_bytes(alone.weights), cell
            assert float_bytes(model.weights) == float_bytes(weights), cell
            assert model.threshold == alone.threshold == threshold, cell
        assert len(models[2].weights) == 0

    def test_single_class_rejected(self):
        vectors = [FeatureVector([0], [1.0]), FeatureVector([1], [1.0])]
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
        at = FeatureVector([0], [2.0])
        below = FeatureVector([0], [1.9999])
        assert model.predict(at) == (2.0, 1)
        assert model.predict(below)[1] == 0

    def test_unknown_feature_ids_contribute_zero(self):
        model = LinearModel(
            weights=np.array([1.0, -1.0]), bias=0.25, threshold=0.0
        )
        assert model.decision(FeatureVector([0, 7], [2.0, 100.0])) == 2.25

    def test_empty_vector_scores_bias(self):
        model = LinearModel(
            weights=np.array([1.0]), bias=0.5, threshold=0.0
        )
        assert model.decision(FeatureVector([], [])) == 0.5

    # Rows of up to 80 entries, past the lengths where BLAS and pairwise
    # sums leave the left-to-right order; -0.0 products included.
    @given(
        st.integers(1, 100).flatmap(
            lambda width: st.tuples(
                st.lists(
                    st.one_of(st.sampled_from([0.0, -0.0, 1e16, -1e16]), st.floats(-1e100, 1e100)),
                    min_size=width,
                    max_size=width,
                ),
                st.lists(
                    st.dictionaries(
                        st.integers(0, width - 1),
                        st.one_of(st.sampled_from([1.0, -1.0]), st.floats(-1e100, 1e100)),
                        max_size=80,
                    ),
                    min_size=1,
                    max_size=5,
                ),
            )
        )
    )
    @example(([1e16, 1.0, -1e16, 1.0] * 5, [dict.fromkeys(range(20), 1.0)]))
    @example(([-1.0, -0.0], [{0: 0.0}, {1: 1.0}, {}]))
    def test_decision_equals_cell_scores_of_one_cell(self, problem):
        weights, rows = problem
        weights = np.array(weights)
        vectors = [FeatureVector(sorted(row), [row[fid] for fid in sorted(row)]) for row in rows]
        model = LinearModel(weights=weights, bias=0.0, threshold=0.0)
        layout = cell_rows([vectors], [0] * len(vectors))
        with np.errstate(over="ignore", invalid="ignore"):
            decisions = [model.decision(vector) for vector in vectors]
            scores = classify.cell_scores(layout, weights)
        assert float_bytes(decisions) == float_bytes(scores[:, 0])


class TestCellScores:
    """The one scorer of training and test rows against the sequential oracle."""

    def test_scores_match_sequential_sum_of_trained_entries(self):
        rng = np.random.default_rng(4)
        labels = [0, 1] * 6 + [1, 0, 1]
        # Training rows 0-11 carry ids 0-19 of cell 0 (20 entries a row, past
        # np.dot's left-to-right range) and 0-2 of cell 1.  Test rows 12-14
        # also carry ids no training row has: 20-23 and 3.  Row 13 holds
        # only such ids, with negative values, so its products are -0.0.
        wide, narrow = [], []
        for row, label in enumerate(labels):
            values = rng.normal(size=24) + label
            if row < 12:
                wide.append(FeatureVector(np.arange(20), values[:20]))
                narrow.append(FeatureVector([0, 1, 2], values[:3]))
            elif row == 13:
                wide.append(FeatureVector([20, 21, 22, 23], -np.abs(values[20:])))
                narrow.append(FeatureVector([3], [-3.0]))
            else:
                wide.append(FeatureVector(np.arange(24), values))
                narrow.append(FeatureVector([0, 1, 2, 3], values[:4]))
        layout = cell_rows([wide, narrow], labels)
        assert layout.offsets.tolist() == [0, 24, 28]
        trained = train_cells(
            layout.take(range(12)), TrainConfig(epochs=4, seed=2), ["wide", "narrow"]
        )
        weights = trained[0]
        models = cell_models(layout, trained)
        scores = classify.cell_scores(layout.take([12, 13, 14]), weights)
        assert scores.shape == (3, 2)
        for cell, (vectors, model, trained_ids) in enumerate(
            zip([wide, narrow], models, [range(20), range(3)])
        ):
            # Every trained weight moved, so the oracle reads only trained
            # ids; the others stay +0.0.
            assert np.all(model.weights[list(trained_ids)] != 0.0)
            untrained = model.weights[len(trained_ids):]
            assert not np.any(untrained) and not np.any(np.signbit(untrained))
            for k, row in enumerate([12, 13, 14]):
                ids, values = vectors[row].as_arrays()
                expected = oracles.sequential_sum(
                    model.weights[fid] * value
                    for fid, value in zip(ids.tolist(), values.tolist())
                    if fid in trained_ids
                )
                assert scores[k, cell].hex() == expected.hex(), (cell, row)
        # Row 13 holds only untrained names: +0.0 in both cells.
        assert scores[1].tolist() == [0.0, 0.0]
        assert not np.any(np.signbit(scores[1]))


class TestTake:
    def test_taken_rows_train_as_a_layout_of_only_those_rows(self):
        rng = np.random.default_rng(12)
        n = 14
        labels = [int(label) for label in rng.integers(2, size=n)]
        labels[:2] = [0, 1]
        # Cell 0: 18 entries a row (past np.dot's left-to-right range).
        # Cell 1: sparse rows; row 9 carries its largest id, so a layout of
        # the selected rows alone has the same id ranges.
        wide = [
            FeatureVector(list(range(18)), (rng.normal(size=18) + label).tolist())
            for label in labels
        ]
        sparse = []
        for row, label in enumerate(labels):
            ids = sorted(rng.choice(9, size=3, replace=False).tolist())
            if row == 9:
                ids = [*ids[:2], 11]
            sparse.append(FeatureVector(ids, (rng.normal(size=3) - label).tolist()))
        cells = [wide, sparse]
        selection = [9, 2, 11, 4, 0, 13, 7, 5, 1]
        layout = cell_rows(cells, labels)
        alone = cell_rows(
            [[vectors[i] for i in selection] for vectors in cells],
            [labels[i] for i in selection],
        )
        taken = layout.take(selection)
        assert len(taken) == len(selection)
        assert taken.offsets.tolist() == alone.offsets.tolist()
        # The taken view shares the layout's entries.
        assert taken.ids is layout.ids and taken.values is layout.values
        config = TrainConfig(epochs=7, seed=5)
        for model, single in zip(
            train_cells(taken, config, ["wide", "sparse"]),
            train_cells(alone, config, ["wide", "sparse"]),
        ):
            assert model.tobytes() == single.tobytes()


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
        assert loaded_registry.intern("unseen") is None
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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda lines: ["something-else v1", *lines[1:]],
                "line 1: unsupported model header 'something-else v1'",
            ),
            (lambda lines: lines[:6], "line 5: declares 2 names, file has 1"),
            (
                lambda lines: [lines[0], "dimension 2", *lines[2:]],
                "line 2: expected 'dim ...' line, found 'dimension 2'",
            ),
            (lambda lines: [], "line 1: unsupported model header ''"),
            (
                lambda lines: lines[:3],
                "line 4: expected 'threshold ...' line, found the end of the file",
            ),
            (
                lambda lines: [*lines[:4], "names two", *lines[5:]],
                "line 5: names must be a whole number, found 'two'",
            ),
            (lambda lines: [*lines[:2], "bias zero", *lines[3:]], "line 3: not a number 'zero'"),
            (
                lambda lines: [*lines[:9], "1 two"],
                "line 10: expected '<id> <weight>', found '1 two'",
            ),
            (
                lambda lines: lines[:7],
                "line 8: expected 'weights ...' line, found the end of the file",
            ),
        ],
        ids=[
            "header", "truncated-names", "dim-key", "empty", "no-threshold",
            "names-count", "bias-text", "weight-text", "no-weights",
        ],
    )
    def test_malformed_file_names_file_and_line(self, tmp_path, edit, message):
        path = self.write_model(tmp_path / "model.txt", edit)
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: {message}"

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

    def test_non_finite_bias_names_line(self, tmp_path):
        path = self.write_model(
            tmp_path / "model.txt", lambda lines: [*lines[:2], "bias nan", *lines[3:]]
        )
        with pytest.raises(ModelFormatError, match="model.txt: line 3: non-finite value 'nan'"):
            load_model(path)

    def test_non_finite_threshold_names_line(self, tmp_path):
        path = self.write_model(
            tmp_path / "model.txt", lambda lines: [*lines[:3], "threshold inf", *lines[4:]]
        )
        with pytest.raises(ModelFormatError, match="model.txt: line 4: non-finite value 'inf'"):
            load_model(path)

    def test_non_finite_weight_names_line(self, tmp_path):
        path = self.write_model(
            tmp_path / "model.txt", lambda lines: [*lines[:8], "0 -inf", lines[9]]
        )
        with pytest.raises(ModelFormatError, match="model.txt: line 9: non-finite value '-inf'"):
            load_model(path)

    def test_non_utf8_file_names_file_and_line(self, tmp_path):
        path = self.write_model(tmp_path / "model.txt", lambda lines: lines)
        lines = path.read_bytes().split(b"\n")
        lines[6] = b"b\xff"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ModelFormatError, match="model.txt: line 7: not valid UTF-8$") as info:
            load_model(path)
        assert isinstance(info.value.__cause__, UnicodeDecodeError)

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("c", -1.0),
            ("c", float("nan")),
            ("w", float("inf")),
            ("eta0", float("nan")),
            ("epochs", 2.5),
            ("seed", -1),
            ("seed", 1.5),
        ],
    )
    def test_error_names_the_field(self, field, value):
        with pytest.raises(TrainConfigError, match=rf"^{field} must be .*, got {value!r}$"):
            TrainConfig(**{field: value})
