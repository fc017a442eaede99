"""End-to-end acceptance checks for the similarity-feature pipeline.

Each test covers one headline property and prints a single
[PASS]/[FAIL]/[SKIP] line (visible under ``pytest -s``), with wall-clock
budgets enforced where the property is performance-sensitive.

The embedding-integration test needs real pre-trained vector files and
skips unless ``INCONGRUITY_EMBED_DIR`` points at a directory containing
them.
"""

import contextlib
import os
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import random_table
from incongruity.classify import TrainConfig, train, tune_threshold
from incongruity.embeddings import intersect_vocabularies, load_embeddings
from incongruity.features import (
    ExperimentConfig,
    FeatureRegistry,
)
from incongruity.harness import (
    Resources,
    compute_gains,
    emit_report,
    extract_features,
    run_matrix,
    stratified_kfold,
    AUGMENTATIONS,
    ConfigResult,
    MatrixResult,
    MetricsReport,
)
from incongruity.features import PRIOR_SETS
from incongruity import similarity
from incongruity.similarity import Augmentation, similarity_block
from incongruity.synthetic import generate_corpus, toy_embedding_tables
from incongruity.text import token_table, tokenize


@contextlib.contextmanager
def criterion(label, budget=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"{label}: took {elapsed:.2f}s, budget {budget:.0f}s"
            )
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label} ({elapsed:.2f}s)")


class TestFeatureExtractionExactness:
    def test_worked_example_matrix(self, table_one):
        with criterion(
            "unweighted features on the reference score matrix", budget=1.0
        ):
            _, scores, _ = table_one
            values = similarity._extremes(scores[None])[0]
            np.testing.assert_allclose(
                values, (0.766, 0.078, 0.078, 0.022), atol=1e-9
            )


class TestOracleEquivalence:
    def test_thousand_randomized_sentences(self):
        with criterion(
            "S and WS match the brute-force oracle on 1000 sentences",
            budget=10.0,
        ):
            table = random_table(50, 10, seed=2024)
            rng = np.random.default_rng(99)
            fillers = ("the", "of", "!", "...", "zzz-oov")
            stopwords = frozenset({"the", "of"})
            sentences = []
            for _ in range(1000):
                k = int(rng.integers(2, 11))
                words = list(
                    rng.choice(table.vocab, size=k, replace=False)
                )
                if rng.random() < 0.3:
                    words.append(words[0])  # repeated type, two positions
                for filler in fillers:
                    if rng.random() < 0.2:
                        words.insert(int(rng.integers(len(words) + 1)), filler)
                sentences.append(tokenize(" ".join(words)))
            # One corpus-level block, each row checked against the oracle.
            block = similarity_block(token_table(sentences, stopwords), table)
            for sentence, row in zip(sentences, block):
                s_expected, ws_expected = oracles.brute_force_blocks(
                    *oracles.content_words(sentence.tokens, stopwords, table)
                )
                np.testing.assert_allclose(row[:4], s_expected, atol=1e-9)
                np.testing.assert_allclose(row[4:], ws_expected, atol=1e-9)


class TestEmbeddingIntegration:
    def test_published_vector_anchors(self):
        directory = os.environ.get("INCONGRUITY_EMBED_DIR")
        if not directory or not Path(directory).is_dir():
            print(
                "[SKIP] real-embedding anchors "
                "(set INCONGRUITY_EMBED_DIR to a directory of vector files)"
            )
            pytest.skip("real embedding files not present")
        files = sorted(
            p
            for p in Path(directory).iterdir()
            if p.suffix in (".bin", ".txt", ".vec")
        )
        with criterion("published-vector similarity and intersection anchors"):
            google = next(
                (p for p in files if "google" in p.name.lower()),
                next((p for p in files if p.suffix == ".bin"), None),
            )
            assert google is not None, "no Google News vector file found"
            fmt = "binary_w2v" if google.suffix == ".bin" else "text_vectors"
            table = load_embeddings(google, fmt)
            man_woman = oracles.cosine(table.vector("man"), table.vector("woman"))
            assert man_woman == pytest.approx(0.766, abs=0.005)
            fish_bicycle = oracles.cosine(table.vector("fish"), table.vector("bicycle"))
            assert fish_bicycle == pytest.approx(0.131, abs=0.005)
            assert len(files) >= 4, "need four embedding files for intersection"
            tables = [
                load_embeddings(
                    p, "binary_w2v" if p.suffix == ".bin" else "text_vectors"
                )
                for p in files
            ]
            shared = intersect_vocabularies(tables)
            assert len(shared[0]) == 60252


class TestClassifier:
    def test_threshold_dominance_and_determinism(self):
        with criterion(
            "F-tuned threshold dominates zero threshold; training is "
            "bit-deterministic",
            budget=30.0,
        ):
            corpus = generate_corpus(500, 0.1, seed=0)
            assert sum(i.label for i in corpus) == 50
            # The L prior set: uni/bi/trigram presence.
            vectors = extract_features(
                [tokenize(i.text) for i in corpus],
                ExperimentConfig("L"),
                Resources(),
                FeatureRegistry(),
            )
            instances = [(vector, i.label) for vector, i in zip(vectors, corpus)]
            config = TrainConfig(seed=0)
            first = train(instances, config)
            second = train(instances, config)
            np.testing.assert_array_equal(first.weights, second.weights)
            assert first.threshold == second.threshold

            scores = np.array([first.decision(v) for v, _ in instances])
            labels = np.array([label for _, label in instances])

            def f_at(threshold):
                predicted = scores >= threshold
                tp = int(np.sum(predicted & (labels == 1)))
                fp = int(np.sum(predicted & (labels == 0)))
                fn = int(np.sum(~predicted & (labels == 1)))
                d = 2 * tp + fp + fn
                return 2 * tp / d if d else 0.0

            assert f_at(first.threshold) >= f_at(0.0)
            _, best_f = tune_threshold(scores, labels)
            assert f_at(first.threshold) == best_f


class TestPipelineDirection:
    def test_similarity_block_lifts_pooled_f(self):
        with criterion(
            "(L, S) beats (L, none) by at least 5 pooled F points",
            budget=120.0,
        ):
            corpus = generate_corpus(300, 0.3, seed=0)
            resources = Resources(
                embeddings={"emb-a": toy_embedding_tables(seed=0)["emb-a"]}
            )
            matrix = run_matrix(corpus, resources, folds=5, seed=0)
            base = matrix.cells[("L", Augmentation.NONE, "emb-a")]
            augmented = matrix.cells[("L", Augmentation.S, "emb-a")]
            gap = augmented.metrics.f_score - base.metrics.f_score
            assert gap >= 5.0, (
                f"pooled F gap {gap:.2f} "
                f"({augmented.metrics.f_score:.2f} vs {base.metrics.f_score:.2f})"
            )


class TestHarnessInvariants:
    def test_folds_leakage_and_report_stability(self):
        with criterion(
            "fold partition, frozen-registry feature gating, and "
            "byte-stable reports"
        ):
            corpus = generate_corpus(100, 0.3, seed=1)
            splits = stratified_kfold(corpus, k=5, seed=0)
            seen = []
            for train_idx, test_idx in splits:
                assert set(train_idx).isdisjoint(test_idx)
                assert sorted(train_idx + test_idx) == list(range(len(corpus)))
                seen.extend(test_idx)
            assert sorted(seen) == list(range(len(corpus)))

            resources = Resources(
                embeddings=toy_embedding_tables(seed=0)
            )
            config = ExperimentConfig("L", Augmentation.S, "emb-a")
            sentences = [tokenize(i.text) for i in corpus]
            train_idx, test_idx = splits[0]
            registry = FeatureRegistry()
            extract_features(
                [sentences[i] for i in train_idx], config, resources, registry
            )
            registry.freeze()
            size = len(registry)
            for vector in extract_features(
                [sentences[i] for i in test_idx], config, resources, registry
            ):
                assert all(fid < size for fid, _ in vector.items())
            assert len(registry) == size

            small = generate_corpus(30, 0.4, seed=9)
            train_config = TrainConfig(epochs=2)
            reports = []
            for _ in range(2):
                matrix = run_matrix(
                    small, resources, folds=3, seed=0, train_config=train_config
                )
                gains = compute_gains(matrix)
                reports.append(
                    (
                        emit_report(matrix, gains, "tsv"),
                        emit_report(matrix, gains, "markdown"),
                    )
                )
            assert reports[0] == reports[1]


def hand_built_matrix(f_scores, embeddings):
    cells = {}
    for (prior, augmentation, name), f_score in f_scores.items():
        cells[(prior, augmentation, name)] = ConfigResult(
            ExperimentConfig(prior, augmentation, name),
            MetricsReport(f_score, f_score, f_score),
            np.zeros(0),
            np.zeros(0, dtype=bool),
        )
    return MatrixResult(
        cells=cells,
        embeddings=tuple(embeddings),
        vocab_sizes={name: 1 for name in embeddings},
        intersected=False,
        n_instances=1,
        folds=5,
        seed=0,
        test_rows=np.zeros(0, dtype=int),
        test_folds=np.zeros(0, dtype=int),
    )


class TestGainArithmetic:
    def test_average_gain_is_mean_of_three(self):
        with criterion(
            "per-embedding gain equals the mean of its three "
            "per-augmentation gains"
        ):
            embeddings = ("e1", "e2")
            rng = np.random.default_rng(17)
            f_scores = {
                (prior, augmentation, name): float(rng.uniform(40, 90))
                for name in embeddings
                for prior in PRIOR_SETS
                for augmentation in AUGMENTATIONS
            }
            gains = compute_gains(hand_built_matrix(f_scores, embeddings))
            for name in embeddings:
                deltas_by_augmentation = []
                for augmentation in AUGMENTATIONS[1:]:
                    deltas = [
                        f_scores[(prior, augmentation, name)]
                        - f_scores[(prior, Augmentation.NONE, name)]
                        for prior in PRIOR_SETS
                    ]
                    expected = sum(deltas) / len(deltas)
                    assert (
                        gains.per_augmentation[(name, augmentation)] == expected
                    )
                    deltas_by_augmentation.append(expected)
                assert gains.per_embedding[name] == (
                    sum(deltas_by_augmentation) / len(deltas_by_augmentation)
                )

            # A single +4 cell over a flat 50.0 grid averages to exactly
            # 1.0 over the four prior sets.
            flat = {
                (prior, augmentation, "e1"): 50.0
                for prior in PRIOR_SETS
                for augmentation in AUGMENTATIONS
            }
            flat[("G", Augmentation.WS, "e1")] = 54.0
            gains = compute_gains(hand_built_matrix(flat, ("e1",)))
            assert gains.per_augmentation[("e1", Augmentation.WS)] == 1.0
            assert gains.per_augmentation[("e1", Augmentation.S)] == 0.0
