import numpy as np
import pytest

import oracles
from conftest import random_table
from incongruity.embeddings import EmbeddingTable
from incongruity.similarity import (
    Augmentation,
    InsufficientContentError,
    PairwiseScores,
    S_FEATURE_NAMES,
    WS_FEATURE_NAMES,
    embed_features,
    pairwise_scores,
    unweighted_features,
    weighted_features,
)
from incongruity.text import content_words, tokenize


class TestPairwiseScores:
    def test_symmetric_with_undefined_diagonal(self):
        table = random_table(6, 8, seed=3)
        sentence = tokenize(" ".join(table.vocab[:5]))
        pairs = pairwise_scores(content_words(sentence, frozenset(), table))
        n = len(pairs.words)
        assert np.isnan(pairs.scores.diagonal()).all()
        off = ~np.eye(n, dtype=bool)
        np.testing.assert_array_equal(pairs.scores[off], pairs.scores.T[off])
        assert (pairs.distances[off] >= 1).all()

    def test_distance_uses_minimum_occurrence_gap(self):
        table = random_table(30, 6, seed=4)
        # w000 at positions 0 and 5, w001 at position 3: min gap is 2.
        sentence = tokenize("w000 w002 w003 w001 w004 w000")
        pairs = pairwise_scores(content_words(sentence, frozenset(), table))
        i = pairs.words.index("w000")
        j = pairs.words.index("w001")
        assert pairs.distances[i, j] == 2

    def test_each_pair_matches_scalar_oracle(self):
        table = random_table(30, 12, seed=10)
        stopwords = frozenset({"the", "of"})
        pool = list(table.vocab[:8]) + ["the", "of", "zzz-oov", "!"]
        rng = np.random.default_rng(11)
        # Short random sentences repeat words, stopwords and OOV tokens.
        sentences = [
            [pool[int(k)] for k in rng.integers(len(pool), size=int(rng.integers(2, 12)))]
            for _ in range(60)
        ]
        sentences.append(["w010", "w011"])
        sentences.append(list(table.vocab) + ["the", "w000", "zzz-oov"] * 3 + ["w005"])
        checked = 0
        for tokens in sentences:
            selected = content_words(tokenize(" ".join(tokens)), stopwords, table)
            if len(selected) < 2:
                continue
            checked += 1
            pairs = pairwise_scores(selected)
            entries = selected.entries
            for i in range(len(entries)):
                for j in range(len(entries)):
                    if i == j:
                        continue
                    assert pairs.scores[i, j] == pytest.approx(
                        oracles.cosine(entries[i].vector, entries[j].vector),
                        rel=0, abs=1e-12,
                    )
                    assert pairs.distances[i, j] == oracles.min_distance(
                        entries[i].positions, entries[j].positions
                    )
        assert checked >= 40

    def test_insufficient_content_raises(self):
        table = random_table(5, 4, seed=5)
        sentence = tokenize("w000 w000 oov")
        with pytest.raises(InsufficientContentError):
            pairwise_scores(content_words(sentence, frozenset(), table))


class TestUnweightedBlock:
    def test_reference_matrix_values(self, table_one):
        values = unweighted_features(table_one)
        np.testing.assert_allclose(
            values, (0.766, 0.078, 0.078, 0.022), atol=1e-9
        )

    def test_reference_matrix_against_oracle(self, table_one):
        # Independent recomputation from the raw pair list.
        n = len(table_one.words)
        best, worst = [], []
        for i in range(n):
            row = [table_one.scores[i, j] for j in range(n) if j != i]
            best.append(max(row))
            worst.append(min(row))
        expected = (max(best), min(best), max(worst), min(worst))
        np.testing.assert_allclose(unweighted_features(table_one), expected, atol=0)

    def test_two_word_sentence_collapses(self):
        scores = np.array([[np.nan, 0.4], [0.4, np.nan]])
        distances = np.array([[0, 1], [1, 0]])
        pairs = PairwiseScores(("x", "y"), scores, distances)
        assert unweighted_features(pairs) == (0.4, 0.4, 0.4, 0.4)

    def test_nan_score_propagates(self):
        scores = np.array(
            [[np.nan, np.nan, 0.2], [np.nan, np.nan, 0.5], [0.2, 0.5, np.nan]]
        )
        distances = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        pairs = PairwiseScores(("x", "y", "z"), scores, distances)
        assert np.isnan(unweighted_features(pairs)).all()

    def test_order_permutation_invariance(self):
        table = random_table(8, 10, seed=6)
        rng = np.random.default_rng(7)
        sentence = tokenize(" ".join(table.vocab))
        pairs = pairwise_scores(content_words(sentence, frozenset(), table))
        reference = unweighted_features(pairs)
        for _ in range(10):
            perm = rng.permutation(len(pairs.words))
            shuffled = PairwiseScores(
                tuple(pairs.words[i] for i in perm),
                pairs.scores[np.ix_(perm, perm)],
                pairs.distances[np.ix_(perm, perm)],
            )
            np.testing.assert_allclose(
                unweighted_features(shuffled), reference, atol=1e-12
            )

    def test_max_ge_min_invariants(self):
        rng = np.random.default_rng(8)
        for trial in range(50):
            table = random_table(10, 6, seed=100 + trial)
            k = int(rng.integers(2, 10))
            words = list(rng.choice(table.vocab, size=k, replace=False))
            pairs = pairwise_scores(
                content_words(tokenize(" ".join(words)), frozenset(), table)
            )
            max_sim, min_sim, max_dissim, min_dissim = unweighted_features(pairs)
            assert max_sim >= min_sim
            assert max_dissim >= min_dissim
            assert max_sim >= max_dissim
            assert min_sim >= min_dissim


class TestWeightedBlock:
    def test_worked_example_division_by_squared_distance(self):
        # Two words at positions 1 and 4: score 0.766 over distance 3
        # squared gives ~0.0851.
        scores = np.array([[np.nan, 0.766], [0.766, np.nan]])
        distances = np.array([[0, 3], [3, 0]])
        pairs = PairwiseScores(("woman", "man"), scores, distances)
        values = weighted_features(pairs)
        np.testing.assert_allclose(values, (0.766 / 9,) * 4, atol=1e-9)

    def test_adjacent_words_equal_unweighted_exactly(self):
        rng = np.random.default_rng(9)
        n = 5
        raw = rng.uniform(-1, 1, size=(n, n))
        scores = (raw + raw.T) / 2
        np.fill_diagonal(scores, np.nan)
        distances = np.ones((n, n), dtype=np.int64)
        np.fill_diagonal(distances, 0)
        pairs = PairwiseScores(tuple("abcde"), scores, distances)
        assert weighted_features(pairs) == unweighted_features(pairs)

    def test_reference_matrix_against_oracle(self, table_one):
        n = len(table_one.words)
        weighted = table_one.scores / table_one.distances.astype(float) ** 2
        best, worst = [], []
        for i in range(n):
            row = [weighted[i, j] for j in range(n) if j != i]
            best.append(max(row))
            worst.append(min(row))
        expected = (max(best), min(best), max(worst), min(worst))
        np.testing.assert_allclose(weighted_features(table_one), expected, atol=1e-12)


class TestOracleEquivalence:
    def test_random_sentences_match_brute_force(self):
        table = random_table(50, 10, seed=20)
        stopwords = frozenset({"the", "of", "and"})
        fillers = list(stopwords) + ["!", "...", "zzz-oov"]
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(300):
            length = int(rng.integers(2, 14))
            pool = list(table.vocab) + fillers
            tokens = [pool[int(rng.integers(len(pool)))] for _ in range(length)]
            sentence = tokenize(" ".join(tokens))
            selected = content_words(sentence, stopwords, table)
            if len(selected) < 2:
                continue
            checked += 1
            pairs = pairwise_scores(selected)
            s_expected, ws_expected = oracles.brute_force_blocks(
                [e.word for e in selected.entries],
                [e.vector for e in selected.entries],
                [e.positions for e in selected.entries],
            )
            np.testing.assert_allclose(unweighted_features(pairs), s_expected, atol=1e-9)
            np.testing.assert_allclose(weighted_features(pairs), ws_expected, atol=1e-9)
        assert checked >= 100


class TestEmbedFeatures:
    def test_s_block_has_exactly_four_features(self):
        table = random_table(10, 5, seed=30)
        sentence = tokenize("w000 w001 w002")
        features = embed_features(
            sentence, table, Augmentation.S, stopwords=frozenset()
        )
        assert tuple(features) == S_FEATURE_NAMES

    def test_combined_block_has_exactly_eight_features(self):
        table = random_table(10, 5, seed=30)
        sentence = tokenize("w000 w001 w002")
        features = embed_features(
            sentence, table, Augmentation.S_AND_WS, stopwords=frozenset()
        )
        assert tuple(features) == S_FEATURE_NAMES + WS_FEATURE_NAMES

    def test_degenerate_sentence_yields_zeros(self):
        table = random_table(10, 5, seed=30)
        sentence = tokenize("the of")
        features = embed_features(
            sentence, table, Augmentation.S_AND_WS, stopwords=frozenset({"the", "of"})
        )
        assert set(features.values()) == {0.0}
        assert len(features) == 8

    def test_single_content_word_yields_zeros(self):
        table = random_table(10, 5, seed=30)
        sentence = tokenize("w000 w000 oov !")
        features = embed_features(
            sentence, table, Augmentation.WS, stopwords=frozenset()
        )
        assert set(features.values()) == {0.0}

    def test_all_values_finite(self):
        table = random_table(25, 8, seed=31)
        rng = np.random.default_rng(32)
        for _ in range(100):
            k = int(rng.integers(1, 8))
            words = [f"w{int(rng.integers(25)):03d}" for _ in range(k)]
            features = embed_features(
                tokenize(" ".join(words)),
                table,
                Augmentation.S_AND_WS,
                stopwords=frozenset(),
            )
            assert all(np.isfinite(v) for v in features.values())

    def test_none_selection_rejected(self):
        table = random_table(5, 4, seed=33)
        with pytest.raises(ValueError):
            embed_features(
                tokenize("w000 w001"), table, Augmentation.NONE, stopwords=frozenset()
            )

    def test_ws_respects_exponent(self):
        table = EmbeddingTable(
            "two",
            ["left", "right"],
            np.array([[1.0, 0.0], [1.0, 1.0]], dtype=np.float32),
        )
        # The pair sits 3 tokens apart, so WS is S over 3 squared.
        features = embed_features(
            tokenize("left pad pad right"), table, Augmentation.S_AND_WS,
            stopwords=frozenset({"pad"}),
        )
        np.testing.assert_allclose(
            features["emb.ws.max_sim"], features["emb.s.max_sim"] / 9.0, atol=1e-12
        )
