import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_table
from incongruity import similarity, text
from incongruity.embeddings import EmbeddingTable
from incongruity.features import ExperimentConfig, FeatureRegistry
from incongruity.harness import Resources, extract_features
from incongruity.similarity import (
    Augmentation,
    PairwiseScores,
    S_FEATURE_NAMES,
    WS_FEATURE_NAMES,
    pairwise_scores,
    similarity_block,
    unweighted_features,
    weighted_features,
)
from incongruity.text import TokenizedSentence, content_words, tokenize


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
            rows, positions = selected.rows, selected.positions
            for i in range(len(selected)):
                for j in range(len(selected)):
                    if i == j:
                        continue
                    assert pairs.scores[i, j] == pytest.approx(
                        oracles.cosine(rows[i], rows[j]), rel=0, abs=1e-12,
                    )
                    assert pairs.distances[i, j] == oracles.min_distance(
                        positions[i], positions[j]
                    )
        assert checked >= 40

    def test_insufficient_content_raises(self):
        table = random_table(5, 4, seed=5)
        sentence = tokenize("w000 w000 oov")
        with pytest.raises(ValueError, match="at least 2"):
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
        pool = list(table.vocab) + fillers
        sentences = []
        for _ in range(300):
            length = int(rng.integers(2, 14))
            tokens = [pool[int(rng.integers(len(pool)))] for _ in range(length)]
            sentences.append(tokenize(" ".join(tokens)))
        block = similarity_block(sentences, table, stopwords)
        checked = 0
        for sentence, row in zip(sentences, block):
            selected = content_words(sentence, stopwords, table)
            if len(selected) < 2:
                assert not row.any()
                continue
            checked += 1
            s_expected, ws_expected = oracles.brute_force_blocks(
                selected.words, selected.rows, selected.positions
            )
            np.testing.assert_allclose(row[:4], s_expected, atol=1e-9)
            np.testing.assert_allclose(row[4:], ws_expected, atol=1e-9)
        assert checked >= 100


# Rows that stress the cosine: signed zeros (dropped), the smallest float32
# subnormal (kept), equal and opposite rows (clamped at +-1).
_SPECIAL_ROWS = st.sampled_from(["zero", "negative zero", "subnormal", "copy", "negated"])
_CORPUS_WORDS = ("w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7", "paris", "Paris")


@st.composite
def kernel_corpora(draw):
    """A table and a corpus that reach every branch of the block kernel.

    Tokens include repeats, case variants that resolve to one row ("W3" to
    "w3") or to their own ("Paris"), stopwords in either case, punctuation
    and out-of-vocabulary tokens.
    """
    dim = draw(st.integers(1, 6))
    component = st.floats(width=32, allow_nan=False, allow_infinity=False)
    rows = []
    for _ in _CORPUS_WORDS:
        kind = draw(st.one_of(st.just("drawn"), _SPECIAL_ROWS))
        if kind == "drawn" or not rows and kind in ("copy", "negated"):
            rows.append(draw(st.lists(component, min_size=dim, max_size=dim)))
        elif kind == "zero":
            rows.append([0.0] * dim)
        elif kind == "negative zero":
            rows.append([-0.0] * dim)
        elif kind == "subnormal":
            rows.append([0.0] * (dim - 1) + [1e-45])
        else:
            sign = 1.0 if kind == "copy" else -1.0
            rows.append([sign * x for x in draw(st.sampled_from(rows))])
    table = EmbeddingTable("drawn", _CORPUS_WORDS, np.array(rows, dtype=np.float32))
    pool = st.sampled_from(
        [*_CORPUS_WORDS, "W3", "PARIS", "the", "The", "of", "!", "...", "zzz"]
    )
    corpus = draw(st.lists(st.lists(pool, min_size=1, max_size=14), max_size=30))
    sentences = [TokenizedSentence(" ".join(t), tuple(t)) for t in corpus]
    budget = draw(st.sampled_from([1, 300, 3000, text.CHUNK_BYTES]))
    return table, sentences, budget


def blocks_under_budget(budget, sentences, table, stopwords):
    """``similarity_block`` of the whole corpus and of each sentence alone,
    with stacks of at most ``budget`` bytes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(text, "CHUNK_BYTES", budget)
        patch.setattr(similarity, "CHUNK_BYTES", budget)
        whole = similarity_block(sentences, table, stopwords)
        alone = [similarity_block([s], table, stopwords) for s in sentences]
    return whole, np.concatenate([np.zeros((0, 8)), *alone])


class TestCorpusKernel:
    """``similarity_block`` stacks sentences; no row may depend on its stack."""

    @settings(max_examples=200, deadline=None)
    @given(kernel_corpora())
    def test_corpus_equals_one_sentence_at_a_time_bit_for_bit(self, case):
        table, sentences, budget = case
        whole, alone = blocks_under_budget(budget, sentences, table, frozenset({"the", "of"}))
        assert whole.shape == (len(sentences), 8)
        assert whole.tobytes() == alone.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(kernel_corpora())
    def test_rows_are_the_per_sentence_gram_reference_bit_for_bit(self, case):
        table, sentences, budget = case
        stopwords = frozenset({"the", "of"})
        whole, _ = blocks_under_budget(budget, sentences, table, stopwords)
        expected = [oracles.gram_block_row(s.tokens, stopwords, table) for s in sentences]
        assert whole.tobytes() == np.reshape(expected, (len(sentences), 8)).tobytes()

    def test_memory_stays_within_a_few_chunks(self):
        # Ten distinct words per sentence make one stack of 2,000 sentences,
        # whose float64 rows alone would take 2,000 x 10 x 64 x 8 bytes: 10 MB.
        table = random_table(400, 64, seed=40)
        rng = np.random.default_rng(41)
        sentences = [
            tokenize(" ".join(rng.choice(table.vocab, size=10, replace=False)))
            for _ in range(2000)
        ]
        tracemalloc.start()
        try:
            block = similarity_block(sentences, table, frozenset())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block.shape == (2000, 8) and block.any(axis=1).all()
        assert peak < 4 * text.CHUNK_BYTES + block.nbytes


def emb_names(config_text, sentence, table):
    """The S/WS names ``extract_features`` interns for ``config_text``, in order."""
    registry = FeatureRegistry()
    config = ExperimentConfig.parse(config_text, embedding=table.name)
    resources = Resources({table.name: table}, stopwords=frozenset())
    extract_features([sentence], config, resources, registry)
    return tuple(name for name in registry.names if name.startswith("emb."))


class TestEmbedFeatures:
    """The S/WS block: ``similarity_block`` rows and the names a config selects."""

    def test_s_block_has_exactly_four_features(self):
        table = random_table(10, 5, seed=30)
        sentence = tokenize("w000 w001 w002")
        assert emb_names("L+S", sentence, table) == S_FEATURE_NAMES

    def test_combined_block_has_exactly_eight_features(self):
        table = random_table(10, 5, seed=30)
        sentence = tokenize("w000 w001 w002")
        assert similarity_block([sentence], table, frozenset()).shape == (1, 8)
        assert emb_names("L+S+WS", sentence, table) == S_FEATURE_NAMES + WS_FEATURE_NAMES
        assert Augmentation.S_AND_WS.feature_names == S_FEATURE_NAMES + WS_FEATURE_NAMES

    def test_degenerate_sentence_yields_zeros(self):
        table = random_table(10, 5, seed=30)
        sentence = tokenize("the of")
        block = similarity_block([sentence], table, frozenset({"the", "of"}))
        assert block.shape == (1, 8)
        assert not block.any()

    def test_single_content_word_yields_zeros(self):
        table = random_table(10, 5, seed=30)
        sentence = tokenize("w000 w000 oov !")
        assert not similarity_block([sentence], table, frozenset()).any()

    def test_no_candidate_token_gives_empty_rows_and_zeros(self):
        # Stopwords, punctuation and OOV tokens only: no row is gathered.
        table = random_table(10, 5, seed=30)
        sentence = tokenize("The of ! ... zzz-oov")
        selected = content_words(sentence, frozenset({"the", "of"}), table)
        assert len(selected) == 0
        assert selected.rows.shape == (0, table.dimension)
        block = similarity_block([sentence], table, frozenset({"the", "of"}))
        assert block.shape == (1, 8) and not block.any()

    def test_all_values_finite(self):
        table = random_table(25, 8, seed=31)
        rng = np.random.default_rng(32)
        sentences = []
        for _ in range(100):
            k = int(rng.integers(1, 8))
            words = [f"w{int(rng.integers(25)):03d}" for _ in range(k)]
            sentences.append(tokenize(" ".join(words)))
        block = similarity_block(sentences, table, frozenset())
        assert block.shape == (100, 8)
        assert np.isfinite(block).all()

    def test_ws_respects_exponent(self):
        table = EmbeddingTable(
            "two",
            ["left", "right"],
            np.array([[1.0, 0.0], [1.0, 1.0]], dtype=np.float32),
        )
        # The pair sits 3 tokens apart, so WS is S over 3 squared.
        [row] = similarity_block(
            [tokenize("left pad pad right")], table, frozenset({"pad"})
        )
        features = dict(zip(Augmentation.S_AND_WS.feature_names, row))
        np.testing.assert_allclose(
            features["emb.ws.max_sim"], features["emb.s.max_sim"] / 9.0, atol=1e-12
        )
