import os
import sys
import time
import traceback
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import no_children, random_table
from incongruity import _workers, similarity, text
from incongruity.embeddings import EmbeddingTable
from incongruity.features import ExperimentConfig, FeatureRegistry
from incongruity.harness import Resources, extract_features
from incongruity.similarity import (
    Augmentation,
    S_FEATURE_NAMES,
    WS_FEATURE_NAMES,
    similarity_block,
)
from incongruity.text import TokenizedSentence, content_index, token_table, tokenize


def pair_matrices(vectors, positions):
    """``_cosines`` and ``_distances`` of one sentence's content-word types."""
    starts = np.cumsum([0, *map(len, positions[:-1])])
    return (
        similarity._cosines(np.array(vectors)[None])[0],
        similarity._distances(np.concatenate(positions)[None], starts[None])[0],
    )


def s_block(scores):
    """The S block of one (n, n) score matrix, as a tuple."""
    return tuple(similarity._extremes(scores[None])[0].tolist())


def ws_block(scores, distances):
    """The WS block: the same extremes on score / distance**2."""
    return s_block(scores / distances**2)


class TestPairwiseScores:
    def test_symmetric_with_undefined_diagonal(self):
        table = random_table(6, 8, seed=3)
        tokens = tuple(table.vocab[:5])
        _, vectors, positions = oracles.content_words(tokens, frozenset(), table)
        scores, distances = pair_matrices(vectors, positions)
        assert np.isnan(scores.diagonal()).all()
        off = ~np.eye(len(tokens), dtype=bool)
        np.testing.assert_array_equal(scores[off], scores.T[off])
        np.testing.assert_array_equal(distances, distances.T)
        assert (distances[off] >= 1).all()

    def test_distance_uses_minimum_occurrence_gap(self):
        table = random_table(30, 6, seed=4)
        # w000 at positions 0 and 5, w001 at position 3: min gap is 2.
        tokens = ("w000", "w002", "w003", "w001", "w004", "w000")
        words, vectors, positions = oracles.content_words(tokens, frozenset(), table)
        _, distances = pair_matrices(vectors, positions)
        assert distances[words.index("w000"), words.index("w001")] == 2
        # With only those two types, WS is S over 2 squared, exactly.
        tokens = token_table([tokenize("w000 pad pad w001 pad w000")], frozenset({"pad"}))
        [row] = similarity_block(tokens, table)
        assert row[:4].any()
        assert row[4:].tolist() == (row[:4] / 4).tolist()

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
            words, rows, positions = oracles.content_words(tokens, stopwords, table)
            if len(words) < 2:
                continue
            checked += 1
            scores, distances = pair_matrices(rows, positions)
            for i in range(len(words)):
                for j in range(len(words)):
                    if i == j:
                        continue
                    assert scores[i, j] == pytest.approx(
                        oracles.cosine(rows[i], rows[j]), rel=0, abs=1e-12,
                    )
                    assert distances[i, j] == oracles.min_distance(
                        positions[i], positions[j]
                    )
        assert checked >= 40


class TestUnweightedBlock:
    def test_reference_matrix_values(self, table_one):
        _, scores, _ = table_one
        np.testing.assert_allclose(
            s_block(scores), (0.766, 0.078, 0.078, 0.022), atol=1e-9
        )

    def test_reference_matrix_against_oracle(self, table_one):
        # Independent recomputation from the raw pair list.
        words, scores, _ = table_one
        n = len(words)
        best, worst = [], []
        for i in range(n):
            row = [scores[i, j] for j in range(n) if j != i]
            best.append(max(row))
            worst.append(min(row))
        expected = (max(best), min(best), max(worst), min(worst))
        np.testing.assert_allclose(s_block(scores), expected, atol=0)

    def test_two_word_sentence_collapses(self):
        scores = np.array([[np.nan, 0.4], [0.4, np.nan]])
        assert s_block(scores) == (0.4, 0.4, 0.4, 0.4)

    def test_nan_score_propagates(self):
        scores = np.array(
            [[np.nan, np.nan, 0.2], [np.nan, np.nan, 0.5], [0.2, 0.5, np.nan]]
        )
        assert np.isnan(s_block(scores)).all()

    def test_order_permutation_invariance(self):
        table = random_table(8, 10, seed=6)
        rng = np.random.default_rng(7)
        _, vectors, positions = oracles.content_words(table.vocab, frozenset(), table)
        scores, _ = pair_matrices(vectors, positions)
        reference = s_block(scores)
        for _ in range(10):
            perm = rng.permutation(len(vectors))
            np.testing.assert_allclose(
                s_block(scores[np.ix_(perm, perm)]), reference, atol=1e-12
            )

    def test_max_ge_min_invariants(self):
        rng = np.random.default_rng(8)
        for trial in range(50):
            table = random_table(10, 6, seed=100 + trial)
            k = int(rng.integers(2, 10))
            words = list(rng.choice(table.vocab, size=k, replace=False))
            [row] = similarity_block(token_table([tokenize(" ".join(words))], frozenset()), table)
            max_sim, min_sim, max_dissim, min_dissim = row[:4]
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
        np.testing.assert_allclose(
            ws_block(scores, distances), (0.766 / 9,) * 4, atol=1e-9
        )

    def test_adjacent_words_equal_unweighted_exactly(self):
        rng = np.random.default_rng(9)
        n = 5
        raw = rng.uniform(-1, 1, size=(n, n))
        scores = (raw + raw.T) / 2
        np.fill_diagonal(scores, np.nan)
        distances = np.ones((n, n), dtype=np.int64)
        np.fill_diagonal(distances, 0)
        assert ws_block(scores, distances) == s_block(scores)

    def test_reference_matrix_against_oracle(self, table_one):
        words, scores, distances = table_one
        n = len(words)
        weighted = scores / distances.astype(float) ** 2
        best, worst = [], []
        for i in range(n):
            row = [weighted[i, j] for j in range(n) if j != i]
            best.append(max(row))
            worst.append(min(row))
        expected = (max(best), min(best), max(worst), min(worst))
        np.testing.assert_allclose(ws_block(scores, distances), expected, atol=1e-12)


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
        block = similarity_block(token_table(sentences, stopwords), table)
        checked = 0
        for sentence, row in zip(sentences, block):
            words, vectors, positions = oracles.content_words(
                sentence.tokens, stopwords, table
            )
            if len(words) < 2:
                assert not row.any()
                continue
            checked += 1
            s_expected, ws_expected = oracles.brute_force_blocks(words, vectors, positions)
            np.testing.assert_allclose(row[:4], s_expected, atol=1e-9)
            np.testing.assert_allclose(row[4:], ws_expected, atol=1e-9)
        assert checked >= 100


# Rows that stress the cosine: signed zeros (dropped), the smallest float32
# subnormal (kept), equal and opposite rows (clamped at +-1).
_SPECIAL_ROWS = st.sampled_from(["zero", "negative zero", "subnormal", "copy", "negated"])
_CORPUS_WORDS = ("w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7", "paris", "Paris", "the")


@st.composite
def kernel_corpora(draw):
    """A table and a corpus that reach every branch of the block kernel.

    Tokens include repeats, case variants that resolve to one row ("W3" to
    "w3") or to their own ("Paris"), stopwords in either case (the table
    holds "the"), punctuation and out-of-vocabulary tokens.
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
        whole = similarity_block(token_table(sentences, stopwords), table)
        alone = [similarity_block(token_table([s], stopwords), table) for s in sentences]
    return whole, np.concatenate([np.zeros((0, 8)), *alone])


class TestCorpusKernel:
    """``content_index`` and ``similarity_block`` take a corpus at a time; no
    sentence's selection or row may depend on the others."""

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

    @settings(max_examples=200, deadline=None)
    @given(kernel_corpora())
    def test_content_index_is_the_oracle_selection_sentence_by_sentence(self, case):
        table, sentences, budget = case
        stopwords = frozenset({"the", "of"})
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(text, "CHUNK_BYTES", budget)
            index = content_index(token_table(sentences, stopwords), table)
        assert len(index.type_ptr) == len(sentences) + 1
        ptr = index.position_ptr.tolist()
        for s, sentence in enumerate(sentences):
            words, _, positions = oracles.content_words(sentence.tokens, stopwords, table)
            types = range(index.type_ptr[s], index.type_ptr[s + 1])
            assert [table.vocab[index.rows[t]] for t in types] == words
            assert [index.positions[ptr[t] : ptr[t + 1]].tolist() for t in types] == positions

    def test_memory_stays_within_a_few_chunks(self):
        assert_memory_within_a_few_chunks()


def assert_memory_within_a_few_chunks():
    """The traced peak of this process while it computes a block is a few
    chunks plus the block."""
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
        block = similarity_block(token_table(sentences, frozenset()), table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.shape == (2000, 8) and block.any(axis=1).all()
    assert peak < 4 * text.CHUNK_BYTES + block.nbytes


def random_corpus(table, sentences, seed):
    """``sentences`` sentences of 2 to 12 words of ``table``, with repeats,
    stopwords and punctuation: stacks of many shapes."""
    rng = np.random.default_rng(seed)
    pool = [*table.vocab, "the", "of", "!", "oov"]
    return [
        tokenize(" ".join(rng.choice(pool, size=int(rng.integers(2, 13)))))
        for _ in range(sentences)
    ]


@pytest.mark.skipif(sys.platform != "linux", reason="the block is forked on Linux only")
class TestBlockPool:
    """The block's chunks are shared out over the usable CPUs, here with no
    minimum cost; every process count gives the bytes of one process, and no
    process is left behind."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """Forces no minimum, and records each block pool's worker count and
        whether it gave a result."""
        records = []

        def spy(jobs, receive):
            result = run_forked(jobs, receive)
            records.append((len(jobs), result is not None))
            return result

        run_forked = _workers.run_forked
        monkeypatch.setattr(_workers, "run_forked", spy)
        monkeypatch.setattr(similarity, "_BLOCK_MIN_COST", 1)
        return records

    @staticmethod
    def block(tokens, table, processes):
        with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(processes))):
            return similarity_block(tokens, table)

    @staticmethod
    def case():
        table = random_table(30, 8, seed=50)
        return token_table(random_corpus(table, 300, seed=51), frozenset({"the", "of"})), table

    @settings(max_examples=40, deadline=None)
    @given(kernel_corpora())
    def test_process_count_changes_no_byte(self, case):
        table, sentences, budget = case
        tokens = token_table(sentences, frozenset({"the", "of"}))
        with (
            mock.patch.object(similarity, "CHUNK_BYTES", budget),
            mock.patch.object(similarity, "_BLOCK_MIN_COST", 1),
        ):
            alone = self.block(tokens, table, 1).tobytes()
            for processes in (2, 3):
                assert self.block(tokens, table, processes).tobytes() == alone, processes
        assert no_children()

    def test_every_process_takes_a_share(self, pools):
        tokens, table = self.case()
        alone = self.block(tokens, table, 1).tobytes()
        for processes in (2, 3):
            assert self.block(tokens, table, processes).tobytes() == alone
        assert pools == [(1, True), (2, True)]
        assert no_children()

    def test_extracted_vectors_do_not_depend_on_the_pool(self, pools):
        table = random_table(30, 8, seed=52)
        sentences = random_corpus(table, 300, seed=53)
        resources = Resources({table.name: table}, stopwords=frozenset({"the", "of"}))
        extracted = []
        for processes in (1, 2, 3):
            registry = FeatureRegistry()
            with mock.patch.object(
                os, "sched_getaffinity", lambda pid: set(range(processes))
            ):
                vectors = extract_features(
                    sentences, ExperimentConfig.parse("J+S+WS", table.name), resources, registry
                )
            extracted.append((
                registry.names,
                [tuple(a.tobytes() for a in vector.as_arrays()) for vector in vectors],
            ))
        assert extracted[1] == extracted[0] and extracted[2] == extracted[0]
        assert pools == [(1, True), (2, True)]
        assert no_children()

    def test_refused_fork_computes_in_process(self, pools, monkeypatch):
        tokens, table = self.case()
        alone = self.block(tokens, table, 1).tobytes()

        def refused():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refused)
        assert self.block(tokens, table, 2).tobytes() == alone
        assert pools == [(1, False)]

    @pytest.mark.parametrize("processes", [2, 3])
    def test_a_worker_that_fails_is_computed_in_process_once(
        self, pools, monkeypatch, processes
    ):
        tokens, table = self.case()
        alone = self.block(tokens, table, 1).tobytes()
        parent = os.getpid()
        computed = []

        def crashing(index, table, chunk):
            if os.getpid() != parent:
                raise ZeroDivisionError  # a bug: the worker exits 1
            computed.append(chunk.members)
            return chunk_rows(index, table, chunk)

        chunk_rows = similarity._chunk_rows
        monkeypatch.setattr(similarity, "_chunk_rows", crashing)
        assert self.block(tokens, table, processes).tobytes() == alone
        assert pools == [(processes - 1, False)]
        # This process computes each chunk once: its own share, then the
        # workers'.
        index = content_index(tokens, table)
        chunks = similarity._chunks(index, table.dimension)
        assert len(computed) == len(chunks)
        assert np.concatenate(computed).tobytes() == similarity._members(chunks).tobytes()
        assert no_children()

    def test_warning_in_a_workers_chunk_is_raised_as_in_one_process(
        self, pools, monkeypatch
    ):
        tokens, table = self.case()
        chunks = similarity._chunks(content_index(tokens, table), table.dimension)
        last = chunks[-1].members.tobytes()

        def warning(index, table, chunk):
            if chunk.members.tobytes() == last:  # a worker's at 2 processes
                np.float64(1.0) / np.float64(0.0)
            return chunk_rows(index, table, chunk)

        chunk_rows = similarity._chunk_rows
        monkeypatch.setattr(similarity, "_chunk_rows", warning)
        raised = []
        for processes in (1, 2):
            with (
                warnings.catch_warnings(),
                pytest.raises(RuntimeWarning, match="divide by zero") as error,
            ):
                warnings.simplefilter("error", RuntimeWarning)
                self.block(tokens, table, processes)
            raised.append(traceback.extract_tb(error.value.__traceback__))
        assert raised[1] == raised[0]
        assert pools == [(1, False)]
        assert no_children()

    def test_interrupt_kills_the_running_workers(self, pools, monkeypatch):
        tokens, table = self.case()
        parent = os.getpid()

        def interrupted(index, table, chunk):
            if os.getpid() != parent:
                time.sleep(60)  # still computing when the parent is interrupted
            raise KeyboardInterrupt

        monkeypatch.setattr(similarity, "_chunk_rows", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            self.block(tokens, table, 3)
        assert time.monotonic() - start < 30
        assert pools == []
        assert no_children()

    def test_memory_stays_within_a_few_chunks(self, pools, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert_memory_within_a_few_chunks()
        assert pools == [(1, True)]
        assert no_children()


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
        assert similarity_block(token_table([sentence], frozenset()), table).shape == (1, 8)
        assert emb_names("L+S+WS", sentence, table) == S_FEATURE_NAMES + WS_FEATURE_NAMES
        assert Augmentation.S_AND_WS.feature_names == S_FEATURE_NAMES + WS_FEATURE_NAMES

    def test_degenerate_sentence_yields_zeros(self):
        table = random_table(10, 5, seed=30)
        sentence = tokenize("the of")
        block = similarity_block(token_table([sentence], frozenset({"the", "of"})), table)
        assert block.shape == (1, 8)
        assert not block.any()

    def test_single_content_word_yields_zeros(self):
        table = random_table(10, 5, seed=30)
        sentence = tokenize("w000 w000 oov !")
        assert not similarity_block(token_table([sentence], frozenset()), table).any()

    def test_no_candidate_token_gives_empty_rows_and_zeros(self):
        # Stopwords, punctuation and OOV tokens only: no row is gathered.
        table = random_table(10, 5, seed=30)
        sentence = tokenize("The of ! ... zzz-oov")
        index = content_index(token_table([sentence], frozenset({"the", "of"})), table)
        assert index.type_ptr.tolist() == [0, 0]
        assert len(index.rows) == len(index.positions) == 0
        block = similarity_block(token_table([sentence], frozenset({"the", "of"})), table)
        assert block.shape == (1, 8) and not block.any()

    def test_all_values_finite(self):
        table = random_table(25, 8, seed=31)
        rng = np.random.default_rng(32)
        sentences = []
        for _ in range(100):
            k = int(rng.integers(1, 8))
            words = [f"w{int(rng.integers(25)):03d}" for _ in range(k)]
            sentences.append(tokenize(" ".join(words)))
        block = similarity_block(token_table(sentences, frozenset()), table)
        assert block.shape == (100, 8)
        assert np.isfinite(block).all()

    def test_ws_respects_exponent(self):
        table = EmbeddingTable(
            "two",
            ["left", "right"],
            np.array([[1.0, 0.0], [1.0, 1.0]], dtype=np.float32),
        )
        # The pair sits 3 tokens apart, so WS is S over 3 squared.
        tokens = token_table([tokenize("left pad pad right")], frozenset({"pad"}))
        [row] = similarity_block(tokens, table)
        features = dict(zip(Augmentation.S_AND_WS.feature_names, row))
        np.testing.assert_allclose(
            features["emb.ws.max_sim"], features["emb.s.max_sim"] / 9.0, atol=1e-12
        )
