import unicodedata

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from incongruity.embeddings import EmbeddingTable
from incongruity.text import (
    EmptySentenceError,
    content_words,
    default_stopwords,
    is_punctuation,
    load_stopwords,
    resolve_vocab_word,
    tokenize,
)


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("a woman needs").tokens == ("a", "woman", "needs")

    def test_trailing_punctuation_detached(self):
        assert tokenize("Great.").tokens == ("Great", ".")

    def test_punctuation_run_stays_one_token(self):
        assert tokenize("Wow!!!").tokens == ("Wow", "!!!")

    def test_leading_and_trailing_runs(self):
        assert tokenize('"Great!"').tokens == ('"', "Great", '!"')

    def test_pure_punctuation_chunk(self):
        assert tokenize("well ... fine").tokens == ("well", "...", "fine")

    def test_internal_punctuation_kept(self):
        assert tokenize("don't stop").tokens == ("don't", "stop")

    def test_eleven_token_reference_sentence(self):
        sentence = tokenize("A woman needs a man like a fish needs a bicycle")
        assert len(sentence.tokens) == 11
        assert sentence.tokens[1] == "woman"
        assert sentence.tokens[4] == "man"

    def test_empty_input_raises(self):
        with pytest.raises(EmptySentenceError):
            tokenize("   ")

    @given(st.text())
    def test_tokens_partition_the_non_space_text(self, text):
        assume(text.strip())
        tokens = tokenize(text).tokens
        assert all(token and not any(ch.isspace() for ch in token) for token in tokens)
        normalized = unicodedata.normalize("NFC", text)
        assert "".join(tokens) == "".join(normalized.split())

    def test_is_punctuation(self):
        assert is_punctuation("!!!")
        assert is_punctuation("...")
        assert is_punctuation('"')
        assert not is_punctuation("word")
        assert not is_punctuation("don't")


class TestStopwords:
    def test_file_parsing_with_comments(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nthe\nA  # inline\n\nof\n", encoding="utf-8")
        words = load_stopwords(path)
        assert words == frozenset({"the", "a", "of"})

    def test_default_list_contents(self):
        words = default_stopwords()
        assert 100 <= len(words) <= 250
        assert "a" in words and "like" in words and "the" in words
        assert "needs" not in words

    def test_membership_is_case_folded(self):
        words = default_stopwords()
        assert "A".casefold() in words


def small_table():
    return EmbeddingTable(
        "small",
        ["woman", "needs", "man", "fish", "bicycle", "Paris", "zero"],
        np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [1.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                [1.0, 0.0, 1.0],
                [2.0, 2.0, 2.0],
                [0.0, 0.0, 0.0],
            ],
            dtype=np.float32,
        ),
    )


class TestCasingPolicy:
    def test_exact_then_lowercase(self):
        table = small_table()
        assert resolve_vocab_word(table, "Paris") == "Paris"
        assert resolve_vocab_word(table, "Man") == "man"
        assert resolve_vocab_word(table, "unknown") is None


class TestContentWords:
    def test_reference_sentence(self):
        sentence = tokenize("A woman needs a man like a fish needs a bicycle")
        stopwords = frozenset({"a", "like"})
        result = content_words(sentence, stopwords, small_table())
        assert result.words == ("woman", "needs", "man", "fish", "bicycle")

    def test_duplicate_type_merges_positions(self):
        sentence = tokenize("A woman needs a man like a fish needs a bicycle")
        result = content_words(sentence, frozenset({"a", "like"}), small_table())
        by_word = {entry.word: entry for entry in result.entries}
        assert by_word["needs"].positions == (2, 8)
        assert by_word["man"].positions == (4,)

    def test_punctuation_dropped_but_keeps_distance(self):
        sentence = tokenize("man , fish")
        result = content_words(sentence, frozenset(), small_table())
        assert result.words == ("man", "fish")
        by_word = {entry.word: entry for entry in result.entries}
        assert by_word["fish"].positions == (2,)

    def test_out_of_vocab_dropped(self):
        sentence = tokenize("man rides xylophone")
        result = content_words(sentence, frozenset(), small_table())
        assert result.words == ("man",)

    def test_stopword_test_is_case_folded(self):
        sentence = tokenize("The man")
        result = content_words(sentence, frozenset({"the"}), small_table())
        assert result.words == ("man",)

    def test_zero_norm_vectors_skipped(self):
        sentence = tokenize("man zero fish")
        result = content_words(sentence, frozenset(), small_table())
        assert result.words == ("man", "fish")

    def test_case_fallback_merges_types(self):
        sentence = tokenize("Man man")
        result = content_words(sentence, frozenset(), small_table())
        assert result.words == ("man",)
        assert result.entries[0].positions == (0, 1)

    def test_vectors_match_table(self):
        table = small_table()
        sentence = tokenize("man fish")
        result = content_words(sentence, frozenset(), table)
        np.testing.assert_array_equal(result.entries[0].vector, table.vector("man"))

    def test_type_level_idempotence(self):
        # Re-extracting from a sentence rebuilt out of the selected words
        # returns the same types with the same vectors.
        table = small_table()
        sentence = tokenize("A woman needs a man like a fish needs a bicycle")
        first = content_words(sentence, frozenset({"a", "like"}), table)
        rebuilt = tokenize(" ".join(first.words))
        second = content_words(rebuilt, frozenset({"a", "like"}), table)
        assert first.words == second.words
        for one, two in zip(first.entries, second.entries):
            np.testing.assert_array_equal(one.vector, two.vector)

