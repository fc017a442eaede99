import re
import sys
import tracemalloc
import unicodedata

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from conftest import oracle_sentence
from incongruity.embeddings import EmbeddingTable
from incongruity.errors import InputError
from incongruity.text import (
    content_index,
    default_stopwords,
    is_punctuation,
    load_stopwords,
    token_table,
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
        with pytest.raises(InputError, match="^no tokens in input '   '$"):
            tokenize("   ")

    @given(st.text())
    def test_tokens_partition_the_non_space_text(self, text):
        assume(text.strip())
        tokens = tokenize(text).tokens
        assert all(token and not any(ch.isspace() for ch in token) for token in tokens)
        normalized = unicodedata.normalize("NFC", text)
        assert "".join(tokens) == "".join(normalized.split())

    @given(st.one_of(st.text(), oracle_sentence))
    def test_matches_per_sentence_oracle(self, text):
        assume(text.strip())
        assert tokenize(text).tokens == oracles.tokenize(text)

    def test_no_alphanumeric_character_is_punctuation_or_symbol(self):
        # tokenize keeps a chunk for which isalnum() holds whole, without
        # looking for punctuation runs at its ends.  That is only right
        # while this interpreter's Unicode tables give no character both.
        clashes = [
            hex(code)
            for code in range(sys.maxunicode + 1)
            if chr(code).isalnum() and unicodedata.category(chr(code))[0] in "PS"
        ]
        assert clashes == []

    def test_is_punctuation(self):
        assert is_punctuation("!!!")
        assert is_punctuation("...")
        assert is_punctuation('"')
        assert not is_punctuation("word")
        assert not is_punctuation("don't")

    @given(st.text(max_size=6))
    def test_is_punctuation_is_every_character_punctuation_or_symbol(self, token):
        expected = bool(token) and all(unicodedata.category(ch)[0] in "PS" for ch in token)
        assert is_punctuation(token) == expected


class TestStopwords:
    def test_file_parsing_with_comments(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nthe\nA  # inline\n\nof\n", encoding="utf-8")
        words = load_stopwords(path)
        assert words == frozenset({"the", "a", "of"})

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_bytes(b"\xef\xbb\xbfthe\nand\n")
        assert load_stopwords(path) == frozenset({"the", "and"})

    @pytest.mark.parametrize("entry", [b"of course", b"and\rof"])
    def test_entry_holding_whitespace_names_line(self, tmp_path, entry):
        # No token holds whitespace, so no token could match the entry.
        path = tmp_path / "stop.txt"
        path.write_bytes(b"the\n" + entry + b"  # comment\n")
        message = f"stop.txt: line 2: {entry.decode()!r} holds whitespace"
        with pytest.raises(InputError, match=re.escape(message) + "$"):
            load_stopwords(path)

    def test_non_utf8_file_names_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_bytes(b"the\n\xff\n")
        with pytest.raises(InputError, match="stop.txt: line 2: not valid UTF-8$") as info:
            load_stopwords(path)
        assert isinstance(info.value.__cause__, UnicodeDecodeError)

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
        ["woman", "needs", "man", "fish", "bicycle", "Paris", "zero", "negzero", "tiny"],
        np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [1.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                [1.0, 0.0, 1.0],
                [2.0, 2.0, 2.0],
                [0.0, 0.0, 0.0],
                [-0.0, -0.0, -0.0],
                [0.0, 0.0, 1e-45],  # the smallest float32 subnormal
            ],
            dtype=np.float32,
        ),
    )


def content_of(text, stopwords, table):
    """One sentence's ``content_index`` types as {word: token positions},
    in first-occurrence order."""
    index = content_index(token_table([tokenize(text)], stopwords), table)
    ptr = index.position_ptr.tolist()
    return {
        table.vocab[row]: tuple(index.positions[a:b].tolist())
        for row, a, b in zip(index.rows.tolist(), ptr, ptr[1:])
    }


class TestCasingPolicy:
    def test_exact_then_lowercase(self):
        table = small_table()
        assert tuple(content_of("Paris Man unknown", frozenset(), table)) == ("Paris", "man")


class TestContentWords:
    def test_reference_sentence(self):
        text = "A woman needs a man like a fish needs a bicycle"
        result = content_of(text, frozenset({"a", "like"}), small_table())
        assert tuple(result) == ("woman", "needs", "man", "fish", "bicycle")

    def test_duplicate_type_merges_positions(self):
        text = "A woman needs a man like a fish needs a bicycle"
        by_word = content_of(text, frozenset({"a", "like"}), small_table())
        assert by_word["needs"] == (2, 8)
        assert by_word["man"] == (4,)

    def test_punctuation_dropped_but_keeps_distance(self):
        by_word = content_of("man , fish", frozenset(), small_table())
        assert tuple(by_word) == ("man", "fish")
        assert by_word["fish"] == (2,)

    def test_out_of_vocab_dropped(self):
        result = content_of("man rides xylophone", frozenset(), small_table())
        assert tuple(result) == ("man",)

    def test_stopword_test_is_case_folded(self):
        # "The" would resolve to the table's "the" row.
        table = EmbeddingTable("t", ["the", "man"], np.eye(2, dtype=np.float32))
        assert tuple(content_of("The man", frozenset({"the"}), table)) == ("man",)

    def test_zero_norm_vectors_skipped(self):
        # A row of -0.0 is zero; a row holding one subnormal is not.
        table = small_table()
        tokens = token_table([tokenize("man zero fish negzero tiny")], frozenset())
        index = content_index(tokens, table)
        assert index.type_ptr.tolist() == [0, 3]
        assert index.rows.tolist() == table.rows_of(["man", "fish", "tiny"]).tolist()
        assert index.position_ptr.tolist() == [0, 1, 2, 3]
        assert index.positions.tolist() == [0, 2, 4]

    def test_selection_allocates_no_table_sized_temporary(self):
        rng = np.random.default_rng(0)
        vocab = [f"w{i}" for i in range(20_000)]
        table = EmbeddingTable(
            "large", vocab, rng.standard_normal((20_000, 50)).astype(np.float32)
        )
        sentence = tokenize("w1 w2 the w3 w19999 w1 missing")
        tracemalloc.start()
        try:
            index = content_index(token_table([sentence], frozenset({"the"})), table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert index.rows.tolist() == [1, 2, 3, 19999]
        assert peak < table.vectors.nbytes / 100

    def test_case_fallback_merges_types(self):
        assert content_of("Man man", frozenset(), small_table()) == {"man": (0, 1)}

    def test_vectors_match_table(self):
        table = small_table()
        index = content_index(token_table([tokenize("man fish")], frozenset()), table)
        assert index.rows.dtype == np.int64
        np.testing.assert_array_equal(table.vectors[index.rows[0]], table.vector("man"))
        np.testing.assert_array_equal(table.vectors[index.rows[1]], table.vector("fish"))

    def test_type_level_idempotence(self):
        # Re-extracting from a sentence rebuilt out of the selected words
        # returns the same types at the same rows.
        table = small_table()
        stopwords = frozenset({"a", "like"})
        text = "A woman needs a man like a fish needs a bicycle"
        first = content_index(token_table([tokenize(text)], stopwords), table)
        rebuilt = " ".join(table.vocab[row] for row in first.rows.tolist())
        second = content_index(token_table([tokenize(rebuilt)], stopwords), table)
        np.testing.assert_array_equal(first.rows, second.rows)

    def test_corpus_index_is_the_one_sentence_views_in_order(self):
        table = small_table()
        stopwords = frozenset({"a", "like", "the"})
        texts = [
            "A woman needs a man like a fish needs a bicycle",
            "the !",
            "Man man ,",
            "zero tiny Paris man",
        ]
        sentences = [tokenize(t) for t in texts]
        index = content_index(token_table(sentences, stopwords), table)
        views = [oracles.content_words(s.tokens, stopwords, table) for s in sentences]
        assert np.diff(index.type_ptr).tolist() == [len(words) for words, _, _ in views]
        assert [table.vocab[r] for r in index.rows.tolist()] == [
            w for words, _, _ in views for w in words
        ]
        ptr = index.position_ptr.tolist()
        assert [index.positions[a:b].tolist() for a, b in zip(ptr, ptr[1:])] == [
            p for _, _, positions in views for p in positions
        ]
