import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from incongruity.embeddings import (
    EmbeddingFormatError,
    EmbeddingTable,
    EmptyIntersectionError,
    intersect_vocabularies,
    load_embeddings,
    save_text_vectors,
)
from incongruity.similarity import similarity_block
from incongruity.text import content_index, token_table, tokenize


def write_binary(path, records, header=None, trailing_newlines=False, extra=b""):
    """records: list of (word, list-of-floats)."""
    dim = len(records[0][1])
    header = header if header is not None else f"{len(records)} {dim}\n".encode()
    blob = header
    for word, values in records:
        blob += word.encode("utf-8") + b" "
        blob += struct.pack(f"<{len(values)}f", *values)
        if trailing_newlines:
            blob += b"\n"
    blob += extra
    path.write_bytes(blob)
    return path


class TestTextLoader:
    def test_basic_rows(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("alpha 1.0 0.0\nbeta 0.0 2.5\n", encoding="utf-8")
        table = load_embeddings(path, "text_vectors")
        assert table.name == "vecs"
        assert table.vocab == ("alpha", "beta")
        assert table.dimension == 2
        np.testing.assert_array_equal(table.vector("beta"), np.array([0.0, 2.5], dtype=np.float32))

    @pytest.mark.parametrize("header", [b"", b"2 2\n"], ids=["headerless", "header"])
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, header):
        path = tmp_path / "vecs.txt"
        path.write_bytes(b"\xef\xbb\xbf" + header + b"alpha 1.0 0.0\nbeta 0.0 2.5\n")
        assert load_embeddings(path, "text_vectors").vocab == ("alpha", "beta")

    def test_header_line_auto_detected(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\na 1 2 3\nb 4 5 6\n", encoding="utf-8")
        table = load_embeddings(path, "text_vectors")
        assert len(table) == 2 and table.dimension == 3

    def test_header_count_mismatch(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("3 2\na 1 2\nb 3 4\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="declares 3"):
            load_embeddings(path, "text_vectors")

    def test_wrong_component_count_names_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0 0.0\nb 0.0 1.0\nc 1.0\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="line 3"):
            load_embeddings(path, "text_vectors")

    def test_non_numeric_component_names_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0 0.0\nb 0.0 x\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            load_embeddings(path, "text_vectors")

    @pytest.mark.parametrize("component", ["nan", "inf"])
    def test_non_finite_component_names_line(self, tmp_path, component):
        path = tmp_path / "vecs.txt"
        path.write_text(f"good 1.0 0.0\nbad {component} 1.0\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="line 2: non-finite"):
            load_embeddings(path, "text_vectors")

    def test_duplicate_word_names_word(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0\nb 2.0\na 3.0\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="'a'"):
            load_embeddings(path, "text_vectors")

    def test_vocab_order_matches_file(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("zeta 1\nalpha 2\nmid 3\n", encoding="utf-8")
        table = load_embeddings(path, "text_vectors")
        assert table.vocab == ("zeta", "alpha", "mid")

    def test_words_nfc_normalized(self, tmp_path):
        # e + combining acute (NFD) must match the composed form after load.
        path = tmp_path / "vecs.txt"
        path.write_text("café 1 2\n", encoding="utf-8")
        table = load_embeddings(path, "text_vectors")
        assert "café" in table

    def test_casing_not_folded_by_store(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("Paris 1 0\nparis 0 1\n", encoding="utf-8")
        table = load_embeddings(path, "text_vectors")
        assert "Paris" in table and "paris" in table
        assert not np.array_equal(table.vector("Paris"), table.vector("paris"))

    @given(
        st.floats(
            min_value=-float(np.finfo(np.float32).max),
            max_value=float(np.finfo(np.float32).max),
        ),
        st.sampled_from([repr, "{:.6f}".format, "{:.17e}".format]),
    )
    def test_component_parses_as_float32_of_its_float(self, x, render):
        component = render(x)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "vecs.txt"
            path.write_text(f"w {component}\n", encoding="utf-8")
            table = load_embeddings(path, "text_vectors")
        expected = np.float32(float(component))
        assert table.vector("w").tobytes() == expected.tobytes()


def _float32_midpoint(x):
    """The float64 halfway between float32(x) and the next float32 up."""
    low = np.float32(x)
    high = np.nextafter(low, np.float32(np.inf))
    return (float(low) + float(high)) / 2


_FLOAT32_MAX = float(np.finfo(np.float32).max)
# The largest float32 has no next float32 up, so midpoints start below it.
_BELOW_FLOAT32_MAX = float(np.nextafter(np.float32(_FLOAT32_MAX), np.float32(0)))
_components = st.one_of(
    st.floats(min_value=-_FLOAT32_MAX, max_value=_FLOAT32_MAX),
    st.floats(width=32, min_value=-_FLOAT32_MAX, max_value=_BELOW_FLOAT32_MAX).map(
        _float32_midpoint
    ),
)
_renders = st.sampled_from([repr, "{:.6f}".format, "{:.17e}".format])
_separators = st.sampled_from([" ", "\t", "   ", " \t ", "\t\t"])


@st.composite
def text_tables(draw):
    """A text table file with varied layout and its expected rows."""
    dim = draw(st.integers(1, 5))
    name = st.from_regex(r"[a-z]{1,6}", fullmatch=True)
    words = draw(st.lists(name, min_size=1, max_size=40, unique=True))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    blank = st.sampled_from(["", "  ", "\t"])
    lines = []
    if draw(st.booleans()):
        lines.append(f"{len(words)} {dim}")
    rows = []
    for word in words:
        lines.extend(draw(st.lists(blank, max_size=2)))
        render = draw(_renders)
        values = draw(st.lists(_components, min_size=dim, max_size=dim))
        components = [render(x) for x in values]
        line = draw(st.sampled_from(["", " ", "\t"]))
        for field in [word, *components]:
            line += field + draw(_separators)
        lines.append(line)
        rows.append(components)
    return newline.join(lines) + newline, words, rows


class TestStreamedTextLoader:
    @given(text_tables())
    def test_matches_per_line_float32_of_float(self, case):
        content, words, rows = case
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "vecs.txt"
            path.write_text(content, encoding="utf-8", newline="")
            table = load_embeddings(path, "text_vectors")
        expected = np.array(
            [[np.float32(float(c)) for c in row] for row in rows], dtype=np.float32
        )
        assert table.vocab == tuple(words)
        assert table.vectors.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1.0", "expected 2 components, found 1"),
            ("1.0 2.0 3.0", "expected 2 components, found 3"),
            ("1.0 x", "non-numeric vector component"),
            ("nan 1.0", "non-finite vector component"),
            ("1.0 -inf", "non-finite vector component"),
        ],
    )
    def test_error_names_file_line_not_row_index(self, tmp_path, row, message):
        # Header and blank lines first: the bad row is row 2 but line 6.
        path = tmp_path / "vecs.txt"
        path.write_text(f"2 2\n\n   \na 1 2\n\nb {row}\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match=f"vecs.txt: line 6: {message}$"):
            load_embeddings(path, "text_vectors")

    @pytest.mark.parametrize(
        "bad, message",
        [("x", "non-numeric vector component"), ("inf", "non-finite vector component")],
    )
    def test_error_past_sixty_thousand_rows_names_line(self, tmp_path, bad, message):
        lines = ["60100 1", ""] + [f"w{i} {i}.25" for i in range(60_100)]
        lines[60_012] = f"bad {bad}"
        path = tmp_path / "vecs.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match=f"line 60013: {message}$"):
            load_embeddings(path, "text_vectors")

    def test_first_bad_line_in_file_order_is_named(self, tmp_path):
        # A non-finite row comes before a row the bulk parse rejects.
        path = tmp_path / "vecs.txt"
        path.write_text("a 1 2\nb nan 1\nc 1 x\nc 1 2\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="line 2: non-finite"):
            load_embeddings(path, "text_vectors")

    def test_bad_components_on_a_repeated_word_are_named_first(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1 2\na 3\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="line 2: expected 2 components, found 1"):
            load_embeddings(path, "text_vectors")

    def test_word_without_components_after_rows_names_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1 2\n\nb\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="line 3: expected 2 components, found 0"):
            load_embeddings(path, "text_vectors")

    @pytest.mark.parametrize("component", ["1_0", "١٢", "１"])
    def test_non_ascii_decimal_rejected_naming_line(self, tmp_path, component):
        path = tmp_path / "vecs.txt"
        path.write_text(f"a 1.0\nb {component}\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="line 2: non-numeric vector component"):
            load_embeddings(path, "text_vectors")

    def test_non_ascii_digit_header_rejected_naming_file(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("² 2\na 1 2\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="vecs.txt: line 1: malformed header"):
            load_embeddings(path, "text_vectors")

    @pytest.mark.parametrize("header", ["1 0", "0 2"])
    def test_non_positive_header_rejected_naming_file(self, tmp_path, header):
        path = tmp_path / "vecs.txt"
        path.write_text(f"{header}\na\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="vecs.txt: line 1: non-positive"):
            load_embeddings(path, "text_vectors")

    def test_header_dimension_checked_against_every_row(self, tmp_path):
        # Every row agrees with the others, so only the header disagrees.
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\n\na 1 2\nb 3 4\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="line 3: expected 3 components, found 2"):
            load_embeddings(path, "text_vectors")

    def test_header_without_rows_rejected(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("3 2\n\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="no vector rows"):
            load_embeddings(path, "text_vectors")

    @pytest.mark.parametrize("rows_before", [1, 20_000])
    def test_non_utf8_file_names_file(self, tmp_path, rows_before):
        # 20,000 rows put the bad byte past the first read buffer, inside
        # the bulk parse.
        path = tmp_path / "vecs.txt"
        good = "".join(f"w{i} {i}.5\n" for i in range(rows_before))
        path.write_bytes(good.encode("utf-8") + b"\xff 2\n")
        message = f"vecs.txt: line {rows_before + 1}: not valid UTF-8$"
        with pytest.raises(EmbeddingFormatError, match=message) as info:
            load_embeddings(path, "text_vectors")
        assert isinstance(info.value.__cause__, UnicodeDecodeError)


class TestBinaryLoader:
    def test_without_record_newlines(self, tmp_path):
        path = write_binary(
            tmp_path / "vecs.bin",
            [("alpha", [1.0, 2.0]), ("beta", [3.0, 4.0])],
        )
        table = load_embeddings(path, "binary_w2v")
        assert table.vocab == ("alpha", "beta")
        np.testing.assert_allclose(table.vector("beta"), [3.0, 4.0])

    def test_with_record_newlines(self, tmp_path):
        path = write_binary(
            tmp_path / "vecs.bin",
            [("alpha", [1.0, 2.0]), ("beta", [3.0, 4.0])],
            trailing_newlines=True,
        )
        table = load_embeddings(path, "binary_w2v")
        assert table.vocab == ("alpha", "beta")
        np.testing.assert_allclose(table.vector("alpha"), [1.0, 2.0])

    def test_float32_values_preserved_exactly(self, tmp_path):
        values = [0.1, -1 / 3]
        path = write_binary(tmp_path / "vecs.bin", [("w", values)])
        table = load_embeddings(path, "binary_w2v")
        np.testing.assert_array_equal(
            table.vector("w"), np.array(values, dtype=np.float32)
        )

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "vecs.bin"
        path.write_bytes(b"two 3\nxxxx")
        with pytest.raises(EmbeddingFormatError, match="header"):
            load_embeddings(path, "binary_w2v")

    def test_truncated_record(self, tmp_path):
        path = write_binary(tmp_path / "vecs.bin", [("alpha", [1.0, 2.0])])
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(EmbeddingFormatError, match="truncated"):
            load_embeddings(path, "binary_w2v")

    def test_duplicate_word(self, tmp_path):
        path = write_binary(
            tmp_path / "vecs.bin", [("dup", [1.0]), ("dup", [2.0])]
        )
        with pytest.raises(EmbeddingFormatError, match="'dup'"):
            load_embeddings(path, "binary_w2v")

    def test_non_finite_component_names_record(self, tmp_path):
        path = write_binary(
            tmp_path / "vecs.bin", [("good", [1.0, 0.0]), ("bad", [float("nan"), 1.0])]
        )
        with pytest.raises(EmbeddingFormatError, match="record 1 \\('bad'\\): non-finite"):
            load_embeddings(path, "binary_w2v")

    def test_trailing_garbage(self, tmp_path):
        path = write_binary(tmp_path / "vecs.bin", [("w", [1.0])], extra=b"junk")
        with pytest.raises(EmbeddingFormatError, match="trailing"):
            load_embeddings(path, "binary_w2v")


class TestRoundTrip:
    def test_text_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        vocab = [f"w{i}" for i in range(40)]
        vectors = (rng.standard_normal((40, 12)) * 10).astype(np.float32)
        table = EmbeddingTable("orig", vocab, vectors)
        out = tmp_path / "round.txt"
        save_text_vectors(table, out)
        loaded = load_embeddings(out, "text_vectors", name="orig")
        assert loaded.vocab == table.vocab
        np.testing.assert_array_equal(loaded.vectors, table.vectors)

    @pytest.mark.parametrize("word", ["a b", "", "a\tb", "a\xa0b", " a"])
    def test_word_the_loader_cannot_read_back_is_refused(self, tmp_path, word):
        table = EmbeddingTable("t", [word, "c"], np.array([[0.1], [2.0]], dtype=np.float32))
        out = tmp_path / "t.txt"
        with pytest.raises(ValueError, match=re.escape(f"word {word!r}: an empty word")):
            save_text_vectors(table, out)
        assert not out.exists()

    def test_round_trip_without_header(self, tmp_path):
        table = EmbeddingTable("t", ["a", "b"], np.array([[0.1], [2.0]], dtype=np.float32))
        out = tmp_path / "nohdr.txt"
        out.write_text("a 0.1\nb 2.0\n", encoding="utf-8")
        loaded = load_embeddings(out, "text_vectors")
        np.testing.assert_array_equal(loaded.vectors, table.vectors)


def pair_score(table, word_a, word_b):
    """The S/WS pipeline's cosine for two one-occurrence words of ``table``:
    with one pair, the four S values of its ``similarity_block`` row."""
    [row] = similarity_block(token_table([tokenize(f"{word_a} {word_b}")], frozenset()), table)
    assert len(set(row[:4].tolist())) == 1
    return float(row[0])


def cosine(a, b):
    """``pair_score`` of two vectors stored as a two-word table."""
    return pair_score(EmbeddingTable("pair", ["u", "v"], np.array([a, b])), "u", "v")


class TestCosine:
    """The cosine behind the S and WS features, from table rows to a score."""

    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        assert cosine([1.0, 0.0], [0.0, 5.0]) == 0.0

    def test_known_angle(self):
        # (1,0) vs (1,1): cos 45deg.
        value = cosine([1.0, 0.0], [1.0, 1.0])
        assert value == pytest.approx(0.70710678, abs=1e-8)

    def test_opposite_vectors_clamped(self):
        assert cosine([1.0, 0.0], [-1.0, 0.0]) == -1.0

    def test_zero_norm_word_is_never_scored(self):
        # A zero-norm word is dropped from the content words, so no pair is
        # left: the block row is all zeros.
        table = EmbeddingTable("pair", ["u", "v"], np.array([[0.0, 0.0], [1.0, 2.0]]))
        sentence = tokenize("u v")
        assert content_index(token_table([sentence], frozenset()), table).rows.tolist() == [1]
        assert not similarity_block(token_table([sentence], frozenset()), table).any()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            EmbeddingTable("pair", ["u", "v"], [[1.0], [1.0, 2.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operand_raises(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            cosine([bad, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="non-finite"):
            cosine([1.0, 0.0], [1.0, bad])

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = rng.standard_normal(16)
            b = rng.standard_normal(16)
            assert cosine(a, b) == cosine(b, a)

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = rng.standard_normal(8)
            b = rng.standard_normal(8)
            k = float(rng.uniform(0.01, 100.0))
            np.testing.assert_allclose(cosine(a * k, b), cosine(a, b), atol=1e-6)

    def test_range_and_finiteness(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            a = rng.standard_normal(5) * rng.uniform(1e-3, 1e3)
            b = rng.standard_normal(5) * rng.uniform(1e-3, 1e3)
            value = cosine(a, b)
            assert -1.0 <= value <= 1.0 and np.isfinite(value)

    def test_table_similarity_matches_function(self, toy_table):
        expected = oracles.cosine(toy_table.vector("alpha"), toy_table.vector("gamma"))
        assert pair_score(toy_table, "alpha", "gamma") == pytest.approx(
            expected, rel=0, abs=1e-12
        )


class TestIntersection:
    def make(self, name, vocab, seed):
        rng = np.random.default_rng(seed)
        return EmbeddingTable(
            name, vocab, rng.standard_normal((len(vocab), 4)).astype(np.float32)
        )

    def test_common_words_only(self):
        t1 = self.make("t1", ["a", "b", "c", "d"], 0)
        t2 = self.make("t2", ["c", "a", "x"], 1)
        r1, r2 = intersect_vocabularies([t1, t2])
        assert set(r1.vocab) == {"a", "c"}
        assert set(r2.vocab) == set(r1.vocab)

    def test_order_preserved_per_table(self):
        t1 = self.make("t1", ["a", "b", "c"], 0)
        t2 = self.make("t2", ["c", "b", "a"], 1)
        r1, r2 = intersect_vocabularies([t1, t2])
        assert r1.vocab == ("a", "b", "c")
        assert r2.vocab == ("c", "b", "a")

    def test_vectors_bit_identical(self):
        t1 = self.make("t1", ["a", "b", "c"], 0)
        t2 = self.make("t2", ["b", "c"], 1)
        r1, _ = intersect_vocabularies([t1, t2])
        for word in r1.vocab:
            np.testing.assert_array_equal(r1.vector(word), t1.vector(word))

    def test_empty_intersection_raises(self):
        t1 = self.make("t1", ["a", "b"], 0)
        t2 = self.make("t2", ["x", "y"], 1)
        with pytest.raises(EmptyIntersectionError):
            intersect_vocabularies([t1, t2])

    def test_single_table_unchanged(self):
        t1 = self.make("t1", ["a", "b"], 0)
        (result,) = intersect_vocabularies([t1])
        assert result.vocab == t1.vocab
        np.testing.assert_array_equal(result.vectors, t1.vectors)

    def test_idempotent(self):
        t1 = self.make("t1", ["a", "b", "c", "d"], 0)
        t2 = self.make("t2", ["d", "b"], 1)
        once = intersect_vocabularies([t1, t2])
        twice = intersect_vocabularies(once)
        for first, second in zip(once, twice):
            assert first.vocab == second.vocab
            np.testing.assert_array_equal(first.vectors, second.vectors)


class TestTableValidation:
    def test_duplicate_vocab_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingTable("t", ["a", "a"], np.ones((2, 2), dtype=np.float32))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="match"):
            EmbeddingTable("t", ["a"], np.ones((2, 2), dtype=np.float32))

    def test_non_finite_row_rejected_naming_word(self):
        vectors = np.array([[1.0, 0.0], [np.nan, 0.0], [np.inf, 1.0]])
        with pytest.raises(ValueError, match="'b'"):
            EmbeddingTable("t", ["a", "b", "c"], vectors)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_each_non_finite_value_rejected_naming_word(self, bad):
        vectors = np.ones((3, 4), dtype=np.float32)
        vectors[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite vector component for word 'b'"):
            EmbeddingTable("t", ["a", "b", "c"], vectors)

    def test_handed_over_table_allocates_nothing_table_sized(self):
        # The word index is the same for any width, so a one-column table
        # with the same vocabulary measures everything but the matrix checks.
        vocab = tuple(f"w{i}" for i in range(20_000))

        def peak(columns):
            matrix = np.ones((len(vocab), columns), dtype=np.float32)
            matrix.setflags(write=False)
            tracemalloc.start()
            try:
                EmbeddingTable("t", vocab, matrix)
                return tracemalloc.get_traced_memory()[1], matrix.nbytes
            finally:
                tracemalloc.stop()

        baseline, _ = peak(1)
        wide, nbytes = peak(200)
        assert wide - baseline < 0.01 * nbytes

    def test_writable_input_is_copied(self):
        vectors = np.ones((2, 2), dtype=np.float32)
        view = vectors.view()
        view.setflags(write=False)
        for given in (vectors, view):
            table = EmbeddingTable("t", ["a", "b"], given)
            vectors[0, 0] = 5.0
            assert table.vector("a")[0] == 1.0
            vectors[0, 0] = 1.0
        assert vectors.flags.writeable

    def test_vectors_read_only(self, toy_table):
        with pytest.raises(ValueError):
            toy_table.vectors[0, 0] = 9.0
