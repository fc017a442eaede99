import struct

import numpy as np
import pytest

from incongruity.embeddings import (
    DegenerateVectorError,
    EmbeddingFormatError,
    EmbeddingTable,
    EmptyIntersectionError,
    cosine_similarity,
    intersect_vocabularies,
    load_embeddings,
    save_text_vectors,
)


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

    def test_round_trip_without_header(self, tmp_path):
        table = EmbeddingTable("t", ["a", "b"], np.array([[0.1], [2.0]], dtype=np.float32))
        out = tmp_path / "nohdr.txt"
        save_text_vectors(table, out, header=False)
        loaded = load_embeddings(out, "text_vectors")
        np.testing.assert_array_equal(loaded.vectors, table.vectors)


class TestCosine:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 5.0]) == 0.0

    def test_known_angle(self):
        # (1,0) vs (1,1): cos 45deg.
        value = cosine_similarity([1.0, 0.0], [1.0, 1.0])
        assert value == pytest.approx(0.70710678, abs=1e-8)

    def test_opposite_vectors_clamped(self):
        assert cosine_similarity([1.0, 0.0], [-1.0, 0.0]) == -1.0

    def test_zero_norm_raises(self):
        with pytest.raises(DegenerateVectorError):
            cosine_similarity([0.0, 0.0], [1.0, 2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine_similarity([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operand_raises(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            cosine_similarity([bad, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="non-finite"):
            cosine_similarity([1.0, 0.0], [1.0, bad])

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = rng.standard_normal(16)
            b = rng.standard_normal(16)
            assert cosine_similarity(a, b) == cosine_similarity(b, a)

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = rng.standard_normal(8)
            b = rng.standard_normal(8)
            k = float(rng.uniform(0.01, 100.0))
            np.testing.assert_allclose(
                cosine_similarity(a * k, b), cosine_similarity(a, b), atol=1e-6
            )

    def test_range_and_finiteness(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            a = rng.standard_normal(5) * rng.uniform(1e-3, 1e3)
            b = rng.standard_normal(5) * rng.uniform(1e-3, 1e3)
            value = cosine_similarity(a, b)
            assert -1.0 <= value <= 1.0 and np.isfinite(value)

    def test_table_similarity_matches_function(self, toy_table):
        expected = cosine_similarity(
            toy_table.vector("alpha"), toy_table.vector("gamma")
        )
        assert toy_table.similarity("alpha", "gamma") == expected


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

    def test_vectors_read_only(self, toy_table):
        with pytest.raises(ValueError):
            toy_table.vectors[0, 0] = 9.0
