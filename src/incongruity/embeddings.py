"""Word embedding tables: loading, cosine similarity, vocabulary intersection.

Two interchange formats used by common pre-trained vector distributions are
supported:

* ``text_vectors`` -- UTF-8 lines ``<word> <f1> ... <fd>`` with
  '.'-decimal floats, plus an optional leading ``<count> <dim>`` header
  line that is auto-detected.
* ``binary_w2v`` -- an ASCII header line ``<count> <dim>\\n`` followed by
  one record per word: the word's UTF-8 bytes terminated by a single
  space, then ``dim`` little-endian float32 values, optionally followed
  by a newline (files with and without the trailing newline per record
  are both accepted).

Words are NFC-normalized on load and matched by exact string equality.
No case folding happens at this layer; the text pipeline decides how
sentence tokens resolve against a table.
"""

from __future__ import annotations

import unicodedata
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

FORMATS = ("binary_w2v", "text_vectors")


class EmbeddingFormatError(ValueError):
    """An embedding file violates its declared format."""


class DegenerateVectorError(ValueError):
    """A cosine operand has zero norm, so the similarity is undefined."""


class EmptyIntersectionError(ValueError):
    """Vocabulary intersection across tables produced no common words."""


def _nfc(word: str) -> str:
    return unicodedata.normalize("NFC", word)


class EmbeddingTable:
    """Immutable mapping from words to dense vectors, with a provenance name.

    Vectors are stored as float32 rows, unnormalized, in file order.  Row
    norms are computed lazily once and cached; the cache is an optimization
    only and never changes lookup results.
    """

    def __init__(self, name: str, vocab: Iterable[str], vectors: np.ndarray):
        matrix = np.array(vectors, dtype=np.float32)
        if matrix.ndim != 2:
            raise ValueError("vectors must form a 2-D array")
        words = tuple(vocab)
        if len(words) != matrix.shape[0]:
            raise ValueError(
                f"vocabulary size {len(words)} does not match "
                f"{matrix.shape[0]} vector rows"
            )
        if matrix.shape[1] == 0:
            raise ValueError("vectors must have at least one dimension")
        if not np.isfinite(matrix).all():
            bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))[0]
            raise ValueError(f"non-finite vector component for word {words[bad]!r}")
        index: dict[str, int] = {}
        for i, word in enumerate(words):
            if word in index:
                raise ValueError(f"duplicate word {word!r} in vocabulary")
            index[word] = i
        matrix.setflags(write=False)
        self.name = name
        self.vocab = words
        self._vectors = matrix
        self._index = index
        self._norms: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return int(self._vectors.shape[1])

    @property
    def vectors(self) -> np.ndarray:
        """Read-only (n_words, dimension) float32 matrix in vocab order."""
        return self._vectors

    def __len__(self) -> int:
        return len(self.vocab)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def vector(self, word: str) -> np.ndarray:
        """Return the stored float32 row for ``word`` (KeyError if absent)."""
        return self._vectors[self._index[word]]

    def norm(self, word: str) -> float:
        """Euclidean norm of the word's vector, computed in float64."""
        if self._norms is None:
            self._norms = np.linalg.norm(
                self._vectors.astype(np.float64), axis=1
            )
        return float(self._norms[self._index[word]])

    def similarity(self, word_a: str, word_b: str) -> float:
        """Cosine similarity between two vocabulary words.

        Uses the cached norms; the result is identical to calling
        :func:`cosine_similarity` on the two stored vectors.
        """
        na = self.norm(word_a)
        nb = self.norm(word_b)
        if na == 0.0 or nb == 0.0:
            raise DegenerateVectorError(
                f"zero-norm vector for {word_a if na == 0.0 else word_b!r}"
            )
        a = self.vector(word_a).astype(np.float64)
        b = self.vector(word_b).astype(np.float64)
        return _clamped_cosine(float(np.dot(a, b)), na, nb)


def _clamped_cosine(dot: float, norm_a: float, norm_b: float) -> float:
    # Rounding can push |cos| a hair past 1; clamp so downstream math
    # never sees an out-of-range similarity.
    value = dot / (norm_a * norm_b)
    return max(-1.0, min(1.0, value))


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two vectors, clamped to [-1, 1].

    The computation is symmetric in its arguments bit-for-bit, runs in
    float64 regardless of input dtype, and never returns NaN: a zero-norm
    operand raises :class:`DegenerateVectorError`, a non-finite one ValueError.
    """
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.shape != vb.shape:
        raise ValueError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    if not (np.isfinite(va).all() and np.isfinite(vb).all()):
        raise ValueError("cosine undefined for a non-finite vector component")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise DegenerateVectorError("cosine undefined for zero-norm vector")
    return _clamped_cosine(float(np.dot(va, vb)), na, nb)


def load_embeddings(path: str | Path, fmt: str, name: str | None = None) -> EmbeddingTable:
    """Load an embedding table from ``path`` in the given format.

    ``fmt`` must be one of ``"binary_w2v"`` or ``"text_vectors"``.  The
    table name defaults to the file stem.  Vocabulary order matches file
    order; duplicate words and malformed rows raise
    :class:`EmbeddingFormatError` naming the offending word or line.
    """
    path = Path(path)
    if fmt not in FORMATS:
        raise ValueError(f"unknown embedding format {fmt!r}; expected one of {FORMATS}")
    if fmt == "binary_w2v":
        vocab, matrix = _load_binary_w2v(path)
    else:
        vocab, matrix = _load_text_vectors(path)
    return EmbeddingTable(name or path.stem, vocab, matrix)


def _load_binary_w2v(path: Path) -> tuple[list[str], np.ndarray]:
    data = path.read_bytes()
    newline = data.find(b"\n")
    if newline < 0:
        raise EmbeddingFormatError(f"{path}: missing header line")
    header = data[:newline].split()
    if len(header) != 2 or not all(f.isdigit() for f in header):
        raise EmbeddingFormatError(
            f"{path}: malformed header {data[:newline]!r}; expected '<count> <dim>'"
        )
    count, dim = int(header[0]), int(header[1])
    if count <= 0 or dim <= 0:
        raise EmbeddingFormatError(f"{path}: non-positive count or dimension in header")

    vocab: list[str] = []
    seen: set[str] = set()
    matrix = np.empty((count, dim), dtype=np.float32)
    pos = newline + 1
    for record in range(count):
        space = data.find(b" ", pos)
        if space < 0:
            raise EmbeddingFormatError(f"{path}: record {record}: unterminated word")
        try:
            word = _nfc(data[pos:space].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise EmbeddingFormatError(
                f"{path}: record {record}: word is not valid UTF-8"
            ) from exc
        pos = space + 1
        end = pos + 4 * dim
        if end > len(data):
            raise EmbeddingFormatError(
                f"{path}: record {record} ({word!r}): truncated vector"
            )
        matrix[record] = np.frombuffer(data, dtype="<f4", count=dim, offset=pos)
        if not np.isfinite(matrix[record]).all():
            raise EmbeddingFormatError(
                f"{path}: record {record} ({word!r}): non-finite vector component"
            )
        pos = end
        # Tolerate both record layouts: floats directly followed by the
        # next word, or a single newline between records.
        if pos < len(data) and data[pos : pos + 1] == b"\n":
            pos += 1
        if word in seen:
            raise EmbeddingFormatError(f"{path}: duplicate word {word!r}")
        seen.add(word)
        vocab.append(word)
    if pos != len(data):
        raise EmbeddingFormatError(f"{path}: trailing data after final record")
    return vocab, matrix


def _load_text_vectors(path: Path) -> tuple[list[str], np.ndarray]:
    vocab: list[str] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()
    declared: tuple[int, int] | None = None
    dim: int | None = None
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            fields = line.split()
            if not fields:
                continue
            if (
                not rows
                and declared is None
                and len(fields) == 2
                and all(f.isdigit() for f in fields)
            ):
                declared = (int(fields[0]), int(fields[1]))
                dim = declared[1]
                continue
            word = _nfc(fields[0])
            components = fields[1:]
            if dim is None:
                if not components:
                    raise EmbeddingFormatError(
                        f"{path}: line {lineno}: no vector components"
                    )
                dim = len(components)
            if len(components) != dim:
                raise EmbeddingFormatError(
                    f"{path}: line {lineno}: expected {dim} components, "
                    f"found {len(components)}"
                )
            try:
                row = np.array([float(c) for c in components], dtype=np.float32)
            except ValueError as exc:
                raise EmbeddingFormatError(
                    f"{path}: line {lineno}: non-numeric vector component"
                ) from exc
            if not np.isfinite(row).all():
                raise EmbeddingFormatError(
                    f"{path}: line {lineno}: non-finite vector component"
                )
            if word in seen:
                raise EmbeddingFormatError(
                    f"{path}: duplicate word {word!r} (line {lineno})"
                )
            seen.add(word)
            vocab.append(word)
            rows.append(row)
    if not rows:
        raise EmbeddingFormatError(f"{path}: no vector rows")
    if declared is not None and declared[0] != len(rows):
        raise EmbeddingFormatError(
            f"{path}: header declares {declared[0]} words but file has {len(rows)}"
        )
    return vocab, np.stack(rows)


def save_text_vectors(table: EmbeddingTable, path: str | Path, header: bool = True) -> None:
    """Write a table in ``text_vectors`` format.

    Components use the shortest decimal representation that round-trips
    to the identical float32, so load(save(T)) reproduces T's vectors
    bit-for-bit.
    """
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            handle.write(f"{len(table)} {table.dimension}\n")
        for word, row in zip(table.vocab, table.vectors):
            handle.write(word + " " + " ".join(str(v) for v in row) + "\n")


def intersect_vocabularies(tables: Sequence[EmbeddingTable]) -> list[EmbeddingTable]:
    """Restrict each table to the words present in every table.

    Each returned table keeps its own original word order, and kept rows
    are copied bit-for-bit.  Raises :class:`EmptyIntersectionError` when
    no word is shared by all tables.
    """
    if not tables:
        raise ValueError("need at least one table to intersect")
    if len(tables) == 1:
        return [tables[0]]
    common = set(tables[0].vocab)
    for table in tables[1:]:
        common &= set(table.vocab)
    if not common:
        names = ", ".join(t.name for t in tables)
        raise EmptyIntersectionError(f"no common vocabulary across tables: {names}")
    result = []
    for table in tables:
        keep = [i for i, word in enumerate(table.vocab) if word in common]
        result.append(
            EmbeddingTable(
                table.name,
                [table.vocab[i] for i in keep],
                table.vectors[keep],
            )
        )
    return result
