"""Word embedding tables: loading and vocabulary intersection.

Two interchange formats used by common pre-trained vector distributions are
supported:

* ``text_vectors`` -- UTF-8 lines ``<word> <f1> ... <fd>``, any whitespace
  between fields, blank lines skipped.  Components are ASCII decimal
  floats (optional sign, digits with an optional '.', optional exponent),
  each read as a double and rounded to float32; ``nan`` and ``inf`` are
  rejected as non-finite, digit separators (``1_0``) and non-ASCII digits
  as non-numeric.  The first non-blank line is a ``<count> <dim>`` header
  if it is exactly two fields of digits; it must then be ASCII digits with
  count and dim above 0, and the file must hold ``count`` rows of ``dim``
  components.  The file is parsed in one streamed pass.
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

import itertools
import unicodedata
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError

FORMATS = ("binary_w2v", "text_vectors")


class EmbeddingFormatError(InputError):
    """An embedding file violates its declared format."""


class EmptyIntersectionError(InputError):
    """Vocabulary intersection across tables produced no common words."""


def _nfc(word: str) -> str:
    return unicodedata.normalize("NFC", word)


class EmbeddingTable:
    """Immutable mapping from words to dense vectors, with a provenance name.

    Vectors are stored as float32 rows, unnormalized, in file order.  A
    read-only float32 array that owns its memory, as the loaders pass, is
    kept without a copy: the caller hands it over.  Any other ``vectors``
    is copied.
    """

    def __init__(self, name: str, vocab: Iterable[str], vectors: np.ndarray):
        if (
            isinstance(vectors, np.ndarray)
            and vectors.dtype == np.float32
            and vectors.base is None
            and not vectors.flags.writeable
        ):
            # Saves a second copy of a large loaded table at its peak.
            matrix = vectors
        else:
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
        # min and max propagate NaN and expose an infinity without a
        # table-sized temporary (a NaN may flag an invalid comparison on the
        # way); only a failing table is searched by row.
        with np.errstate(invalid="ignore"):
            finite = not matrix.size or np.isfinite([matrix.min(), matrix.max()]).all()
        if not finite:
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

    def rows_of(self, words: Sequence[str]) -> np.ndarray:
        """The int64 index of each word's row in :attr:`vectors`, -1 if absent."""
        found = map(self._index.get, words, itertools.repeat(-1))
        return np.fromiter(found, np.int64, len(words))

    def vector(self, word: str) -> np.ndarray:
        """Return the stored float32 row for ``word`` (KeyError if absent)."""
        return self._vectors[self._index[word]]


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
    matrix.setflags(write=False)
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
    # A record is at least a space and dim floats; check before allocating.
    if count * (4 * dim + 1) > len(data) - newline - 1:
        raise EmbeddingFormatError(
            f"{path}: header declares {count} records of dimension {dim}, "
            f"more than the file's {len(data)} bytes can hold"
        )

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


def _parse_components(lines: Iterable[str]) -> np.ndarray:
    # One C-level parse: whitespace-separated ASCII decimals, each read as
    # a double and rounded to float32, exactly as np.float32(float(c)).
    return np.loadtxt(lines, dtype=np.float32, comments=None, ndmin=2)


def _text_lines(path: Path) -> Iterator[tuple[int, list[str]]]:
    """Yield each non-blank line's number and its ``[word, components]`` split."""
    with open(path, encoding="utf-8") as handle:
        try:
            for lineno, line in enumerate(handle, start=1):
                parts = line.split(None, 1)
                if parts:
                    yield lineno, parts
        except UnicodeDecodeError as exc:
            # Decoding runs ahead by a buffer, so the line is not known.
            raise EmbeddingFormatError(f"{path}: not valid UTF-8") from exc


def _text_header(path: Path, lineno: int, parts: list[str]) -> tuple[int, int] | None:
    """Return ``(count, dim)`` if the first non-blank line is a header."""
    if len(parts) != 2:
        return None
    fields = [parts[0], *parts[1].split()]
    if len(fields) != 2 or not all(f.isdigit() for f in fields):
        return None
    if not all(f.isascii() for f in fields):
        raise EmbeddingFormatError(
            f"{path}: line {lineno}: malformed header {' '.join(fields)!r}; "
            "expected '<count> <dim>' in ASCII digits"
        )
    count, dim = int(fields[0]), int(fields[1])
    if count <= 0 or dim <= 0:
        raise EmbeddingFormatError(
            f"{path}: line {lineno}: non-positive count or dimension in header"
        )
    return count, dim


def _bad_row(path: Path, lineno: int, text: str, dim: int | None) -> EmbeddingFormatError | None:
    """Check one row's component text alone; ``dim`` is None before the first row."""
    found = len(text.split())
    if dim is None and found == 0:
        return EmbeddingFormatError(f"{path}: line {lineno}: no vector components")
    if found != dim:
        return EmbeddingFormatError(
            f"{path}: line {lineno}: expected {dim} components, found {found}"
        )
    try:
        row = _parse_components([text])
    except ValueError:
        return EmbeddingFormatError(f"{path}: line {lineno}: non-numeric vector component")
    if not np.isfinite(row).all():
        return EmbeddingFormatError(f"{path}: line {lineno}: non-finite vector component")
    return None


def _parse_rows(path: Path, rows: Iterable[str], linenos: list[int], dim: int) -> np.ndarray:
    """Parse the rows' component texts; ``linenos`` fills in as they are read."""
    try:
        matrix = _parse_components(rows)
    except EmbeddingFormatError:
        raise  # the file is not UTF-8; no row is at fault
    except ValueError:
        # The bulk parse does not name a file line: check the rows it was
        # given one at a time, in file order.
        given = set(linenos)
        for lineno, parts in _text_lines(path):
            if lineno in given:
                error = _bad_row(path, lineno, parts[1], dim)
                if error is not None:
                    raise error from None
        raise
    if matrix.shape[1] != dim:
        raise EmbeddingFormatError(
            f"{path}: line {linenos[0]}: expected {dim} components, "
            f"found {matrix.shape[1]}"
        )
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise EmbeddingFormatError(
            f"{path}: line {linenos[int(np.argmin(finite))]}: "
            "non-finite vector component"
        )
    return matrix


def _load_text_vectors(path: Path) -> tuple[list[str], np.ndarray]:
    vocab: list[str] = []
    linenos: list[int] = []
    header: tuple[int, int] | None = None
    # A line that cannot be a row (no components, or a repeated word) ends
    # the stream; it is judged after every row before it.
    stop: tuple[int, str, str] | None = None

    def components() -> Iterator[str]:
        nonlocal header, stop
        seen: set[str] = set()
        for lineno, parts in _text_lines(path):
            if not linenos and header is None:
                header = _text_header(path, lineno, parts)
                if header is not None:
                    continue
            word = _nfc(parts[0])
            text = parts[1] if len(parts) == 2 else ""
            if not text or word in seen:
                stop = (lineno, text, word)
                return
            seen.add(word)
            vocab.append(word)
            linenos.append(lineno)
            yield text

    rows = components()
    first = next(rows, None)
    if header is not None:
        dim: int | None = header[1]
    else:
        dim = None if first is None else len(first.split())
    matrix = None
    if first is not None:
        matrix = _parse_rows(path, itertools.chain([first], rows), linenos, dim)
    if stop is not None:
        lineno, text, word = stop
        raise _bad_row(path, lineno, text, dim) or EmbeddingFormatError(
            f"{path}: duplicate word {word!r} (line {lineno})"
        )
    if matrix is None:
        raise EmbeddingFormatError(f"{path}: no vector rows")
    if header is not None and header[0] != len(vocab):
        raise EmbeddingFormatError(
            f"{path}: header declares {header[0]} words but file has {len(vocab)}"
        )
    return vocab, matrix


def save_text_vectors(table: EmbeddingTable, path: str | Path) -> None:
    """Write a table in ``text_vectors`` format, with a header line.

    Components use the shortest decimal representation that round-trips
    to the identical float32, so load(save(T)) reproduces T's vectors
    bit-for-bit.  A word that is empty or holds whitespace raises
    :class:`EmbeddingFormatError` naming the word, since the reader could
    not give it back.
    """
    for word in table.vocab:
        if word.split() != [word]:
            raise EmbeddingFormatError(
                f"word {word!r}: an empty word or one holding whitespace "
                "cannot be written as a text-vector line"
            )
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
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
