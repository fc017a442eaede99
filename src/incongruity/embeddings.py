"""Word embedding tables: loading and vocabulary intersection.

Two interchange formats used by common pre-trained vector distributions are
supported:

* ``text_vectors`` -- lines ``<word> <f1> ... <fd>`` of a text file read
  by :func:`~incongruity.errors.read_lines`, any whitespace between
  fields, blank lines skipped.  Components are ASCII decimal
  floats (optional sign, digits with an optional '.', optional exponent),
  each read as a double and rounded to float32; ``nan`` and ``inf`` are
  rejected as non-finite, digit separators (``1_0``) and non-ASCII digits
  as non-numeric.  The first non-blank line is a ``<count> <dim>`` header
  if it is exactly two fields of digits; it must then be ASCII digits with
  count and dim above 0, and the file must hold ``count`` rows of ``dim``
  components.  A regular file of at least two ``_RANGE_MIN_BYTES`` is
  cut into byte ranges of whole lines, one per usable CPU but none
  smaller than that; a worker forked by :mod:`~incongruity._workers`
  parses each range with the same row code and pipes its rows, a part at
  a time, into their place in the one final matrix.  The parent holds no
  parse buffer, and a worker one part of rows and its range's words.  Any
  fault in a range or across ranges drops the workers' output and runs
  the streamed pass, so every error message, and which fault is named
  first, come from that pass.  Any other file, a pipe, a one-CPU host,
  another platform than Linux, or a process running other Python
  threads, gets the streamed pass.  It too parses in parts, into a matrix
  it grows in place, and names a bad row from its part's own lines: a
  pipe is read once.
* ``binary_w2v`` -- an ASCII header line ``<count> <dim>\\n`` followed by
  one record per word: the word's UTF-8 bytes terminated by a single
  space, then ``dim`` little-endian float32 values, optionally followed
  by a newline (files with and without the trailing newline per record
  are both accepted).  Records are streamed from the file straight into
  the matrix.

Words are NFC-normalized on load and matched by exact string equality.
No case folding happens at this layer; the text pipeline decides how
sentence tokens resolve against a table.
"""

from __future__ import annotations

import functools
import io
import itertools
import os
import select
import stat
import struct
import unicodedata
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from ._workers import process_count, read_into, run_forked
from .errors import InputError, read_lines

FORMATS = ("binary_w2v", "text_vectors")


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
    :class:`InputError` naming the offending word or line.
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
    info = os.stat(path)
    with open(path, "rb") as handle:
        line = handle.readline()
        if not line.endswith(b"\n"):
            raise InputError(f"{path}: missing header line")
        header = line.split()
        if len(header) != 2 or not all(f.isdigit() for f in header):
            raise InputError(f"{path}: malformed header {line[:-1]!r}; expected '<count> <dim>'")
        count, dim = int(header[0]), int(header[1])
        if count <= 0 or dim <= 0:
            raise InputError(f"{path}: non-positive count or dimension in header")
        # A record is at least a space and dim floats; check before allocating.
        # Only a regular file has a size: a pipe ends where it ends, and a
        # short one fails as a truncated record.
        if stat.S_ISREG(info.st_mode) and count * (4 * dim + 1) > info.st_size - len(line):
            raise InputError(
                f"{path}: header declares {count} records of dimension {dim}, "
                f"more than the file's {info.st_size} bytes can hold"
            )

        try:
            # Untouched pages cost nothing: a short pipe fails as truncated.
            matrix = np.empty((count, dim), dtype="<f4")
        except (MemoryError, ValueError):
            raise InputError(
                f"{path}: header declares {count} records of dimension {dim}, "
                "more than memory can hold"
            ) from None
        vocab: list[str] = []
        seen: set[str] = set()
        for record in range(count):
            raw = _read_word(handle)
            if raw is None:
                raise InputError(f"{path}: record {record}: unterminated word")
            try:
                word = _nfc(raw.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise InputError(f"{path}: record {record}: word is not valid UTF-8") from exc
            if handle.readinto(matrix[record]) != 4 * dim:
                raise InputError(f"{path}: record {record} ({word!r}): truncated vector")
            if not np.isfinite(matrix[record]).all():
                raise InputError(
                    f"{path}: record {record} ({word!r}): non-finite vector component"
                )
            # Tolerate both record layouts: floats directly followed by the
            # next word, or a single newline between records.
            if handle.peek(1)[:1] == b"\n":
                handle.read(1)
            if word in seen:
                raise InputError(f"{path}: duplicate word {word!r}")
            seen.add(word)
            vocab.append(word)
        if handle.read(1):
            raise InputError(f"{path}: trailing data after final record")
    return vocab, matrix.astype(np.float32, copy=False)


def _read_word(handle: io.BufferedReader) -> bytes | None:
    """The bytes before the next space, which is consumed; None if none is left."""
    parts = []
    while chunk := handle.peek():
        space = chunk.find(b" ")
        if space >= 0:
            parts.append(handle.read(space + 1)[:-1])
            return b"".join(parts)
        parts.append(handle.read(len(chunk)))
    return None


def _parse_components(lines: Iterable[str]) -> np.ndarray:
    # One C-level parse: whitespace-separated ASCII decimals, each read as
    # a double and rounded to float32, exactly as np.float32(float(c)).
    return np.loadtxt(lines, dtype=np.float32, comments=None, ndmin=2)


def _text_header(path: Path, lineno: int, parts: list[str]) -> tuple[int, int] | None:
    """Return ``(count, dim)`` if the first non-blank line is a header."""
    if len(parts) != 2:
        return None
    fields = [parts[0], *parts[1].split()]
    if len(fields) != 2 or not all(f.isdigit() for f in fields):
        return None
    if not all(f.isascii() for f in fields):
        raise InputError(
            f"{path}: line {lineno}: malformed header {' '.join(fields)!r}; "
            "expected '<count> <dim>' in ASCII digits"
        )
    count, dim = int(fields[0]), int(fields[1])
    if count <= 0 or dim <= 0:
        raise InputError(f"{path}: line {lineno}: non-positive count or dimension in header")
    return count, dim


def _bad_row(path: Path, lineno: int, text: str, dim: int | None) -> InputError | None:
    """Check one row's component text alone; ``dim`` is None before the first row."""
    found = len(text.split())
    if dim is None and found == 0:
        return InputError(f"{path}: line {lineno}: no vector components")
    if found != dim:
        return InputError(f"{path}: line {lineno}: expected {dim} components, found {found}")
    try:
        row = _parse_components([text])
    except ValueError:
        return InputError(f"{path}: line {lineno}: non-numeric vector component")
    if not np.isfinite(row).all():
        return InputError(f"{path}: line {lineno}: non-finite vector component")
    return None


class _TextRows:
    """The row code of a text table: one pass over ``(number, line)`` pairs.

    :meth:`read` parses rows up to the first line that cannot be one (no
    components, or a repeated word), which it keeps unjudged in
    :attr:`stop`.  The first non-blank line is a header candidate only if
    ``header_allowed``.
    """

    def __init__(self, path: Path, header_allowed: bool = True):
        self.path = path
        self.header_allowed = header_allowed
        self.vocab: list[str] = []
        self.linenos: list[int] = []
        self.header: tuple[int, int] | None = None
        self.dim: int | None = None
        self.stop: tuple[int, str, str] | None = None

    def _components(self, lines: Iterable[tuple[int, str]]) -> Iterator[str]:
        seen: set[str] = set()
        for lineno, line in lines:
            parts = line.split(None, 1)
            if not parts:
                continue
            if self.header_allowed and not self.linenos and self.header is None:
                self.header = _text_header(self.path, lineno, parts)
                if self.header is not None:
                    continue
            word = _nfc(parts[0])
            text = parts[1] if len(parts) == 2 else ""
            if not text or word in seen:
                self.stop = (lineno, text, word)
                return
            seen.add(word)
            self.vocab.append(word)
            self.linenos.append(lineno)
            yield text

    def read(self, lines: Iterable[tuple[int, str]], part_values: int) -> Iterator[np.ndarray]:
        """Yield the rows' matrix in parts of about ``part_values`` components
        each; nothing if there is no row.  A bad row raises
        :class:`InputError` naming its line, found in its part."""
        rows = self._components(lines)
        first = next(rows, None)
        if self.header is not None:
            self.dim = self.header[1]
        elif first is not None:
            self.dim = len(first.split())
        if first is None:
            return
        texts = itertools.chain([first], rows)
        size = max(1, part_values // self.dim)
        done = 0
        for part in iter(lambda: list(itertools.islice(texts, size)), []):
            try:
                matrix = _parse_components(part)
            except ValueError:
                # The bulk parse names no line: check the part's rows one at
                # a time, in file order.
                for lineno, text in zip(self.linenos[done:], part):
                    error = _bad_row(self.path, lineno, text, self.dim)
                    if error is not None:
                        raise error from None
                raise
            if matrix.shape[1] != self.dim:
                raise InputError(
                    f"{self.path}: line {self.linenos[done]}: expected {self.dim} "
                    f"components, found {matrix.shape[1]}"
                )
            finite = np.isfinite(matrix).all(axis=1)
            if not finite.all():
                raise InputError(
                    f"{self.path}: line {self.linenos[done + int(np.argmin(finite))]}: "
                    "non-finite vector component"
                )
            done += len(matrix)
            yield matrix


def _load_text_vectors(path: Path) -> tuple[list[str], np.ndarray]:
    info = os.stat(path)
    ranges = process_count(info.st_size, _RANGE_MIN_BYTES)
    # Only a regular file can be cut by its size; a pipe is read in-process.
    if stat.S_ISREG(info.st_mode) and ranges > 1:
        loaded = _load_text_ranges(path, _line_starts(path, info.st_size, ranges))
        if loaded is not None:
            return loaded
    return _load_text_in_process(path)


def _load_text_in_process(path: Path) -> tuple[list[str], np.ndarray]:
    rows = _TextRows(path)
    matrix = _stacked(rows.read(read_lines(path), _PART_VALUES))
    if rows.stop is not None:
        lineno, text, word = rows.stop
        raise _bad_row(path, lineno, text, rows.dim) or InputError(
            f"{path}: duplicate word {word!r} (line {lineno})"
        )
    if matrix is None:
        raise InputError(f"{path}: no vector rows")
    if rows.header is not None and rows.header[0] != len(rows.vocab):
        raise InputError(
            f"{path}: header declares {rows.header[0]} words but file has {len(rows.vocab)}"
        )
    return rows.vocab, matrix


def _stacked(parts: Iterator[np.ndarray]) -> np.ndarray | None:
    """The rows of ``parts`` in one matrix that owns its memory; None if
    there is no part.  A pipe's row count is known only at its end, so the
    matrix grows in place by a quarter, as ``np.loadtxt`` grows its own."""
    matrix = np.empty((0, 0), dtype=np.float32)
    filled = 0
    for part in parts:
        if filled + len(part) > len(matrix):
            rows = max(len(matrix) + len(matrix) // 4, filled + len(part))
            matrix.resize((rows, part.shape[1]), refcheck=False)
        matrix[filled : filled + len(part)] = part
        filled += len(part)
    if not filled:
        return None
    matrix.resize((filled, matrix.shape[1]), refcheck=False)
    return matrix


# No byte range is smaller than this, so that a worker's parse outweighs its
# fork and its piped rows on any number of CPUs.  Measured with 300-dim rows
# on a 2-CPU Xeon VM, medians of 15 loads in-process against two ranges:
# ranges of 1.7 MiB broke even (58-67 against 58-81 ms), ranges of 3.4 MiB
# saved about a fifth (118-127 against 94-100 ms).
_RANGE_MIN_BYTES = 4 << 20

# A worker parses and sends its rows in parts of this many components
# (1 MiB of float32), so that it never holds more than a part of them.
_PART_VALUES = 1 << 18

# A range's summary, sent before its rows: rows, dimension (0: none) and
# header count (-1: none).  After the rows come the byte length of the
# range's words, "\n"-joined, and the words.
_SUMMARY = struct.Struct("<3q")
_WORDS = struct.Struct("<q")


def _line_starts(path: Path, size: int, ranges: int) -> list[int]:
    """Cut the file's ``size`` bytes into at most ``ranges`` runs of whole
    lines: 0, each later run's first byte, then ``size``."""
    starts = [0]
    with open(path, "rb") as handle:
        for i in range(1, ranges):
            # The first line start at or after the i-th equal share.
            handle.seek(max(size * i // ranges - 1, 0))
            handle.readline()
            if starts[-1] < handle.tell() < size:
                starts.append(handle.tell())
    return starts + [size]


def _load_text_ranges(path: Path, starts: list[int]) -> tuple[list[str], np.ndarray] | None:
    """Parse each range ``[starts[i], starts[i + 1])`` in a forked worker.

    The workers' rows are read straight into the one final matrix.  None if
    a range or the ranges together hold anything but valid rows, or if no
    pipe or process can be had: the caller then parses the file in-process,
    which names any fault.  Every worker is gone when this returns or raises.
    """
    jobs = [
        functools.partial(_range_worker, path, start, stop)
        for start, stop in zip(starts, starts[1:])
    ]
    return run_forked(jobs, _receive_ranges)


def _range_worker(path: Path, start: int, stop: int, out: BinaryIO) -> bool:
    """Parse one range; write its summary, its rows part by part, then its
    words.  True only if the range holds nothing but valid rows."""
    # Each line that is not blank is a row or the header: count them first,
    # so that the parent can place the rows before they are parsed.
    count = sum(
        1
        for _, line in read_lines(path, start, stop)
        if line and not line.isspace()
    )
    rows = _TextRows(path, header_allowed=start == 0)
    parts = rows.read(read_lines(path, start, stop), _PART_VALUES)
    first = next(parts, None)  # decides the header and the dimension
    count -= rows.header is not None
    header = -1 if rows.header is None else rows.header[0]
    out.write(_SUMMARY.pack(count, rows.dim or 0, header))
    for part in itertools.chain([] if first is None else [first], parts):
        out.write(memoryview(part).cast("B"))
    if rows.stop is not None or len(rows.vocab) != count:
        return False
    words = "\n".join(rows.vocab).encode("utf-8")
    out.write(_WORDS.pack(len(words)))
    out.write(words)
    return True


def _receive_ranges(pipes: list[io.FileIO]) -> tuple[list[str], np.ndarray] | None:
    """Check the ranges' summaries together, read every range's rows into
    its place in the matrix as they come, then the ranges' words in order."""
    summaries = []
    for pipe in pipes:
        summary = bytearray(_SUMMARY.size)
        if not read_into(pipe, summary):
            return None
        summaries.append(_SUMMARY.unpack(summary))
    first_rows, _, header = summaries[0]
    if not first_rows and header < 0:
        return None  # the first non-blank line, a header candidate, is later
    total = sum(rows for rows, _, _ in summaries)
    dims = {dim for _, dim, _ in summaries if dim}
    if len(dims) != 1 or header not in (-1, total):
        return None
    matrix = np.empty((total, dims.pop()), dtype=np.float32)
    # Each pipe's unread share of the matrix.  Reading whichever pipe has
    # data keeps every worker parsing: none waits for the ranges before it.
    unread = {}
    end = 0
    for pipe, (rows, _, _) in zip(pipes, summaries):
        if rows:
            unread[pipe.fileno()] = (pipe, memoryview(matrix[end : end + rows]).cast("B"))
        end += rows
    poll = select.poll()
    for fd in unread:
        poll.register(fd, select.POLLIN)
    while unread:
        for fd, _ in poll.poll():
            pipe, view = unread[fd]
            read = pipe.readinto(view)
            if not read:
                return None
            unread[fd] = (pipe, view[read:])
            if read == len(view):
                del unread[fd]
                poll.unregister(fd)
    vocab: list[str] = []
    for pipe, (rows, _, _) in zip(pipes, summaries):
        length = bytearray(_WORDS.size)
        if not read_into(pipe, length):
            return None
        words = bytearray(_WORDS.unpack(length)[0])
        if not read_into(pipe, words):
            return None
        if rows:
            vocab += words.decode("utf-8").split("\n")
    if len(vocab) != total or len(set(vocab)) != total:
        return None
    return vocab, matrix


def save_text_vectors(table: EmbeddingTable, path: str | Path) -> None:
    """Write a table in ``text_vectors`` format, with a header line.

    Components use the shortest decimal representation that round-trips
    to the identical float32, so load(save(T)) reproduces T's vectors
    bit-for-bit.  A word that is empty or holds whitespace raises
    :class:`InputError` naming the word, since the reader could not give it
    back.
    """
    for word in table.vocab:
        if word.split() != [word]:
            raise InputError(
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
    are copied bit-for-bit.  Raises :class:`InputError` when no word is
    shared by all tables.
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
        raise InputError(f"no common vocabulary across tables: {names}")
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
