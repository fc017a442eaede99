"""The one exception type for a fault in a user's input, and the one reader
of a user's text files."""

import io
import itertools
from pathlib import Path
from typing import Iterable, Iterator

_BOM = b"\xef\xbb\xbf"


class InputError(ValueError):
    """A file, path or option a user gave is at fault; the message names it."""


def read_lines(
    path: str | Path, start: int = 0, stop: int | None = None
) -> Iterator[tuple[int, str]]:
    """Yield ``(number, line)`` for each line of a text file, counted from 1.

    The one rule for every text input: the file is UTF-8, one leading
    byte-order mark is dropped, and a line ends at ``\\n`` with one ``\\r``
    before it dropped, so a CRLF file reads as its LF copy.  A byte that is
    not UTF-8 raises :class:`InputError` as ``<path>: line N: not valid
    UTF-8``, chained to the ``UnicodeDecodeError``.

    ``start`` and ``stop`` read a byte range: the lines that begin at an
    offset in ``[start, stop)``, numbered from 1 at the first.  ``start``
    must be the offset of a line start.
    """
    with open(path, "rb") as handle:
        raws: Iterable[bytes] = handle
        if start:
            handle.seek(start)
        else:
            # Read the mark rather than seek back over it: a pipe cannot seek.
            head = handle.read(len(_BOM))
            if head == _BOM:
                start = len(_BOM)
            else:
                # Put back the bytes read, completed to the end of their line.
                raws = itertools.chain(io.BytesIO(head + handle.readline()), handle)
        if stop is not None:
            raws = _lines_within(raws, stop - start)
        lineno = 0
        try:
            for lineno, line in enumerate(map(bytes.decode, raws), start=1):
                yield lineno, line.removesuffix("\n").removesuffix("\r")
        except UnicodeDecodeError as exc:
            # The decode failed before enumerate counted its line.
            raise InputError(f"{path}: line {lineno + 1}: not valid UTF-8") from exc


def _lines_within(raws: Iterable[bytes], size: int) -> Iterator[bytes]:
    """The lines of ``raws`` that begin within its first ``size`` bytes."""
    for raw in raws:
        if size <= 0:
            return
        size -= len(raw)
        yield raw
