"""The one exception type for a fault in a user's input, and the one reader
of a user's text files."""

from pathlib import Path
from typing import Iterator


class InputError(ValueError):
    """A file, path or option a user gave is at fault; the message names it."""


def read_lines(path: str | Path, error: type[InputError]) -> Iterator[tuple[int, str]]:
    """Yield ``(number, line)`` for each line of a text file, counted from 1.

    The one rule for every text input: the file is UTF-8, one leading
    byte-order mark is dropped, and a line ends at ``\\n`` with one ``\\r``
    before it dropped, so a CRLF file reads as its LF copy.  A byte that is
    not UTF-8 raises ``error`` as ``<path>: line N: not valid UTF-8``,
    chained to the ``UnicodeDecodeError``.
    """
    with open(path, encoding="utf-8-sig", newline="\n") as handle:
        try:
            for lineno, line in enumerate(handle, start=1):
                yield lineno, line.removesuffix("\n").removesuffix("\r")
        except UnicodeDecodeError:
            # Decoding runs ahead by a buffer, so this error's offset is not
            # the file's; decoding the whole file again places the bad byte.
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                lineno = data.count(b"\n", 0, exc.start) + 1
                raise error(f"{path}: line {lineno}: not valid UTF-8") from exc
            raise
