"""Every exception class of the package reports a fault in the user's input,
so the CLI turns it into one ``Error:`` line; the one exception is an
internal invariant, which keeps its traceback.  The one text reader places
a bad byte on its line."""

import importlib
import inspect
import os
import pkgutil
import threading
import tracemalloc

import pytest

import incongruity
from incongruity.classify import TrainingError
from incongruity.errors import InputError, read_lines
from incongruity.harness import IncompleteMatrixError

# Internal invariants: a bug, not a fault in the input.
INTERNAL = {IncompleteMatrixError}


def exception_classes():
    """Every exception class defined in a module of the package."""
    for info in pkgutil.iter_modules(incongruity.__path__):
        module = importlib.import_module(f"{incongruity.__name__}.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                yield cls


def test_every_exception_class_is_an_input_error():
    classes = set(exception_classes())
    assert INTERNAL | {InputError, TrainingError} <= classes
    strays = [cls.__qualname__ for cls in classes - INTERNAL if not issubclass(cls, InputError)]
    assert strays == []
    assert issubclass(TrainingError, RuntimeError)


class TestReadLines:
    def test_byte_range_reads_the_lines_that_begin_in_it(self, tmp_path):
        path = tmp_path / "text.txt"
        path.write_bytes(b"\xef\xbb\xbfa\r\nbb\n\ncc\n")
        assert list(read_lines(path, InputError)) == [(1, "a"), (2, "bb"), (3, ""), (4, "cc")]
        # Lines begin at 0, 6, 9 and 10; one ends past the range's last byte.
        assert list(read_lines(path, InputError, 0, 5)) == [(1, "a")]
        assert list(read_lines(path, InputError, 6, 10)) == [(1, "bb"), (2, "")]
        assert list(read_lines(path, InputError, 10, 13)) == [(1, "cc")]
        assert list(read_lines(path, InputError, 6)) == [(1, "bb"), (2, ""), (3, "cc")]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize(
        "data", [b"", b"a", b"\n\nb\n", b"ab\ncd\n", b"\xef\xbb\xbf", b"\xef\xbb\xbfx\r\ny"]
    )
    def test_pipe_reads_as_its_file(self, tmp_path, data):
        # A pipe cannot seek back over the bytes read to look for the mark.
        path = tmp_path / "text.txt"
        path.write_bytes(data)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            lines = list(read_lines(fifo, InputError))
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert lines == list(read_lines(path, InputError))

    def test_byte_order_mark_alone_is_an_empty_file(self, tmp_path):
        path = tmp_path / "text.txt"
        path.write_bytes(b"\xef\xbb\xbf")
        assert list(read_lines(path, InputError)) == []

    def test_bad_byte_is_placed_without_holding_the_file(self, tmp_path):
        path = tmp_path / "text.txt"
        line = b"x" * 99 + b"\n"
        path.write_bytes(line * 40_000 + b"\xc3(\n" + line * 100)
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=r"text\.txt: line 40001: not valid UTF-8$") as info:
                for _ in read_lines(path, InputError):
                    pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(info.value.__cause__, UnicodeDecodeError)
        assert peak < path.stat().st_size / 10
