import contextlib
import os
import re
import signal
import struct
import sys
import tempfile
import threading
import tracemalloc
import unicodedata
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import no_children
from incongruity import embeddings
from incongruity._workers import process_count
from incongruity.embeddings import (
    EmbeddingFormatError,
    EmbeddingTable,
    EmptyIntersectionError,
    intersect_vocabularies,
    load_embeddings,
    save_text_vectors,
)
from incongruity.errors import read_lines
from incongruity.similarity import similarity_block
from incongruity.synthetic import toy_embedding_tables
from incongruity.text import content_index, token_table, tokenize


def _nfc(word):
    return unicodedata.normalize("NFC", word)


@contextlib.contextmanager
def fifo_of(directory, data):
    """A named pipe in ``directory`` that a thread fills with ``data``."""
    path = Path(directory) / "fifo"
    os.mkfifo(path)

    def write():
        try:
            with open(path, "wb") as handle:
                handle.write(data)
        except BrokenPipeError:
            pass  # the reader stopped early

    thread = threading.Thread(target=write, daemon=True)
    thread.start()
    try:
        yield path
    finally:
        # Free a writer still waiting for a reader to open the pipe.
        os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
        thread.join(timeout=10)
    assert not thread.is_alive()


_needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")


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
def text_tables(draw, name=st.from_regex(r"[a-z]{1,6}", fullmatch=True)):
    """A text table file with varied layout, its words as loaded (NFC) and
    its expected rows."""
    dim = draw(st.integers(1, 5))
    words = draw(st.lists(name, min_size=1, max_size=40, unique_by=_nfc))
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
    return newline.join(lines) + newline, [_nfc(word) for word in words], rows


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


@pytest.fixture(scope="class")
def forced_ranges():
    """Parse every text table in three byte ranges, whatever its size and the
    host's CPU count.  Yields the range loader's results in call order: None
    where it found a fault and the in-process pass ran."""
    results = []
    load = embeddings._load_text_ranges

    def spy(path, starts):
        results.append(load(path, starts))
        return results[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embeddings, "_RANGE_MIN_BYTES", 1)
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        patch.setattr(embeddings, "_load_text_ranges", spy)
        yield results


def assert_loads_take_the_range_path(results, directory):
    path = Path(directory) / "check.txt"
    path.write_text("a 1 2\nb 3 4\nc 5 6\n", encoding="utf-8")
    load_embeddings(path, "text_vectors")
    path.write_text("a 1 2\nb 3 4\nc 5 x\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match="line 3: non-numeric"):
        load_embeddings(path, "text_vectors")
    assert results[-2][0] == ["a", "b", "c"] and results[-1] is None


_linux_only = pytest.mark.skipif(
    sys.platform != "linux", reason="byte ranges are parsed in forked workers on Linux only"
)


@_linux_only
@pytest.mark.usefixtures("forced_ranges")
class TestTextLoaderOnRanges(TestTextLoader):
    """Every TestTextLoader case, each table parsed in byte ranges."""

    # Hypothesis runs a given-test for one class: re-wrap the inherited body.
    # Forks take longer on a busy host, so no example has a deadline.
    test_component_parses_as_float32_of_its_float = settings(deadline=None)(
        given(st.floats(min_value=-_FLOAT32_MAX, max_value=_FLOAT32_MAX), _renders)(
            TestTextLoader.test_component_parses_as_float32_of_its_float.hypothesis.inner_test
        )
    )

    def test_loads_take_the_range_path(self, forced_ranges, tmp_path):
        assert_loads_take_the_range_path(forced_ranges, tmp_path)


@_linux_only
@pytest.mark.usefixtures("forced_ranges")
class TestStreamedTextLoaderOnRanges(TestStreamedTextLoader):
    """Every TestStreamedTextLoader case, each table parsed in byte ranges."""

    test_matches_per_line_float32_of_float = settings(deadline=None)(
        given(text_tables())(
            TestStreamedTextLoader.test_matches_per_line_float32_of_float.hypothesis.inner_test
        )
    )

    def test_loads_take_the_range_path(self, forced_ranges, tmp_path):
        assert_loads_take_the_range_path(forced_ranges, tmp_path)


# Words whose NFC and NFD forms differ, beside plain ASCII ones.
_variant_names = st.lists(
    st.sampled_from(["a", "z", "é", "e\u0301", "ñ", "n\u0303", "Å", "A\u030a"]),
    min_size=1,
    max_size=4,
).map("".join)


@_linux_only
class TestTextRanges:
    """The byte-range path gives the in-process load's bytes, or falls back
    to it, and leaves no process behind."""

    @settings(max_examples=40, deadline=None)
    @given(text_tables(name=_variant_names), st.booleans(), st.data())
    def test_every_split_loads_the_in_process_bytes(self, case, bom, data):
        content, words, _ = case
        encoded = (b"\xef\xbb\xbf" if bom else b"") + content.encode("utf-8")
        # A worker sends its rows in parts: one row each, a few, or all.
        part_values = data.draw(st.sampled_from([1, 5, embeddings._PART_VALUES]))
        with tempfile.TemporaryDirectory() as directory, mock.patch.object(
            embeddings, "_PART_VALUES", part_values
        ):
            path = Path(directory) / "vecs.txt"
            path.write_bytes(encoded)
            vocab, matrix = embeddings._load_text_in_process(path)
            line_starts = [0] + [i + 1 for i, b in enumerate(encoded[:-1]) if b == ord("\n")]
            cuts = data.draw(st.lists(st.sampled_from(line_starts), max_size=3, unique=True))
            splits = [embeddings._line_starts(path, len(encoded), n) for n in range(1, 5)]
            splits.append(sorted({0, *cuts}) + [len(encoded)])
            for starts in splits:
                loaded = embeddings._load_text_ranges(path, starts)
                if loaded is None:
                    # Only a first range of blank lines leaves the header
                    # undecided, so the in-process pass decides it.
                    assert not encoded[: starts[1]].decode("utf-8-sig").split()
                    continue
                assert loaded[0] == vocab == words
                assert loaded[1].tobytes() == matrix.tobytes()
        assert no_children()

    @pytest.mark.parametrize(
        "row, message",
        [("w7 1 inf", "line 8: non-finite vector component"), ("w7 1", "line 8: expected 2")],
    )
    def test_a_later_part_names_its_own_line(self, tmp_path, row, message):
        # Parts of one row each: the fault is in the eighth part.
        path = tmp_path / "vecs.txt"
        lines = [f"w{i} {i} 1" for i in range(10)]
        lines[7] = row
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        parts = embeddings._TextRows(path).read(read_lines(path, EmbeddingFormatError), 2)
        with pytest.raises(EmbeddingFormatError, match=message):
            for _ in parts:
                pass

    def test_bad_row_in_the_last_range_is_named(self, forced_ranges, tmp_path):
        path = tmp_path / "vecs.txt"
        rows = [f"w{i} {i}.5 1" for i in range(300)]
        rows[-1] = "w299 1 nan"
        path.write_text("300 2\n" + "\n".join(rows) + "\n", encoding="utf-8")
        starts = embeddings._line_starts(path, path.stat().st_size, 3)
        assert len(starts) == 4 and starts[2] < path.read_bytes().rindex(b"w299")
        with pytest.raises(EmbeddingFormatError, match="vecs.txt: line 301: non-finite"):
            load_embeddings(path, "text_vectors")
        assert forced_ranges[-1] is None

    def test_duplicate_word_across_two_ranges_is_named(self, forced_ranges, tmp_path):
        # Each range alone is valid; only their union repeats a word.
        path = tmp_path / "vecs.txt"
        rows = [f"w{i} {i}" for i in range(300)]
        rows[250] = "w10 7"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        starts = embeddings._line_starts(path, path.stat().st_size, 3)
        data = path.read_bytes()
        assert data.index(b"w10 ") < starts[1] and data.index(b"w10 7") >= starts[2]
        with pytest.raises(EmbeddingFormatError, match=r"duplicate word 'w10' \(line 251\)$"):
            load_embeddings(path, "text_vectors")
        assert forced_ranges[-1] is None

    def test_only_the_first_non_blank_line_can_be_a_header(self, tmp_path):
        # "7 1" opening a later range is the row of the word "7".
        path = tmp_path / "vecs.txt"
        path.write_text("a 1\nb 2\n7 1\nc 3\n", encoding="utf-8")
        loaded = embeddings._load_text_ranges(path, [0, 8, 16])
        assert loaded is not None and loaded[0] == ["a", "b", "7", "c"]
        assert loaded[1].tobytes() == embeddings._load_text_in_process(path)[1].tobytes()
        # Behind a first range of blank lines, "2 1" is the header; the
        # ranges cannot tell, so the in-process pass reads the file.
        path.write_text("\n2 1\na 1\nb 2\n", encoding="utf-8")
        assert embeddings._load_text_ranges(path, [0, 1, 13]) is None
        assert embeddings._load_text_in_process(path)[0] == ["a", "b"]

    def test_header_count_across_ranges_is_checked(self, forced_ranges, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("301 1\n" + "".join(f"w{i} {i}\n" for i in range(300)), encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="declares 301 words but file has 300"):
            load_embeddings(path, "text_vectors")
        assert forced_ranges[-1] is None

    def test_no_worker_outlives_a_load(self, forced_ranges, tmp_path):
        good = tmp_path / "good.txt"
        good.write_text("".join(f"w{i} {i} 1\n" for i in range(100)), encoding="utf-8")
        bad = tmp_path / "bad.txt"
        bad.write_text("".join(f"w{i} {i} 1\n" for i in range(99)) + "w99 1\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            warnings.simplefilter("error", ResourceWarning)
            assert len(load_embeddings(good, "text_vectors")) == 100
            with pytest.raises(EmbeddingFormatError, match="line 100: expected 2 components"):
                load_embeddings(bad, "text_vectors")
        assert [r is None for r in forced_ranges[-2:]] == [False, True]
        assert no_children()

    def test_interrupt_reaps_the_workers(self, monkeypatch, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("".join(f"w{i} {i}\n" for i in range(100)), encoding="utf-8")

        def interrupted(pipes):
            raise KeyboardInterrupt

        monkeypatch.setattr(embeddings, "_receive_ranges", interrupted)
        with pytest.raises(KeyboardInterrupt):
            embeddings._load_text_ranges(path, embeddings._line_starts(path, 700, 3))
        assert no_children()

    def test_worker_ends_once_no_one_reads_its_pipe(self, monkeypatch, tmp_path):
        # Each range's rows overfill a pipe.  Left unread and not killed, as
        # when the parent dies mid-load, a worker must fail its write and
        # exit rather than block for ever.
        path = tmp_path / "vecs.txt"
        row = " ".join(["1.5"] * 20)
        path.write_text("".join(f"w{i} {row}\n" for i in range(3000)), encoding="utf-8")
        fork, kill = os.fork, os.kill
        forked = []

        def recorded_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        def timed_out(signum, frame):
            raise TimeoutError("a worker is still blocked on its pipe")

        monkeypatch.setattr(os, "fork", recorded_fork)
        monkeypatch.setattr(os, "kill", lambda pid, sig: None)
        monkeypatch.setattr(embeddings, "_receive_ranges", lambda pipes: None)
        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(60)
        try:
            starts = embeddings._line_starts(path, path.stat().st_size, 3)
            assert embeddings._load_text_ranges(path, starts) is None
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            for pid in forked:
                try:
                    kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
        assert len(forked) == 3 and no_children()

    @_needs_fifo
    def test_pipe_parses_in_process(self, forced_ranges, tmp_path):
        # A pipe has no size to cut; its bytes are read once, in-process.
        calls = len(forced_ranges)
        with fifo_of(tmp_path, b"\xef\xbb\xbf2 2\r\na 1 2\r\nb 3 4\r\n") as path:
            table = load_embeddings(path, "text_vectors")
        assert table.vocab == ("a", "b") and len(forced_ranges) == calls
        assert table.vectors.tolist() == [[1, 2], [3, 4]]

    def test_no_process_to_be_had_parses_in_process(self, forced_ranges, monkeypatch, tmp_path):
        def refused():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refused)
        path = tmp_path / "vecs.txt"
        path.write_text("a 1 2\nb 3 4\nc 5 6\n", encoding="utf-8")
        assert load_embeddings(path, "text_vectors").vocab == ("a", "b", "c")
        assert forced_ranges[-1] is None


class TestRangeGate:
    """Only a file of two minimum ranges or more, with more than one CPU and
    no other Python thread, takes the range path; it then gets one range
    per usable CPU, but none under the minimum."""

    @_linux_only
    def test_no_range_is_under_the_minimum(self, monkeypatch):
        minimum = embeddings._RANGE_MIN_BYTES
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert process_count(2 * minimum - 1, minimum) == 1
        assert process_count(2 * minimum, minimum) == 2
        assert process_count(5 * minimum + minimum // 2, minimum) == 5
        assert process_count(100 * minimum, minimum) == 64

    @_linux_only
    def test_one_range_per_usable_cpu(self, monkeypatch):
        minimum = embeddings._RANGE_MIN_BYTES
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5})
        assert process_count(10 * minimum, minimum) == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2})
        assert process_count(10 * minimum, minimum) == 1

    def test_another_thread_parses_in_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            minimum = embeddings._RANGE_MIN_BYTES
            assert process_count(10 * minimum, minimum) == 1
        finally:
            release.set()
            thread.join()

    def test_toy_tables_are_far_below_the_size(self, tmp_path):
        for table in toy_embedding_tables(0).values():
            save_text_vectors(table, tmp_path / "toy.txt")
            assert (tmp_path / "toy.txt").stat().st_size * 50 < embeddings._RANGE_MIN_BYTES


class TestBinaryLoader:
    @_needs_fifo
    def test_loads_from_a_pipe(self, tmp_path):
        # A pipe's size reads as 0: only the records it holds can bound it.
        records = [("alpha", [1.0, 2.0]), ("beta", [3.0, 4.0])]
        data = write_binary(tmp_path / "vecs.bin", records, trailing_newlines=True).read_bytes()
        with fifo_of(tmp_path, data) as path:
            table = load_embeddings(path, "binary_w2v")
        assert table.vocab == ("alpha", "beta")
        np.testing.assert_array_equal(table.vectors, [[1, 2], [3, 4]])

    @_needs_fifo
    @pytest.mark.parametrize(
        "header, message",
        [(b"3 2\n", "record 2: unterminated word"), (b"9" * 30 + b" 2\n", "more than memory")],
        ids=["short", "huge"],
    )
    def test_pipe_holding_fewer_records_than_its_header(self, tmp_path, header, message):
        data = write_binary(tmp_path / "vecs.bin", [("a", [1.0, 2.0]), ("b", [3.0, 4.0])])
        with fifo_of(tmp_path, header + data.read_bytes().split(b"\n", 1)[1]) as path:
            with pytest.raises(EmbeddingFormatError, match=message):
                load_embeddings(path, "binary_w2v")

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

    def test_load_keeps_no_copy_of_the_file(self, tmp_path):
        # The words cost the same at any width, so a one-column table with
        # the same vocabulary measures everything but the vectors: a loader
        # that held the file's bytes would reach about twice the matrix.
        rng = np.random.default_rng(0)

        def peak(dim):
            matrix = rng.standard_normal((20_000, dim)).astype("<f4")
            path = tmp_path / f"vecs-{dim}.bin"
            with open(path, "wb") as handle:
                handle.write(f"20000 {dim}\n".encode())
                for i, row in enumerate(matrix):
                    handle.write(f"w{i} ".encode() + row.tobytes())
            tracemalloc.start()
            try:
                table = load_embeddings(path, "binary_w2v")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert table.vectors.tobytes() == matrix.tobytes()
            return peak, matrix.nbytes

        baseline, _ = peak(1)
        wide, nbytes = peak(100)
        assert wide - baseline < 1.25 * nbytes


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
