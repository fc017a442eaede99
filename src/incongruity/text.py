"""Tokenization, stopword handling, and content-word resolution.

The tokenizer splits on Unicode whitespace and detaches leading/trailing
punctuation runs as their own tokens, so "Great." becomes [Great, .] and
"Wow!!!" becomes [Wow, !!!].  A token's position is its index in the
token list; stopwords and punctuation keep their positions, which matters
when later stages measure token distances.

:func:`token_table` lists a corpus's distinct token strings (types) and
gives every token its type id; each type is classified once per corpus
(lowercase form, punctuation, stopword), and the priors and the content
words read those per-type arrays.  Sentence tokens are matched against an
embedding vocabulary by exact string first, then by their lowercased form.
:func:`content_index` selects the content words of a whole corpus and holds
them as flat integer arrays: per sentence its types' table rows, per type
its token positions.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingTable
from .errors import InputError


class EmptySentenceError(InputError):
    """Raised when asked to tokenize input with no tokens."""


class StopwordFormatError(InputError):
    """A stopword file is not valid UTF-8."""


def _is_punct_char(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


def is_punctuation(token: str) -> bool:
    """True when every character is Unicode punctuation or symbol."""
    # A letter is neither, and isalpha tests every character at C speed.
    return bool(token) and not token.isalpha() and all(map(_is_punct_char, token))


@dataclass(frozen=True)
class TokenizedSentence:
    """A sentence as raw text plus its token sequence."""

    raw: str
    tokens: tuple[str, ...]


def tokenize(text: str) -> TokenizedSentence:
    """Split ``text`` into word and punctuation tokens.

    Raises :class:`EmptySentenceError` for empty or whitespace-only input.
    Text is NFC-normalized before splitting.
    """
    normalized = unicodedata.normalize("NFC", text)
    tokens: list[str] = []
    for chunk in normalized.split():
        # No alphanumeric character is punctuation or a symbol, so such a
        # chunk has no runs to detach.
        if chunk.isalnum():
            tokens.append(chunk)
            continue
        lead = 0
        while lead < len(chunk) and _is_punct_char(chunk[lead]):
            lead += 1
        if lead == len(chunk):
            tokens.append(chunk)
            continue
        trail = len(chunk)
        while trail > lead and _is_punct_char(chunk[trail - 1]):
            trail -= 1
        if lead:
            tokens.append(chunk[:lead])
        tokens.append(chunk[lead:trail])
        if trail < len(chunk):
            tokens.append(chunk[trail:])
    if not tokens:
        raise EmptySentenceError(f"no tokens in input {text!r}")
    return TokenizedSentence(raw=text, tokens=tuple(tokens))


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword file: UTF-8, one word per line, '#' comments allowed;
    one leading byte-order mark is dropped.

    Entries are case-folded, so membership tests against the returned set
    should use case-folded tokens.
    """
    words = set()
    with open(path, encoding="utf-8-sig") as handle:
        try:
            for line in handle:
                entry = line.split("#", 1)[0].strip()
                if entry:
                    words.add(unicodedata.normalize("NFC", entry).casefold())
        except UnicodeDecodeError as exc:
            raise StopwordFormatError(f"{path}: not valid UTF-8") from exc
    return frozenset(words)


_DEFAULT_STOPWORDS: frozenset[str] | None = None


def default_stopwords() -> frozenset[str]:
    """The stopword list shipped with the package (function words only)."""
    global _DEFAULT_STOPWORDS
    if _DEFAULT_STOPWORDS is None:
        ref = resources.files("incongruity.data").joinpath("stopwords.txt")
        with resources.as_file(ref) as path:
            _DEFAULT_STOPWORDS = load_stopwords(path)
    return _DEFAULT_STOPWORDS


# Bytes that one step of the content-word and S/WS passes may gather; a
# single sentence may take more.
CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class TokenTable:
    """A corpus's tokens as ids of its distinct token strings (types).

    Sentence s holds tokens ``token_ptr[s]:token_ptr[s + 1]``; token k is
    type ``type_ids[k]`` and belongs to sentence ``sentence_ids[k]``.  Types
    are numbered in order of first occurrence.  Type t is the string
    ``types[t]`` with lowercase form ``lower[t]``; ``punctuation[t]`` says
    whether every character is punctuation or a symbol, ``stopword[t]``
    whether its case-folded form is a stopword.
    """

    sentences: Sequence[TokenizedSentence]
    types: list[str]
    lower: list[str]
    punctuation: np.ndarray
    stopword: np.ndarray
    type_ids: np.ndarray
    token_ptr: np.ndarray
    sentence_ids: np.ndarray


def token_table(
    sentences: Sequence[TokenizedSentence], stopwords: frozenset[str]
) -> TokenTable:
    """Number the tokens of ``sentences`` by type and classify each type once."""
    tokens = list(chain.from_iterable(s.tokens for s in sentences))
    types = list(dict.fromkeys(tokens))
    type_of = dict(zip(types, range(len(types))))
    lengths = np.fromiter((len(s.tokens) for s in sentences), np.int64, len(sentences))
    folded = map(str.casefold, types)
    return TokenTable(
        sentences=sentences,
        types=types,
        lower=list(map(str.lower, types)),
        punctuation=np.fromiter(map(is_punctuation, types), bool, len(types)),
        stopword=np.fromiter(map(stopwords.__contains__, folded), bool, len(types)),
        type_ids=np.fromiter(map(type_of.__getitem__, tokens), np.int64, len(tokens)),
        token_ptr=_offsets(lengths),
        sentence_ids=np.repeat(np.arange(len(sentences)), lengths),
    )


@dataclass(frozen=True)
class ContentIndex:
    """The content-word types of a corpus, as flat integer arrays.

    Sentence s owns types ``type_ptr[s]:type_ptr[s + 1]``, ordered by first
    occurrence.  Type t is table row ``rows[t]`` and occurs at the ascending
    token positions ``positions[position_ptr[t]:position_ptr[t + 1]]``.
    """

    type_ptr: np.ndarray
    rows: np.ndarray
    position_ptr: np.ndarray
    positions: np.ndarray


def _offsets(counts: np.ndarray) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts)])


def content_index(tokens: TokenTable, table: EmbeddingTable) -> ContentIndex:
    """Select the content-word types of every sentence in one pass.

    A token is a content word when it is not pure punctuation, not a
    stopword (case-folded test), and resolves to a table word (exact match,
    then lowercase) whose row has a nonzero component (all +0.0 or -0.0
    supports no cosine).  Each type is resolved once.  Tokens of one
    sentence resolving to the same row merge into one type carrying every
    occurrence position.
    """
    token_rows = _type_rows(tokens, table)[tokens.type_ids]
    kept = np.flatnonzero(token_rows >= 0)
    owner = tokens.sentence_ids[kept]
    # One key per (sentence, row); ``kept`` ascends, so the first occurrences
    # in ascending order number the types sentence by sentence.
    _, first, key_type = np.unique(
        owner * len(table) + token_rows[kept], return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    occurrence_type = rank[key_type]
    first = first[order]
    return ContentIndex(
        type_ptr=_offsets(np.bincount(owner[first], minlength=len(tokens.sentences))),
        rows=token_rows[kept[first]],
        position_ptr=_offsets(np.bincount(occurrence_type, minlength=len(order))),
        positions=(kept - tokens.token_ptr[owner])[
            np.argsort(occurrence_type, kind="stable")
        ],
    )


def _type_rows(tokens: TokenTable, table: EmbeddingTable) -> np.ndarray:
    """The table row of every content-word type, -1 for the rest."""
    # An exact match wins; otherwise the lowercased token is tried.
    rows = table.rows_of(tokens.types)
    missing = np.flatnonzero(rows < 0)
    rows[missing] = table.rows_of([tokens.lower[i] for i in missing.tolist()])
    rows[tokens.punctuation | tokens.stopword] = -1
    candidates = np.flatnonzero(rows >= 0)
    step = max(1, CHUNK_BYTES // (4 * table.dimension))
    for start in range(0, len(candidates), step):
        part = candidates[start : start + step]
        rows[part[~table.vectors[rows[part]].any(axis=1)]] = -1
    return rows
