"""Tokenization, stopword handling, and content-word resolution.

The tokenizer splits on Unicode whitespace and detaches leading/trailing
punctuation runs as their own tokens, so "Great." becomes [Great, .] and
"Wow!!!" becomes [Wow, !!!].  A token's position is its index in the
token list; stopwords and punctuation keep their positions, which matters
when later stages measure token distances.

Sentence tokens are matched against an embedding vocabulary by exact
string first, then by their lowercased form.  A sentence's content words
are held as arrays, not one object per word: the types, their positions,
and their table rows gathered into one (types, dimension) array.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingTable


class EmptySentenceError(ValueError):
    """Raised when asked to tokenize input with no tokens."""


def _is_punct_char(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


def is_punctuation(token: str) -> bool:
    """True when every character is Unicode punctuation or symbol."""
    return bool(token) and all(_is_punct_char(ch) for ch in token)


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


def resolve_vocab_word(table: EmbeddingTable, token: str) -> str | None:
    """Map a token to the table word it should use, or None if out of vocab.

    An exact match wins; otherwise the lowercased token is tried.
    """
    if token in table:
        return token
    lowered = token.lower()
    return lowered if lowered in table else None


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword file: UTF-8, one word per line, '#' comments allowed.

    Entries are case-folded, so membership tests against the returned set
    should use case-folded tokens.
    """
    words = set()
    with open(path, encoding="utf-8") as handle:
        try:
            for line in handle:
                entry = line.split("#", 1)[0].strip()
                if entry:
                    words.add(unicodedata.normalize("NFC", entry).casefold())
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not valid UTF-8") from exc
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


@dataclass(frozen=True)
class ContentWords:
    """Content-word types of one sentence, ordered by first occurrence.

    Type k is ``words[k]``; it occurs at the ascending token positions
    ``positions[k]``, and ``rows[k]`` is its table row.  ``rows`` is one
    gathered (types, dimension) float32 array.
    """

    words: tuple[str, ...]
    positions: tuple[tuple[int, ...], ...]
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.words)


def content_words(
    sentence: TokenizedSentence,
    stopwords: frozenset[str],
    table: EmbeddingTable,
) -> ContentWords:
    """Select the sentence's content-word types.

    A token survives when it is not pure punctuation, not a stopword
    (case-folded test), and resolves to a table word (exact match, then
    lowercase).  Tokens resolving to the same vocabulary word merge into one
    type carrying every occurrence position.  Types whose row has no
    nonzero component (all +0.0 or -0.0) are dropped, so every surviving
    row supports a defined cosine.
    """
    positions: dict[str, list[int]] = {}
    for pos, token in enumerate(sentence.tokens):
        if is_punctuation(token) or token.casefold() in stopwords:
            continue
        key = resolve_vocab_word(table, token)
        if key is not None:
            positions.setdefault(key, []).append(pos)
    words = list(positions)
    rows = np.array([table.vector(word) for word in words], dtype=np.float32)
    # A sentence with no candidate token still has a (0, dimension) block.
    rows = rows.reshape(len(words), table.dimension)
    nonzero = rows.any(axis=1)
    kept = [word for word, keep in zip(words, nonzero) if keep]
    return ContentWords(
        tuple(kept), tuple(tuple(positions[word]) for word in kept), rows[nonzero]
    )
