"""Sparse feature vectors, the feature-name registry, and prior feature sets.

Four prior feature sets reproduce common sarcasm baselines:

* ``L`` -- binary presence of word uni/bi/trigrams (lowercased word
  tokens, punctuation excluded).
* ``G`` -- unigrams plus per-category token counts from a tag lexicon
  (``emotion`` and ``psych_process`` categories).
* ``B`` -- unigrams plus pragmatic markers: hyperbole (three or more
  consecutive same-polarity sentiment words), quotation-mark and ellipsis
  presence, sentiment words directly followed by emphasis marks or an
  ellipsis, punctuation counts per mark class, interjection and laughter
  counts.
* ``J`` -- unigrams plus polarity-sequence incongruity: sentiment flips,
  longest positive/negative runs, summed lexical polarity, and counts of
  implicit-incongruity phrase matches.

:func:`build_config_features` extracts a prior set for a whole corpus at
once from its :class:`~incongruity.text.TokenTable`.  Each distinct token
string (type) is looked up in the lexicon once, each distinct word n-gram
gets its name once, and the per-sentence values are gathered from per-type
arrays.  The result is a list of :class:`Fragment`, each one family of
named values over every sentence.  ``harness._compile``, the one place that
numbers them, interns a corpus's names through a :class:`FeatureRegistry`,
drops zero values and sorts each row by id; ``harness.extract_features``
returns each row as a :class:`FeatureVector`.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from importlib import resources
from itertools import compress, repeat
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .embeddings import EmbeddingTable
from .errors import InputError, read_lines
from .similarity import Augmentation
from .text import TokenTable

PRIOR_SETS = ("L", "G", "B", "J")

LEXICON_TAGS = frozenset(
    {
        "positive",
        "negative",
        "emotion",
        "psych_process",
        "interjection",
        "laughter",
        "implicit_incongruity_phrase",
    }
)


class ConfigurationError(InputError):
    """A feature configuration references unknown resources or ids."""


class LexiconFormatError(InputError):
    """A lexicon file line violates the '<entry>\\t<tag>[,<tag>...]' format."""


@dataclass(frozen=True)
class Lexicon:
    """Tagged word / phrase list.  Entries are stored lowercased."""

    entries: Mapping[str, frozenset[str]]

    def with_tag(self, tag: str) -> tuple[str, ...]:
        return tuple(e for e, tags in self.entries.items() if tag in tags)


def _polarity(tags: frozenset[str]) -> int:
    """+1 for positive, -1 for negative, 0 for neutral or ambiguous."""
    positive = "positive" in tags
    negative = "negative" in tags
    if positive == negative:
        return 0
    return 1 if positive else -1


def load_lexicon(path: str | Path) -> Lexicon:
    """Parse a lexicon file through :func:`~incongruity.errors.read_lines`.

    Each non-comment line is ``<word-or-phrase>\\t<tag>[,<tag>...]``;
    phrases may contain spaces.  Unknown tags raise
    :class:`LexiconFormatError` naming the line.  Repeated entries merge
    their tag sets, so entry keys are unique in the result.
    """
    entries: dict[str, set[str]] = {}
    for lineno, line in read_lines(path, LexiconFormatError):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split("\t")
        if len(parts) != 2:
            raise LexiconFormatError(f"{path}: line {lineno}: expected '<entry>\\t<tags>'")
        entry = unicodedata.normalize("NFC", parts[0].strip()).lower()
        tags = {t.strip() for t in parts[1].split(",") if t.strip()}
        if not entry or not tags:
            raise LexiconFormatError(f"{path}: line {lineno}: empty entry or tag list")
        unknown = tags - LEXICON_TAGS
        if unknown:
            raise LexiconFormatError(
                f"{path}: line {lineno}: unknown tag(s) {sorted(unknown)}"
            )
        entries.setdefault(entry, set()).update(tags)
    return Lexicon({entry: frozenset(tags) for entry, tags in entries.items()})


_DEFAULT_LEXICON: Lexicon | None = None


def default_lexicon() -> Lexicon:
    """The small open lexicon shipped with the package."""
    global _DEFAULT_LEXICON
    if _DEFAULT_LEXICON is None:
        ref = resources.files("incongruity.data").joinpath("sentiment_lexicon.tsv")
        with resources.as_file(ref) as path:
            _DEFAULT_LEXICON = load_lexicon(path)
    return _DEFAULT_LEXICON


class FeatureRegistry:
    """Bidirectional name <-> integer id mapping shared across a run.

    Ids are dense, assigned in interning order.  Once frozen, unseen names
    intern to ``None`` so test-time extraction can silently drop features
    the training data never produced.  A registry is not safe to share
    between threads.
    """

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        self._frozen = False

    def intern(self, name: str) -> int | None:
        fid = self._ids.get(name)
        if fid is None and not self._frozen:
            fid = len(self._names)
            self._names.append(name)
            self._ids[name] = fid
        return fid

    def freeze(self) -> None:
        self._frozen = True

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def name_of(self, fid: int) -> str:
        return self._names[fid]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._names)


class FeatureVector:
    """One sentence's sparse row: aligned read-only arrays of its nonzero
    entries, ids ascending.  ``harness.extract_features`` builds each from
    views of its compiled corpus; the constructor holds read-only views of
    the arrays it is given and neither sorts them nor drops zeros."""

    __slots__ = ("_ids", "_values")

    def __init__(self, ids: np.ndarray, values: np.ndarray):
        self._ids = np.asarray(ids, dtype=np.int64).view()
        self._values = np.asarray(values, dtype=np.float64).view()
        self._ids.setflags(write=False)
        self._values.setflags(write=False)

    def items(self) -> Iterator[tuple[int, float]]:
        """(id, value) pairs, ids ascending."""
        return zip(self._ids.tolist(), self._values.tolist())

    def __len__(self) -> int:
        return len(self._ids)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, values) as aligned read-only numpy arrays with ids ascending."""
        return self._ids, self._values


class Fragment(NamedTuple):
    """One family of named values over a whole corpus: for every sentence at
    once, what one name -> value dict held for a sentence.

    Entry k gives row ``rows[k]`` the value ``values[k]`` under the name
    ``names[name_ids[k]]``.  Rows ascend, a row's entries are in the order
    the row emits its names, and a row holds a name at most once.  Entries
    of one name share one name id.
    """

    names: Sequence[str]
    rows: np.ndarray
    name_ids: np.ndarray
    values: np.ndarray


def _first_per_row(rows: np.ndarray, name_ids: np.ndarray, n_names: int) -> np.ndarray:
    """Positions of the first entry of each (row, name), ascending: a name
    a row emits again keeps its first place, as in a dict."""
    keys = rows * n_names + name_ids
    order = np.argsort(keys)
    groups = np.flatnonzero(np.diff(keys[order], prepend=-1))
    first = np.zeros(len(keys), dtype=bool)
    first[np.minimum.reduceat(order, groups)] = True
    return np.flatnonzero(first)


def _ones(n: int) -> np.ndarray:
    """n values of 1.0 (presence), as a read-only view of one number."""
    return np.broadcast_to(1.0, n)


def _dense(names: Sequence[str], matrix: np.ndarray) -> Fragment:
    """The nonzero values of the (n, len(names)) ``matrix``, row by row."""
    rows, columns = np.nonzero(matrix)
    return Fragment(names, rows, columns, matrix[rows, columns])


def _token_sums(tokens: TokenTable, per_type: np.ndarray) -> np.ndarray:
    """Per sentence, the sum of ``per_type`` over its tokens' types: with a
    flag per type, how many of its tokens are of a flagged type."""
    return np.bincount(
        tokens.sentence_ids, weights=per_type[tokens.type_ids], minlength=len(tokens.sentences)
    )


class _TypeTags(NamedTuple):
    """The lexicon tags of a corpus's types: type t carries ``tags[entry[t]]``,
    and the last tag set, empty, is that of every type with no entry."""

    entry: np.ndarray
    tags: list[frozenset[str]]

    def tagged(self, tag: str) -> np.ndarray:
        """Per type, whether it carries ``tag``."""
        return np.array([tag in t for t in self.tags], dtype=bool)[self.entry]

    def polarity(self) -> np.ndarray:
        """Per type, its tags' :func:`_polarity`."""
        return np.array([_polarity(t) for t in self.tags], dtype=np.int64)[self.entry]


def _type_tags(tokens: TokenTable, lexicon: Lexicon) -> _TypeTags:
    """Look each type up in ``lexicon`` once.  Entries are stored lowercased,
    so a type's entry is that of its lowercase form."""
    tags = [*lexicon.entries.values(), frozenset()]
    index = dict(zip(lexicon.entries, range(len(tags) - 1)))
    entry = map(index.get, tokens.lower, repeat(len(tags) - 1))
    return _TypeTags(np.fromiter(entry, np.int64, len(tokens.types)), tags)


_NGRAM_PREFIX = {1: "uni", 2: "bi", 3: "tri"}


def _word_tokens(tokens: TokenTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct lowercased words (punctuation excluded), as an object
    array, and for each word token in corpus order its word id and its
    sentence."""
    vocabulary = list(dict.fromkeys(compress(tokens.lower, (~tokens.punctuation).tolist())))
    index = dict(zip(vocabulary, range(len(vocabulary))))
    # A punctuation type's id is never read.
    word_of_type = np.fromiter(
        map(index.get, tokens.lower, repeat(-1)), np.int64, len(tokens.types)
    )
    kept = np.flatnonzero(~tokens.punctuation[tokens.type_ids])
    words = np.array(vocabulary, dtype=object)
    return words, word_of_type[tokens.type_ids[kept]], tokens.sentence_ids[kept]


def _gram_names(
    prefix: str, words: np.ndarray, columns: list[np.ndarray]
) -> tuple[list[str], np.ndarray]:
    """The names of the grams whose i-th words are ``words[columns[i]]``, and
    each gram's name id; tuples that join to one name share an id."""
    form = f"{prefix}:" + "_".join(["%s"] * len(columns))
    names = list(map(form.__mod__, zip(*(words[column] for column in columns))))
    # Only a word holding "_" lets two tuples join to one name ("a_b c" and
    # "a b_c").
    if len(columns) == 1 or not any("_" in word for word in words):
        return names, np.arange(len(names))
    position = dict(zip(names, range(len(names))))
    return names, np.fromiter(map(position.__getitem__, names), np.int64, len(names))


def _ngrams(tokens: TokenTable, n_max: int) -> list[Fragment]:
    """Binary presence of 1..n_max-grams over lowercased word tokens
    (punctuation excluded), one fragment per order.

    Each distinct n-gram, as a tuple of word ids, is named once, and a row
    holds each name once.
    """
    words, sequence, rows = _word_tokens(tokens)
    width = max(len(words), 1)
    # The order-n grams start at word tokens ``starts``; the one starting at
    # token j has id ``grams[j]``, and gram g is the words ``columns[i][g]``.
    starts = np.arange(len(sequence))
    grams = sequence
    columns = [np.arange(len(words))]
    fragments = []
    for n in range(1, n_max + 1):
        if n > 1:
            # An (n-1)-gram extends by the word n-1 tokens on, in its sentence.
            starts = starts[starts + n - 1 < len(sequence)]
            starts = starts[rows[starts + n - 1] == rows[starts]]
            tuples, inverse = np.unique(
                grams[starts] * width + sequence[starts + n - 1], return_inverse=True
            )
            heads, tails = np.divmod(tuples, width)
            columns = [*(column[heads] for column in columns), tails]
            grams = np.zeros(len(sequence), dtype=np.int64)
            grams[starts] = inverse.ravel()
        names, name_of_gram = _gram_names(_NGRAM_PREFIX[n], words, columns)
        gram_rows, name_ids = rows[starts], name_of_gram[grams[starts]]
        keep = _first_per_row(gram_rows, name_ids, len(names))
        fragments.append(Fragment(names, gram_rows[keep], name_ids[keep], _ones(len(keep))))
    return fragments


_CATEGORY_NAMES = ("lexcat.emotion", "lexcat.psych_process")


def _categories(tokens: TokenTable, tags: _TypeTags) -> Fragment:
    """G's dictionary block: per category, how many tokens carry its tag; a
    token tagged with both counts in both.  Categories with no hits are
    omitted."""
    counts = [_token_sums(tokens, tags.tagged(name.split(".")[1])) for name in _CATEGORY_NAMES]
    return _dense(_CATEGORY_NAMES, np.column_stack(counts))


_QUOTE_CHARS = set("\"'“”‘’`«»")
_ELLIPSIS_MARKS = ("...", "…")
_MARK_CLASSES = ("exclamation", "question", "period", "comma", "quote", "ellipsis", "other")
_MARK_OF_CHAR = {"!": 0, "?": 1, ".": 2, ",": 3, **dict.fromkeys(_QUOTE_CHARS, 4)}


def _has_ellipsis(token: str) -> bool:
    return any(mark in token for mark in _ELLIPSIS_MARKS)


def _mark_counts(token: str) -> list[int]:
    """How many marks of each of :data:`_MARK_CLASSES` a token holds; an
    ellipsis ("..." or "…") counts once, not as periods."""
    counts = [0] * len(_MARK_CLASSES)
    counts[5] = token.count("…")
    rest = token.replace("…", "")
    counts[5] += rest.count("...")
    for ch in rest.replace("...", ""):
        counts[_MARK_OF_CHAR.get(ch, 6)] += 1
    return counts


_PRAGMATIC_FLAGS = ("prag.hyperbole", "prag.quotes", "prag.ellipsis")
_FOLLOWER_NAMES = (
    "prag.pos_then_emphasis",
    "prag.pos_then_ellipsis",
    "prag.neg_then_emphasis",
    "prag.neg_then_ellipsis",
)
_PRAGMATIC_COUNTS = (
    *(f"prag.punct.{mark}" for mark in _MARK_CLASSES),
    "prag.interjections",
    "prag.laughter",
)


def _pragmatic(
    tokens: TokenTable, tags: _TypeTags, polarity: np.ndarray
) -> list[Fragment]:
    """B's pragmatic block, in the order a sentence emits it: hyperbole
    (three or more consecutive same-polarity tokens), quotation-mark and
    ellipsis presence, sentiment words directly followed by a punctuation
    token holding "!" or "?" (emphasis) or an ellipsis, then the marks per
    class and the interjection and laughter counts."""
    n = len(tokens.sentences)
    ids, rows = tokens.type_ids, tokens.sentence_ids
    signed = polarity[ids]
    # Only punctuation tokens hold marks.
    marks = [t if punct else "" for t, punct in zip(tokens.types, tokens.punctuation.tolist())]
    quoted = np.fromiter((bool(_QUOTE_CHARS.intersection(t)) for t in marks), bool, len(marks))
    ellipsis = np.fromiter(map(_has_ellipsis, marks), bool, len(marks))
    emphasis = np.fromiter(("!" in t or "?" in t for t in marks), bool, len(marks))

    flags = np.zeros((n, len(_PRAGMATIC_FLAGS)))
    run = (signed[:-2] != 0) & (signed[:-2] == signed[1:-1]) & (signed[1:-1] == signed[2:])
    flags[rows[:-2][run & (rows[:-2] == rows[2:])], 0] = 1.0
    flags[rows[quoted[ids]], 1] = 1.0
    flags[rows[ellipsis[ids]], 2] = 1.0

    led = np.flatnonzero((signed[:-1] != 0) & (rows[:-1] == rows[1:]))
    follower = ids[led + 1]
    side = 2 * (signed[led] < 0)
    with_emphasis, with_ellipsis = emphasis[follower], ellipsis[follower]
    # A token's emphasis name comes before its ellipsis name.
    slots = np.concatenate([2 * led[with_emphasis], 2 * led[with_ellipsis] + 1])
    order = np.argsort(slots)
    follower_rows = rows[slots[order] // 2]
    names = np.concatenate([side[with_emphasis], side[with_ellipsis] + 1])[order]
    keep = _first_per_row(follower_rows, names, len(_FOLLOWER_NAMES))

    per_type = np.reshape([_mark_counts(t) for t in marks], (-1, len(_MARK_CLASSES)))
    counts = np.column_stack([
        *(_token_sums(tokens, column) for column in per_type.T),
        _token_sums(tokens, tags.tagged("interjection")),
        _token_sums(tokens, tags.tagged("laughter")),
    ])
    return [
        _dense(_PRAGMATIC_FLAGS, flags),
        Fragment(_FOLLOWER_NAMES, follower_rows[keep], names[keep], _ones(len(keep))),
        _dense(_PRAGMATIC_COUNTS, counts),
    ]


_INCONGRUITY_NAMES = (
    "incong.flips",
    "incong.longest_pos_run",
    "incong.longest_neg_run",
    "incong.polarity",
    "incong.implicit_matches",
)


def _incongruity(tokens: TokenTable, lexicon: Lexicon, polarity: np.ndarray) -> Fragment:
    """J's polarity-sequence block.

    A sentence's polarity sequence keeps +1/-1 for its positive/negative
    tokens in order and skips neutral tokens entirely: its flips, its
    longest positive and negative runs and its sum.  Implicit-incongruity
    phrases are counted by non-overlapping substring match against the
    NFC-normalized, lowercased raw sentence, the form lexicon entries and
    tokens take.
    """
    n = len(tokens.sentences)
    signed = polarity[tokens.type_ids]
    polar = np.flatnonzero(signed)
    rows, signs = tokens.sentence_ids[polar], signed[polar]
    # A run of one sign starts where the sentence or the sign changes.
    starts = np.flatnonzero(np.diff(rows, prepend=-1) | np.diff(signs, prepend=0))
    lengths = np.diff(starts, append=len(polar))
    run_rows, run_signs = rows[starts], signs[starts]
    values = np.zeros((n, len(_INCONGRUITY_NAMES)))
    # Every run after a sentence's first is one flip.
    values[:, 0] = np.bincount(run_rows[np.diff(run_rows, prepend=-1) == 0], minlength=n)
    for column, sign in ((1, 1), (2, -1)):
        chosen = run_signs == sign
        np.maximum.at(values[:, column], run_rows[chosen], lengths[chosen])
    values[:, 3] = np.bincount(rows, weights=signs, minlength=n)
    phrases = lexicon.with_tag("implicit_incongruity_phrase")
    if phrases:
        values[:, 4] = [
            sum(map(unicodedata.normalize("NFC", s.raw).lower().count, phrases))
            for s in tokens.sentences
        ]
    return _dense(_INCONGRUITY_NAMES, values)


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell of the experiment grid: prior set, augmentation, embedding."""

    prior_set: str
    augmentation: Augmentation = Augmentation.NONE
    embedding: str = ""

    def __post_init__(self):
        if self.prior_set not in PRIOR_SETS:
            raise ConfigurationError(
                f"unknown prior set {self.prior_set!r}; expected one of {PRIOR_SETS}"
            )
        if self.augmentation is not Augmentation.NONE and not self.embedding:
            raise ConfigurationError(
                "an embedding id is required when an augmentation is selected"
            )

    @property
    def label(self) -> str:
        if self.augmentation is Augmentation.NONE:
            return self.prior_set
        return f"{self.prior_set}+{self.augmentation.label}"

    @classmethod
    def parse(cls, text: str, embedding: str = "") -> "ExperimentConfig":
        """Parse strings like ``L``, ``G+S``, ``J+S+WS:emb-a``."""
        spec, _, named = text.partition(":")
        prior, _, aug = spec.partition("+")
        augmentation = Augmentation.parse(aug) if aug else Augmentation.NONE
        return cls(prior.strip(), augmentation, named.strip() or embedding)


def embedding_table(tables: Mapping[str, EmbeddingTable], name: str) -> EmbeddingTable:
    """``tables[name]``; an unknown name raises :class:`ConfigurationError`."""
    table = tables.get(name)
    if table is None:
        raise ConfigurationError(
            f"unknown embedding id {name!r}; available: {sorted(tables)}"
        )
    return table


def build_config_features(
    tokens: TokenTable, prior_set: str, lexicon: Lexicon
) -> list[Fragment]:
    """The fragments of every sentence of ``tokens`` under the prior set
    ``prior_set``, in the order a sentence emits them; each type's lexicon
    tags are looked up once.  They do not depend on any registry;
    ``harness._compile`` numbers them.  The S/WS values come from
    :func:`~incongruity.similarity.similarity_block`."""
    if prior_set == "L":
        return _ngrams(tokens, 3)
    unigrams = _ngrams(tokens, 1)
    tags = _type_tags(tokens, lexicon)
    if prior_set == "G":
        return [*unigrams, _categories(tokens, tags)]
    polarity = tags.polarity()
    if prior_set == "B":
        return [*unigrams, *_pragmatic(tokens, tags, polarity)]
    return [*unigrams, _incongruity(tokens, lexicon, polarity)]
