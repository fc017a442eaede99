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

All extractors return plain name -> value fragments.  ``harness._compile``,
the one place that numbers them, interns a corpus's names through a
:class:`FeatureRegistry`, drops zero values and sorts each row by id;
``harness.extract_features`` returns each row as a :class:`FeatureVector`.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .embeddings import EmbeddingTable
from .similarity import Augmentation
from .text import TokenizedSentence, is_punctuation

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


class ConfigurationError(ValueError):
    """A feature configuration references unknown resources or ids."""


class LexiconFormatError(ValueError):
    """A lexicon file line violates the '<entry>\\t<tag>[,<tag>...]' format."""


@dataclass(frozen=True)
class Lexicon:
    """Tagged word / phrase list.  Entries are stored lowercased."""

    name: str
    entries: Mapping[str, frozenset[str]]

    def tags(self, entry: str) -> frozenset[str]:
        return self.entries.get(entry.lower(), frozenset())

    def polarity(self, token: str) -> int:
        """+1 for positive, -1 for negative, 0 for neutral or ambiguous."""
        tags = self.tags(token)
        positive = "positive" in tags
        negative = "negative" in tags
        if positive == negative:
            return 0
        return 1 if positive else -1

    def with_tag(self, tag: str) -> tuple[str, ...]:
        return tuple(e for e, tags in self.entries.items() if tag in tags)


def load_lexicon(path: str | Path, name: str | None = None) -> Lexicon:
    """Parse a lexicon file.

    Each non-comment line is ``<word-or-phrase>\\t<tag>[,<tag>...]``;
    phrases may contain spaces.  Unknown tags raise
    :class:`LexiconFormatError` naming the line.  Repeated entries merge
    their tag sets, so entry keys are unique in the result.
    """
    path = Path(path)
    entries: dict[str, set[str]] = {}
    with open(path, encoding="utf-8") as handle:
        try:
            for lineno, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                parts = stripped.split("\t")
                if len(parts) != 2:
                    raise LexiconFormatError(
                        f"{path}: line {lineno}: expected '<entry>\\t<tags>'"
                    )
                entry = unicodedata.normalize("NFC", parts[0].strip()).lower()
                tags = {t.strip() for t in parts[1].split(",") if t.strip()}
                if not entry or not tags:
                    raise LexiconFormatError(
                        f"{path}: line {lineno}: empty entry or tag list"
                    )
                unknown = tags - LEXICON_TAGS
                if unknown:
                    raise LexiconFormatError(
                        f"{path}: line {lineno}: unknown tag(s) {sorted(unknown)}"
                    )
                entries.setdefault(entry, set()).update(tags)
        except UnicodeDecodeError as exc:
            # Decoding runs ahead by a buffer, so the line is not known.
            raise LexiconFormatError(f"{path}: not valid UTF-8") from exc
    return Lexicon(
        name or path.stem,
        {entry: frozenset(tags) for entry, tags in entries.items()},
    )


_DEFAULT_LEXICON: Lexicon | None = None


def default_lexicon() -> Lexicon:
    """The small open lexicon shipped with the package."""
    global _DEFAULT_LEXICON
    if _DEFAULT_LEXICON is None:
        ref = resources.files("incongruity.data").joinpath("sentiment_lexicon.tsv")
        with resources.as_file(ref) as path:
            _DEFAULT_LEXICON = load_lexicon(path, name="default")
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


_NGRAM_PREFIX = {1: "uni", 2: "bi", 3: "tri"}


def _word_tokens(sentence: TokenizedSentence) -> list[str]:
    return [t.lower() for t in sentence.tokens if not is_punctuation(t)]


def ngram_features(sentence: TokenizedSentence, n_max: int) -> dict[str, float]:
    """Binary presence of 1..n_max-grams over lowercased word tokens."""
    if not 1 <= n_max <= 3:
        raise ValueError("n_max must be 1, 2, or 3")
    words = _word_tokens(sentence)
    fragment: dict[str, float] = {}
    for n in range(1, n_max + 1):
        prefix = _NGRAM_PREFIX[n]
        for start in range(len(words) - n + 1):
            fragment[f"{prefix}:{'_'.join(words[start : start + n])}"] = 1.0
    return fragment


def lexicon_category_features(
    sentence: TokenizedSentence, lexicon: Lexicon
) -> dict[str, float]:
    """Per-category token counts (G's dictionary block).

    Counts how many sentence tokens carry the ``emotion`` and
    ``psych_process`` tags; a token tagged with both increments both.
    Categories with no hits are omitted.
    """
    fragment: dict[str, float] = {}
    for category in ("emotion", "psych_process"):
        count = sum(
            1 for tok in sentence.tokens if category in lexicon.tags(tok)
        )
        if count:
            fragment[f"lexcat.{category}"] = float(count)
    return fragment


_QUOTE_CHARS = set("\"'“”‘’`«»")
_ELLIPSIS_MARKS = ("...", "…")


def _has_ellipsis(token: str) -> bool:
    return any(mark in token for mark in _ELLIPSIS_MARKS)


def _punctuation_mark_counts(tokens: Iterable[str]) -> dict[str, int]:
    counts = {
        "exclamation": 0,
        "question": 0,
        "period": 0,
        "comma": 0,
        "quote": 0,
        "ellipsis": 0,
        "other": 0,
    }
    for token in tokens:
        if not is_punctuation(token):
            continue
        ellipses = token.count("…")
        rest = token.replace("…", "")
        ellipses += rest.count("...")
        rest = rest.replace("...", "")
        counts["ellipsis"] += ellipses
        for ch in rest:
            if ch == "!":
                counts["exclamation"] += 1
            elif ch == "?":
                counts["question"] += 1
            elif ch == ".":
                counts["period"] += 1
            elif ch == ",":
                counts["comma"] += 1
            elif ch in _QUOTE_CHARS:
                counts["quote"] += 1
            else:
                counts["other"] += 1
    return counts


def _longest_run(values: list[int], sign: int) -> int:
    longest = 0
    current = 0
    for value in values:
        if value == sign:
            current += 1
            longest = max(longest, current)
        else:
            current = 0
    return longest


def pragmatic_features(
    sentence: TokenizedSentence, lexicon: Lexicon
) -> dict[str, float]:
    """B's pragmatic block plus unigrams.

    "Emphasis" below means an exclamation or question mark in the token
    immediately following a sentiment word.
    """
    tokens = sentence.tokens
    token_polarity = [lexicon.polarity(t) for t in tokens]
    fragment = ngram_features(sentence, 1)

    if _longest_run(token_polarity, 1) >= 3 or _longest_run(token_polarity, -1) >= 3:
        fragment["prag.hyperbole"] = 1.0
    punct_tokens = [t for t in tokens if is_punctuation(t)]
    if any(set(t) & _QUOTE_CHARS for t in punct_tokens):
        fragment["prag.quotes"] = 1.0
    if any(_has_ellipsis(t) for t in punct_tokens):
        fragment["prag.ellipsis"] = 1.0

    for i, polarity in enumerate(token_polarity[:-1]):
        if polarity == 0:
            continue
        follower = tokens[i + 1]
        if not is_punctuation(follower):
            continue
        side = "pos" if polarity > 0 else "neg"
        if "!" in follower or "?" in follower:
            fragment[f"prag.{side}_then_emphasis"] = 1.0
        if _has_ellipsis(follower):
            fragment[f"prag.{side}_then_ellipsis"] = 1.0

    for mark_class, count in _punctuation_mark_counts(tokens).items():
        if count:
            fragment[f"prag.punct.{mark_class}"] = float(count)

    interjections = sum(1 for t in tokens if "interjection" in lexicon.tags(t))
    if interjections:
        fragment["prag.interjections"] = float(interjections)
    laughter = sum(1 for t in tokens if "laughter" in lexicon.tags(t))
    if laughter:
        fragment["prag.laughter"] = float(laughter)
    return fragment


def incongruity_features(
    sentence: TokenizedSentence, lexicon: Lexicon
) -> dict[str, float]:
    """J's polarity-sequence block plus unigrams.

    The polarity sequence keeps +1/-1 for positive/negative tokens in
    order and skips neutral tokens entirely.  Implicit-incongruity
    phrases are counted by non-overlapping substring match against the
    NFC-normalized, lowercased raw sentence, the form lexicon entries and
    tokens take.
    """
    sequence = [
        p for p in (lexicon.polarity(t) for t in sentence.tokens) if p != 0
    ]
    fragment = ngram_features(sentence, 1)

    flips = sum(1 for a, b in zip(sequence, sequence[1:]) if a != b)
    if flips:
        fragment["incong.flips"] = float(flips)
    pos_run = _longest_run(sequence, 1)
    if pos_run:
        fragment["incong.longest_pos_run"] = float(pos_run)
    neg_run = _longest_run(sequence, -1)
    if neg_run:
        fragment["incong.longest_neg_run"] = float(neg_run)
    polarity_sum = sum(sequence)
    if polarity_sum:
        fragment["incong.polarity"] = float(polarity_sum)

    haystack = unicodedata.normalize("NFC", sentence.raw).lower()
    matches = sum(
        haystack.count(phrase)
        for phrase in lexicon.with_tag("implicit_incongruity_phrase")
    )
    if matches:
        fragment["incong.implicit_matches"] = float(matches)
    return fragment


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
    sentence: TokenizedSentence, prior_set: str, lexicon: Lexicon
) -> list[Mapping[str, float]]:
    """One sentence's fragments under the prior set ``prior_set``.  They do
    not depend on any registry; ``harness._compile`` numbers them.  The S/WS
    values come from :func:`~incongruity.similarity.similarity_block`."""
    if prior_set == "L":
        return [ngram_features(sentence, 3)]
    if prior_set == "G":
        return [ngram_features(sentence, 1), lexicon_category_features(sentence, lexicon)]
    if prior_set == "B":
        return [pragmatic_features(sentence, lexicon)]
    return [incongruity_features(sentence, lexicon)]
