"""Sentence-level similarity and discordance features over content-word pairs.

For a sentence with content-word types w_1..w_n (n >= 2), every unordered
pair gets a raw cosine score and a token distance (the minimum absolute
position difference over all occurrence pairs, measured on raw token
positions so stopwords and punctuation still count as distance).

The cosines are one Gram matrix of the unit-normalized float64 rows, clamped
and exactly symmetric; they can differ from ``cosine_similarity`` in the last bits.

Two four-value blocks summarize the pair structure:

* unweighted (S): for each word i, best_i is the maximum pair score with
  any other word and worst_i the minimum.  The block is
  (max_i best_i, min_i best_i, max_i worst_i, min_i worst_i): the most
  similar pair, the weakest best match, and the two analogues over each
  word's most dissimilar counterpart.
* distance-weighted (WS): identical structure computed on
  score / distance**2, which discounts pairs that sit far apart in the
  sentence.

Feature names ("emb.s.max_sim", ...) are a persisted contract: anything
written to feature files or model files uses exactly these strings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .embeddings import EmbeddingTable
from .text import ContentWordSet, TokenizedSentence, content_words


class InsufficientContentError(ValueError):
    """Fewer than two content-word types; no pair features exist."""


class Augmentation(enum.Enum):
    """Which similarity block(s) a configuration adds to its prior features."""

    NONE = "none"
    S = "S"
    WS = "WS"
    S_AND_WS = "S+WS"

    @property
    def label(self) -> str:
        return self.value

    @classmethod
    def parse(cls, text: str) -> "Augmentation":
        for member in cls:
            if member.value == text:
                return member
        raise ValueError(f"unknown augmentation {text!r}")


S_FEATURE_NAMES = (
    "emb.s.max_sim",
    "emb.s.min_sim",
    "emb.s.max_dissim",
    "emb.s.min_dissim",
)
WS_FEATURE_NAMES = (
    "emb.ws.max_sim",
    "emb.ws.min_sim",
    "emb.ws.max_dissim",
    "emb.ws.min_dissim",
)


@dataclass(frozen=True)
class PairwiseScores:
    """Pair scores and token distances for one sentence's content words.

    ``scores`` is symmetric with NaN on the diagonal (a word has no score
    with itself); ``distances`` is symmetric with zeros on the diagonal
    and every off-diagonal entry >= 1.
    """

    words: tuple[str, ...]
    scores: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        n = len(self.words)
        if self.scores.shape != (n, n) or self.distances.shape != (n, n):
            raise ValueError("matrix shapes must match word count")


def pairwise_scores(content: ContentWordSet) -> PairwiseScores:
    """Compute all pair cosines and minimum token distances.

    Raises :class:`InsufficientContentError` when the sentence has fewer
    than two content-word types.
    """
    n = len(content)
    if n < 2:
        raise InsufficientContentError(
            f"need at least 2 content-word types, found {n}"
        )
    entries = content.entries
    rows = np.array([entry.vector for entry in entries], dtype=np.float64)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    gram = rows @ rows.T
    # The product need not round (i, j) and (j, i) alike; the elementwise
    # minimum with the transpose is exactly symmetric.
    scores = np.clip(np.minimum(gram, gram.T), -1.0, 1.0)
    np.fill_diagonal(scores, np.nan)
    positions = np.concatenate([entry.positions for entry in entries])
    starts = list(accumulate((len(entry.positions) for entry in entries[:-1]), initial=0))
    gaps = np.abs(positions[:, None] - positions[None, :])
    distances = np.minimum.reduceat(np.minimum.reduceat(gaps, starts), starts, axis=1)
    return PairwiseScores(content.words, scores, distances)


def _extremes(matrix: np.ndarray) -> tuple[float, float, float, float]:
    # Masking the diagonal with infinities rather than calling nanmax and
    # nanmin keeps a NaN pair score visible in the result.
    off_diagonal = ~np.eye(len(matrix), dtype=bool)
    best = np.where(off_diagonal, matrix, -np.inf).max(axis=1)
    worst = np.where(off_diagonal, matrix, np.inf).min(axis=1)
    return (
        float(best.max()),
        float(best.min()),
        float(worst.max()),
        float(worst.min()),
    )


def unweighted_features(pairwise: PairwiseScores) -> tuple[float, float, float, float]:
    """The S block: (max_sim, min_sim, max_dissim, min_dissim) on raw scores."""
    return _extremes(pairwise.scores)


def weighted_features(pairwise: PairwiseScores) -> tuple[float, float, float, float]:
    """The WS block: the same extremes on score / distance**2."""
    return _extremes(pairwise.scores / pairwise.distances**2)


def embed_features(
    sentence: TokenizedSentence,
    table: EmbeddingTable,
    which: Augmentation,
    *,
    stopwords: frozenset[str],
) -> dict[str, float]:
    """Compute the named similarity features for one sentence.

    Returns an ordered name -> value mapping with exactly 4 entries for
    ``S`` or ``WS`` and 8 for ``S_AND_WS``.  Sentences with fewer than two
    in-vocabulary content words yield all-zero values for the selected
    block(s) rather than an error.
    """
    if which is Augmentation.NONE:
        raise ValueError("embed_features needs a non-empty block selection")
    try:
        pairs = pairwise_scores(content_words(sentence, stopwords, table))
    except InsufficientContentError:
        s_values = (0.0, 0.0, 0.0, 0.0)
        ws_values = (0.0, 0.0, 0.0, 0.0)
    else:
        s_values = unweighted_features(pairs)
        ws_values = weighted_features(pairs)
    features: dict[str, float] = {}
    if which in (Augmentation.S, Augmentation.S_AND_WS):
        features.update(zip(S_FEATURE_NAMES, s_values))
    if which in (Augmentation.WS, Augmentation.S_AND_WS):
        features.update(zip(WS_FEATURE_NAMES, ws_values))
    return features
