"""Sentence-level similarity and discordance features over content-word pairs.

For a sentence with content-word types w_1..w_n (n >= 2), every unordered
pair gets a raw cosine score and a token distance (the minimum absolute
position difference over all occurrence pairs, measured on raw token
positions so stopwords and punctuation still count as distance).

The cosines are one Gram matrix of the unit-normalized float64 rows, clamped
and exactly symmetric; they can differ in the last bits from a cosine computed
one pair at a time as a dot product over the product of the two norms.

Two four-value blocks summarize the pair structure:

* unweighted (S): for each word i, best_i is the maximum pair score with
  any other word and worst_i the minimum.  The block is
  (max_i best_i, min_i best_i, max_i worst_i, min_i worst_i): the most
  similar pair, the weakest best match, and the two analogues over each
  word's most dissimilar counterpart.
* distance-weighted (WS): identical structure computed on
  score / distance**2, which discounts pairs that sit far apart in the
  sentence.

:func:`similarity_block` is the one producer of these values: an
(n, 8) array per corpus and table, S columns then WS columns, with a row
of zeros for a sentence with fewer than two content-word types.

Feature names ("emb.s.max_sim", ...) are a persisted contract: anything
written to feature files or model files uses exactly these strings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingTable
from .text import ContentWords, TokenizedSentence, content_words


class Augmentation(enum.Enum):
    """Which similarity block(s) a configuration adds to its prior features."""

    NONE = "none"
    S = "S"
    WS = "WS"
    S_AND_WS = "S+WS"

    @property
    def label(self) -> str:
        return self.value

    @property
    def feature_names(self) -> tuple[str, ...]:
        """The similarity feature names this selection adds, in block order."""
        s = S_FEATURE_NAMES if self in (Augmentation.S, Augmentation.S_AND_WS) else ()
        ws = WS_FEATURE_NAMES if self in (Augmentation.WS, Augmentation.S_AND_WS) else ()
        return s + ws

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


def pairwise_scores(content: ContentWords) -> PairwiseScores:
    """Compute all pair cosines and minimum token distances.

    Raises ValueError when the sentence has fewer than two content-word
    types, since no pair exists.
    """
    n = len(content)
    if n < 2:
        raise ValueError(f"need at least 2 content-word types, found {n}")
    rows = content.rows.astype(np.float64)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    gram = rows @ rows.T
    # The product need not round (i, j) and (j, i) alike; the elementwise
    # minimum with the transpose is exactly symmetric.
    scores = np.clip(np.minimum(gram, gram.T), -1.0, 1.0)
    np.fill_diagonal(scores, np.nan)
    positions = np.concatenate(content.positions)
    starts = list(accumulate(map(len, content.positions[:-1]), initial=0))
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


def similarity_block(
    sentences: Sequence[TokenizedSentence],
    table: EmbeddingTable,
    stopwords: frozenset[str],
) -> np.ndarray:
    """The (n, 8) float64 S+WS values of ``sentences`` under ``table``.

    Columns follow ``Augmentation.S_AND_WS.feature_names``.  A sentence
    with fewer than two content-word types gets a row of zeros.
    """
    block = np.zeros((len(sentences), len(S_FEATURE_NAMES + WS_FEATURE_NAMES)))
    for row, sentence in zip(block, sentences):
        content = content_words(sentence, stopwords, table)
        if len(content) >= 2:
            pairs = pairwise_scores(content)
            row[:] = unweighted_features(pairs) + weighted_features(pairs)
    return block
