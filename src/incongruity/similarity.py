"""Sentence-level similarity and discordance features over content-word pairs.

For a sentence with content-word types w_1..w_n (n >= 2), every unordered
pair gets a raw cosine score and a token distance (the minimum absolute
position difference over all occurrence pairs, measured on raw token
positions so stopwords and punctuation still count as distance).

The cosines are one Gram matrix per sentence of its unit-normalized float64
rows, clamped and exactly symmetric; they can differ in the last bits from a
cosine computed one pair at a time as a dot product over the product of the
two norms.

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
of zeros for a sentence with fewer than two content-word types.  It takes
the content words of a corpus's token table from
:func:`~incongruity.text.content_index`
and runs each stage -- gather, normalize, Gram product, distances,
extremes -- once per chunk of sentences with the same shape.

Feature names ("emb.s.max_sim", ...) are a persisted contract: anything
written to feature files or model files uses exactly these strings.
"""

from __future__ import annotations

import enum

import numpy as np

from .embeddings import EmbeddingTable
from .errors import InputError
from .text import CHUNK_BYTES, TokenTable, content_index


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
        raise InputError(
            f"unknown augmentation {text!r}; expected one of {tuple(m.value for m in cls)}"
        )


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


def _cosines(rows: np.ndarray) -> np.ndarray:
    """The (k, n, n) cosines of k stacked (n, d) float32 row sets, NaN diagonal.

    One Gram product per set of unit-normalized float64 rows, clamped to
    [-1, 1].
    """
    rows = rows.astype(np.float64)
    rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
    gram = rows @ rows.transpose(0, 2, 1)
    # The product need not round (i, j) and (j, i) alike; the elementwise
    # minimum with the transpose is exactly symmetric.
    scores = np.clip(np.minimum(gram, gram.transpose(0, 2, 1)), -1.0, 1.0)
    diagonal = np.arange(rows.shape[1])
    scores[:, diagonal, diagonal] = np.nan
    return scores


def _distances(occurrences: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The (k, n, n) minimum token distances between the n types of k sentences.

    Row i of ``occurrences`` (k, s) holds sentence i's content-word token
    positions type by type, and type j's run starts at ``starts[i, j]``.
    The gaps between every two occurrences are reduced by type runs, first
    along rows and then along columns.
    """
    k, s = occurrences.shape
    n = starts.shape[1]
    gaps = np.abs(occurrences[:, :, None] - occurrences[:, None, :]).reshape(k * s, s)
    # Every sentence's type runs, counted along the stacked rows.
    runs = (starts + s * np.arange(k)[:, None]).ravel()
    by_row = np.minimum.reduceat(gaps, runs, axis=0)
    by_column = by_row.reshape(k, n, s).transpose(0, 2, 1).reshape(k * s, n)
    return np.minimum.reduceat(by_column, runs, axis=0).reshape(k, n, n)


def _extremes(matrices: np.ndarray) -> np.ndarray:
    """(k, 4) extremes of k stacked (n, n) matrices, diagonals ignored.

    Per matrix: (max_i best_i, min_i best_i, max_i worst_i, min_i worst_i).
    """
    # Masking the diagonal with infinities rather than calling nanmax and
    # nanmin keeps a NaN pair score visible in the result.
    off_diagonal = ~np.eye(matrices.shape[-1], dtype=bool)
    best = np.where(off_diagonal, matrices, -np.inf).max(axis=-1)
    worst = np.where(off_diagonal, matrices, np.inf).min(axis=-1)
    return np.stack([best.max(-1), best.min(-1), worst.max(-1), worst.min(-1)], axis=-1)


def similarity_block(tokens: TokenTable, table: EmbeddingTable) -> np.ndarray:
    """The (n, 8) float64 S+WS values of the sentences of ``tokens`` under
    ``table``.

    Columns follow ``Augmentation.S_AND_WS.feature_names``.  A sentence
    with fewer than two content-word types gets a row of zeros.

    Sentences with the same numbers of content-word types and of their
    occurrences are stacked, about :data:`~incongruity.text.CHUNK_BYTES`
    of them at a time, and each stage runs once per stack.  Every set of
    rows still gets its own Gram product, and maxima and minima do not
    depend on order, so a row's bits do not depend on its neighbours.
    """
    index = content_index(tokens, table)
    types = np.diff(index.type_ptr)
    occurrences = np.diff(index.position_ptr[index.type_ptr])
    scored = np.flatnonzero(types >= 2)
    scored = scored[np.lexsort((occurrences[scored], types[scored]))]
    edges = np.flatnonzero(np.diff(types[scored]) | np.diff(occurrences[scored])) + 1
    block = np.zeros((len(tokens.sentences), len(S_FEATURE_NAMES + WS_FEATURE_NAMES)))
    for group in np.split(scored, edges) if len(scored) else ():
        n, s = int(types[group[0]]), int(occurrences[group[0]])
        # The float64 rows, a few (n, n) stages and the (s, s) gaps.
        step = max(1, CHUNK_BYTES // (8 * (n * table.dimension + 4 * n * n + 2 * s * s)))
        for start in range(0, len(group), step):
            members = group[start : start + step]
            type_ids = index.type_ptr[members, None] + np.arange(n)
            scores = _cosines(table.vectors[index.rows[type_ids]])
            first = index.position_ptr[index.type_ptr[members], None]
            distances = _distances(
                index.positions[first + np.arange(s)], index.position_ptr[type_ids] - first
            )
            # WS: each pair score over its squared distance.
            weighted = scores / distances**2
            block[members] = np.hstack([_extremes(scores), _extremes(weighted)])
    return block
