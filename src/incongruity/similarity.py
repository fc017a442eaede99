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

A row's bits depend on nothing but its sentence, so the chunks may be
computed in any process.  :func:`block_alongside` cuts them into runs of
about equal cost, one per usable CPU, and runs them as the shares of
:func:`~incongruity._workers.run_shares`: forked workers compute all but
the first and send their rows back pickled, while the running process
computes the first and then builds the prior features.  A corpus
whose chunks cost less than two ``_BLOCK_MIN_COST`` stays in one process,
as do the grid's toy tables and the tests' toy corpora.  On score-long's
inputs (2,000 sentences of 30-60 tokens, a 300-dim table) the kernel took
about half of ``extract_features``, and two processes cut that operation
by about a fifth.

Feature names ("emb.s.max_sim", ...) are a persisted contract: anything
written to feature files or model files uses exactly these strings.
"""

from __future__ import annotations

import enum
from typing import Callable, NamedTuple, TypeVar

import numpy as np

from ._workers import process_count, run_shares
from .embeddings import EmbeddingTable
from .errors import InputError
from .text import CHUNK_BYTES, ContentIndex, TokenTable, content_index

T = TypeVar("T")


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


class _Chunk(NamedTuple):
    """Sentences ``members`` that one step of the kernel scores: each has
    ``n`` content-word types with ``s`` occurrences in all."""

    members: np.ndarray
    n: int
    s: int


def _values_per_member(n: int, s: int, dimension: int) -> int:
    """The float64 values a step holds per sentence of shape (n, s): the rows,
    a few (n, n) stages and the (s, s) gaps.  This is also a chunk's cost."""
    return n * dimension + 4 * n * n + 2 * s * s


def _chunks(index: ContentIndex, dimension: int) -> list[_Chunk]:
    """The sentences of ``index`` with at least two content-word types,
    stacked by shape, about :data:`~incongruity.text.CHUNK_BYTES` at a time."""
    types = np.diff(index.type_ptr)
    occurrences = np.diff(index.position_ptr[index.type_ptr])
    scored = np.flatnonzero(types >= 2)
    scored = scored[np.lexsort((occurrences[scored], types[scored]))]
    edges = np.flatnonzero(np.diff(types[scored]) | np.diff(occurrences[scored])) + 1
    chunks = []
    for group in np.split(scored, edges) if len(scored) else ():
        n, s = int(types[group[0]]), int(occurrences[group[0]])
        step = max(1, CHUNK_BYTES // (8 * _values_per_member(n, s, dimension)))
        chunks += [_Chunk(group[i : i + step], n, s) for i in range(0, len(group), step)]
    return chunks


def _chunk_rows(index: ContentIndex, table: EmbeddingTable, chunk: _Chunk) -> np.ndarray:
    """The (members, 8) S+WS rows of ``chunk``'s sentences."""
    members, n, s = chunk
    type_ids = index.type_ptr[members, None] + np.arange(n)
    scores = _cosines(table.vectors[index.rows[type_ids]])
    first = index.position_ptr[index.type_ptr[members], None]
    distances = _distances(
        index.positions[first + np.arange(s)], index.position_ptr[type_ids] - first
    )
    # WS: each pair score over its squared distance.
    weighted = scores / distances**2
    return np.hstack([_extremes(scores), _extremes(weighted)])


# No process gets a share of the block that costs less than this many values
# (``_values_per_member``), so that a worker's share outweighs its fork and
# its piped rows.  Measured with score-long's 300-dim table on a 2-CPU Xeon
# VM, medians of 31 J+S+WS ``harness._fragments`` runs in one process against
# two: 2.1M values in all broke even (22.6-23.5 against 22.1-25.5 ms), 4.2M
# saved about a tenth (41.9-43.8 against 37.1-39.0 ms).
_BLOCK_MIN_COST = 2_000_000

_WIDTH = len(S_FEATURE_NAMES + WS_FEATURE_NAMES)


def _shares(chunks: list[_Chunk], dimension: int) -> list[list[_Chunk]]:
    """``chunks`` cut into runs of about equal cost, one per process: one per
    usable CPU, but none under ``_BLOCK_MIN_COST``
    (:func:`~incongruity._workers.process_count`).  A chunk goes to the run
    that its cost's midpoint falls in, so a run may be empty."""
    costs = np.array(
        [len(c.members) * _values_per_member(c.n, c.s, dimension) for c in chunks],
        dtype=np.int64,
    )
    total = int(costs.sum())
    processes = process_count(total, _BLOCK_MIN_COST)
    owners = ((2 * np.cumsum(costs) - costs) * processes // max(2 * total, 1)).tolist()
    return [[c for c, owner in zip(chunks, owners) if owner == p] for p in range(processes)]


def _members(chunks: list[_Chunk]) -> np.ndarray:
    return np.concatenate([np.zeros(0, np.int64), *(c.members for c in chunks)])


def block_alongside(
    tokens: TokenTable, table: EmbeddingTable, alongside: Callable[[], T]
) -> tuple[np.ndarray, T]:
    """:func:`similarity_block` of ``tokens`` under ``table``, and the value of
    ``alongside()``, called once in this process.

    The chunks are shared out by :func:`_shares`, and the shares computed by
    :func:`~incongruity._workers.run_shares`: forked workers compute theirs
    while this process computes the first, drops the index and calls
    ``alongside``.  A share that this process computes after that, if no
    worker sent it, builds the index again.
    """
    index = content_index(tokens, table)
    own, *theirs = _shares(_chunks(index, table.dimension), table.dimension)
    shares = [own, *filter(None, theirs)]
    value: list[T] = []

    def compute(share: int) -> np.ndarray:
        nonlocal index
        if index is None:
            index = content_index(tokens, table)
        rows = np.concatenate(
            [np.zeros((0, _WIDTH)), *(_chunk_rows(index, table, c) for c in shares[share])]
        )
        if share == 0:
            # The index is not kept while ``alongside`` runs: a worker holds
            # its own copy.
            index = None
            value.append(alongside())
        return rows

    computed = run_shares(compute, len(shares))
    # Allocated only now, so that while ``alongside`` runs this process holds
    # no more of the block than the first share's rows.
    block = np.zeros((len(tokens.sentences), _WIDTH))
    for share, rows in zip(shares, computed):
        block[_members(share)] = rows
    return block, value[0]


def similarity_block(tokens: TokenTable, table: EmbeddingTable) -> np.ndarray:
    """The (n, 8) float64 S+WS values of the sentences of ``tokens`` under
    ``table``.

    Columns follow ``Augmentation.S_AND_WS.feature_names``.  A sentence
    with fewer than two content-word types gets a row of zeros.

    Sentences with the same numbers of content-word types and of their
    occurrences are stacked, about :data:`~incongruity.text.CHUNK_BYTES`
    of them at a time, and each stage runs once per stack.  Every set of
    rows still gets its own Gram product, and maxima and minima do not
    depend on order, so a row's bits do not depend on its neighbours, nor
    on the process that computes it (:func:`block_alongside`).
    """
    return block_alongside(tokens, table, lambda: None)[0]
