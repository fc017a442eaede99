"""Corpus ingestion, stratified cross-validation, experiment grid, reports.

The harness runs feature configurations over a labeled corpus with
stratified k-fold cross-validation.  A corpus's tokens are numbered by type
once (:func:`~incongruity.text.token_table`), and features are extracted
from that table and compiled once per corpus by ``_compile``, the only code
that numbers features (``extract_features`` goes through it too): each
distinct name is interned through a registry once per corpus, zero values
are dropped and each row is sorted by id once, so every fold reads a row in
the same canonical summation order; a fold only selects rows.  Every S/WS
value comes from one (n, 8) :func:`~incongruity.similarity.similarity_block`
per table, computed once per corpus; a cell and ``extract_features``
select its columns.  An augmented cell's row is its prior row followed by
its nonzero S/WS block values, whose ids follow every prior id.  Every
row of every cell is laid out once per corpus, and a cell owns a fixed id
range (its corpus's names, then its block columns), so a fold takes its
training and test rows out of that one layout without copying an entry.
A name seen only in test rows is never updated in training, so its weight
stays +0.0 and its product, +0.0 or -0.0, changes no score.
Every cell shares the splits, the labels and the seed, so per fold all
of them, the four prior sets' included, are trained together by one
:func:`~incongruity.classify.train_cells` call, and their test rows are
scored by the same :func:`~incongruity.classify.cell_scores` that scores
the training rows, in the classifier's canonical order.
The folds run on ``min(usable CPUs, folds)`` processes: this one and
forked workers (:mod:`~incongruity._workers`), process p training folds
p, p + processes, ...  Each fold is computed once, by the same code in
any process, and its outcome or training error is sent back whole as a
value, so no byte depends on the process count.  The folds are read in
fold order, a fold no process sent being computed here, so the first
failing fold in fold order is the one raised.
The folds' test scores and predicted labels are pooled as (n, cells)
arrays; tp/fp/fn are counted per fold and cell, and their sums give the
pooled metrics, the primary numbers; per-fold values are kept alongside.

``run_matrix`` evaluates every (prior set, augmentation, embedding)
cell; ``compute_gains`` reduces the grid to mean F gains per
(embedding, augmentation) and per embedding; ``emit_report`` renders
both as TSV or Markdown with deterministic ordering and 2-decimal
percentages.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import pickle
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from ._workers import run_forked, usable_cpus
from .classify import CellRows, TrainConfig, cell_scores
# Folds train through the module attribute ``train``, the name under which
# perfbench/tracing.py times training.
from .classify import train_cells as train
from .embeddings import EmbeddingTable, intersect_vocabularies
from .errors import InputError, read_lines
from .features import (
    PRIOR_SETS,
    ExperimentConfig,
    FeatureRegistry,
    FeatureVector,
    Fragment,
    Lexicon,
    build_config_features,
    default_lexicon,
    embedding_table,
)
from .similarity import Augmentation, block_alongside, similarity_block
from .text import (
    TokenizedSentence,
    default_stopwords,
    token_table,
    tokenize,
)

AUGMENTATIONS = (
    Augmentation.NONE,
    Augmentation.S,
    Augmentation.WS,
    Augmentation.S_AND_WS,
)

SARCASTIC = 1
NON_SARCASTIC = 0


class DatasetParseError(InputError):
    """A corpus file line violates the dataset contract."""


class SplitError(InputError):
    """The corpus cannot be split as requested."""


class IncompleteMatrixError(ValueError):
    """Gain computation found a missing grid cell."""


@dataclass(frozen=True)
class LabeledInstance:
    """One corpus entry: stable id, text, binary label (1 = sarcastic)."""

    id: str
    text: str
    label: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")
        if not self.id:
            raise ValueError("instance id must be non-empty")
        if not self.text.strip():
            raise ValueError("instance text must be non-empty")


def load_dataset(path: str | Path) -> list[LabeledInstance]:
    """Read a corpus file.

    TSV rows are ``<id>\\t<label>\\t<text>`` with label 0 or 1
    (1 = sarcastic); JSONL rows are objects with ``id`` (a string or an
    integer), ``label`` (the integer 0 or 1) and ``text`` (a string) keys.
    The file is read by :func:`~incongruity.errors.read_lines`, so a text
    may hold any line separator but ``\\n``.  A file whose first non-blank
    character is ``{`` is read as JSONL, any other as TSV.  Bad labels, ids
    of another type, empty or holding a tab or line break (which
    :func:`save_dataset_tsv` could not write back), duplicate ids, and
    empty or non-string text raise :class:`DatasetParseError` naming the
    line.
    """
    path = Path(path)
    tsv: bool | None = None
    instances: list[LabeledInstance] = []
    seen: set[str] = set()
    for lineno, line in read_lines(path, DatasetParseError):
        if not line.strip():
            continue
        if tsv is None:
            tsv = line.lstrip()[0] != "{"
        if tsv:
            parts = line.split("\t", 2)
            if len(parts) != 3:
                raise DatasetParseError(
                    f"{path}: line {lineno}: expected '<id>\\t<label>\\t<text>'"
                )
            instance_id, label_text, text = parts
            if label_text not in ("0", "1"):
                raise DatasetParseError(
                    f"{path}: line {lineno}: label must be 0 or 1, got {label_text!r}"
                )
            label = int(label_text)
        else:
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetParseError(
                    f"{path}: line {lineno}: invalid JSON"
                ) from exc
            try:
                instance_id = record["id"]
                label = record["label"]
                text = record["text"]
            except (KeyError, TypeError) as exc:
                raise DatasetParseError(
                    f"{path}: line {lineno}: need 'id', 'label', 'text' keys"
                ) from exc
            # bool is an int subclass, and 1.0 == 1: both would come back
            # as a label or id other than the one written.
            if isinstance(instance_id, bool) or not isinstance(instance_id, (str, int)):
                raise DatasetParseError(
                    f"{path}: line {lineno}: id must be a string or an integer, "
                    f"got {instance_id!r}"
                )
            instance_id = str(instance_id)
            if type(label) is not int or label not in (0, 1):
                raise DatasetParseError(
                    f"{path}: line {lineno}: label must be 0 or 1, got {label!r}"
                )
            if not isinstance(text, str):
                raise DatasetParseError(
                    f"{path}: line {lineno}: text must be a string, got {text!r}"
                )
        if not instance_id or "\t" in instance_id or "\n" in instance_id or "\r" in instance_id:
            raise DatasetParseError(
                f"{path}: line {lineno}: id {instance_id!r} is empty or holds "
                "a tab or line break"
            )
        if instance_id in seen:
            raise DatasetParseError(
                f"{path}: line {lineno}: duplicate id {instance_id!r}"
            )
        if not text.strip():
            raise DatasetParseError(f"{path}: line {lineno}: empty text")
        seen.add(instance_id)
        instances.append(LabeledInstance(instance_id, text, label))
    if not instances:
        raise DatasetParseError(f"{path}: no instances")
    return instances


def save_dataset_tsv(instances: Sequence[LabeledInstance], path: str | Path) -> None:
    """Write ``instances`` as TSV rows that :func:`load_dataset` reads back.

    An id or text holding ``\\n`` or ``\\r``, or an id holding a tab, raises
    ValueError naming the id, since the reader could not give it back.
    """
    for instance in instances:
        if any(c in instance.id + instance.text for c in "\n\r") or "\t" in instance.id:
            raise ValueError(
                f"instance {instance.id!r}: an id or text with a line break, "
                "or an id with a tab, cannot be written as a TSV row"
            )
    with open(path, "w", encoding="utf-8") as handle:
        for instance in instances:
            handle.write(f"{instance.id}\t{instance.label}\t{instance.text}\n")


def stratified_kfold(
    instances: Sequence[LabeledInstance], k: int = 5, seed: int = 0
) -> list[tuple[list[int], list[int]]]:
    """Deterministic stratified k-fold split.

    Returns k (train_indices, test_indices) pairs.  Each class is
    shuffled with the seed and dealt round-robin, so per-fold class
    counts differ by at most one.  Raises :class:`SplitError` when any
    class has fewer than k members.
    """
    if k < 2:
        raise SplitError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    test_folds: list[list[int]] = [[] for _ in range(k)]
    for label in (NON_SARCASTIC, SARCASTIC):
        class_indices = [
            i for i, inst in enumerate(instances) if inst.label == label
        ]
        if len(class_indices) < k:
            raise SplitError(
                f"class {label} has {len(class_indices)} instances; "
                f"need at least {k} for {k}-fold splits"
            )
        order = rng.permutation(len(class_indices))
        for position, class_position in enumerate(order):
            test_folds[position % k].append(class_indices[class_position])
    splits = []
    for fold in range(k):
        test = sorted(test_folds[fold])
        test_set = set(test)
        train = [i for i in range(len(instances)) if i not in test_set]
        splits.append((train, test))
    return splits


@dataclass(frozen=True)
class FoldMetrics:
    precision: float
    recall: float
    f_score: float


@dataclass(frozen=True)
class MetricsReport:
    """Positive-class precision/recall/F as percentages (full precision)."""

    precision: float
    recall: float
    f_score: float
    per_fold: tuple[FoldMetrics, ...] = ()


@dataclass(frozen=True, slots=True)
class Prediction:
    instance_id: str
    label: int
    predicted: int
    score: float
    fold: int


def metrics_from_predictions(
    predictions: Sequence[Prediction],
) -> tuple[float, float, float]:
    tp = sum(1 for p in predictions if p.predicted == 1 and p.label == 1)
    fp = sum(1 for p in predictions if p.predicted == 1 and p.label == 0)
    fn = sum(1 for p in predictions if p.predicted == 0 and p.label == 1)
    return _precision_recall_f(tp, fp, fn)


def _precision_recall_f(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Positive-class precision, recall and F in percent from the counts."""
    precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    # The count form of F that classify.tune_threshold maximizes.
    f_score = 100.0 * 2 * tp / (2 * tp + fp + fn) if tp else 0.0
    return precision, recall, f_score


@dataclass(frozen=True)
class Resources:
    """Everything a run needs besides the corpus."""

    embeddings: Mapping[str, EmbeddingTable] = dataclasses.field(
        default_factory=dict
    )
    lexicon: Lexicon = dataclasses.field(default_factory=default_lexicon)
    stopwords: frozenset[str] = dataclasses.field(
        default_factory=default_stopwords
    )


@dataclass(frozen=True)
class ConfigResult:
    """One cell's metrics, and its test scores and predicted labels (bool)
    in the pooled order of :class:`MatrixResult`."""

    config: ExperimentConfig
    metrics: MetricsReport
    scores: np.ndarray
    predicted: np.ndarray


def _columns(augmentation: Augmentation) -> slice:
    """The S+WS block columns that ``augmentation`` selects.  They are a run
    of the block's (S's, WS's or both), so a selection is a view."""
    names = augmentation.feature_names
    start = Augmentation.S_AND_WS.feature_names.index(names[0]) if names else 0
    return slice(start, start + len(names))


def extract_features(
    sentences: Sequence[TokenizedSentence],
    config: ExperimentConfig,
    resources: Resources,
    registry: FeatureRegistry,
) -> list[FeatureVector]:
    """One vector per sentence under ``config``: its prior fragments, then
    its selected S/WS values by name, numbered by :func:`_compile` through
    ``registry``.  The vectors are read-only views of one compiled corpus."""
    corpus = _compile(_fragments(sentences, config, resources), len(sentences), registry)
    bounds = corpus.indptr.tolist()
    return [
        FeatureVector(corpus.ids[a:b], corpus.values[a:b])
        for a, b in zip(bounds, bounds[1:])
    ]


def _fragments(
    sentences: Sequence[TokenizedSentence], config: ExperimentConfig, resources: Resources
) -> list[Fragment]:
    """The prior fragments of ``sentences`` under ``config``, then one of its
    selected S/WS values that holds every block name in every row, zeros
    included.  The priors are built while forked workers compute shares of
    the block (:func:`~incongruity.similarity.block_alongside`).  The token
    table is freed before the fragments are numbered."""
    tokens = token_table(sentences, resources.stopwords)
    priors = functools.partial(
        build_config_features, tokens, config.prior_set, resources.lexicon
    )
    if config.augmentation is Augmentation.NONE:
        block, fragments = np.zeros((len(sentences), 0)), priors()
    else:
        table = embedding_table(resources.embeddings, config.embedding)
        block, fragments = block_alongside(tokens, table, priors)
        block = block[:, _columns(config.augmentation)]
    n, width = block.shape
    return [
        *fragments,
        Fragment(
            config.augmentation.feature_names,
            np.repeat(np.arange(n), width),
            np.tile(np.arange(width), n),
            block.ravel(),
        ),
    ]


class _Corpus(NamedTuple):
    """A corpus's features as one CSR triple.

    Row i's nonzero entries are ``ids[indptr[i]:indptr[i + 1]]``, ascending,
    with their ``values``.  Every id lies below ``size``, the length of the
    registry that numbered the corpus.  A name that no training row of a
    fold carries keeps a zero weight in that fold.
    """

    indptr: np.ndarray
    ids: np.ndarray
    values: np.ndarray
    size: int


def _compile(
    fragments: Sequence[Fragment], n_rows: int, registry: FeatureRegistry
) -> _Corpus:
    """Number the ``n_rows`` rows of a corpus's fragments; the only code that
    turns fragments into rows.

    A row's entries are read fragment by fragment.  Each distinct name is
    interned through ``registry`` once, in order of first occurrence,
    zero-valued ones included, so a fresh registry numbers names as reading
    the rows one by one would; a zero value, and a name a frozen registry
    does not hold, are dropped.  A name occurring twice in one row is a
    namespace collision and raises ValueError.  Each row is sorted by id.
    """
    rows, ids, unknown = _numbered_entries(fragments, registry)
    # Sorted by row, then id; unknown names' negative ids sort first.  Each
    # array here has one element per entry, so each is freed once spent.
    key = rows * (len(registry) + len(unknown))
    key += ids
    key += len(unknown)
    order = np.argsort(key)
    del key
    rows = rows[order]
    ids = ids[order]
    values = np.concatenate([np.zeros(0), *(f.values for f in fragments)])[order]
    del order
    repeated = np.flatnonzero((rows[1:] == rows[:-1]) & (ids[1:] == ids[:-1]))
    if len(repeated):
        fid = int(ids[repeated[0]])
        name = registry.name_of(fid) if fid >= 0 else unknown[-1 - fid]
        raise ValueError(f"feature name {name!r} emitted twice")
    kept = (ids >= 0) & (values != 0.0)
    return _Corpus(
        np.concatenate([[0], np.cumsum(np.bincount(rows[kept], minlength=n_rows))]),
        ids[kept],
        values[kept],
        len(registry),
    )


def _numbered_entries(
    fragments: Sequence[Fragment], registry: FeatureRegistry
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Every entry's row and id, fragment after fragment, and the names a
    frozen ``registry`` does not hold, which get the ids -1, -2, ...; the
    names that occur are interned once each, in order of first occurrence.
    """
    offsets = np.cumsum([0, *(len(f.names) for f in fragments)])
    rows = np.concatenate([np.zeros(0, np.int64), *(f.rows for f in fragments)])
    name_ids = np.concatenate(
        [np.zeros(0, np.int64), *(f.name_ids + o for f, o in zip(fragments, offsets))]
    )
    ids, unknown = _name_ids(
        fragments, _first_occurrences(rows, name_ids, offsets[-1]), registry
    )
    return rows, ids[name_ids], unknown


def _first_occurrences(rows: np.ndarray, name_ids: np.ndarray, n_names: int) -> np.ndarray:
    """The name ids entries ``name_ids`` hold, in order of first occurrence.

    A name belongs to one fragment, whose entries come in ascending row, so
    its first entry there is its first occurrence; a row reads its
    fragments in order.
    """
    first = np.full(n_names, len(name_ids))
    np.minimum.at(first, name_ids, np.arange(len(name_ids)))
    used = np.flatnonzero(first < len(name_ids))
    return used[np.lexsort((first[used], rows[first[used]]))]


def _name_ids(
    fragments: Sequence[Fragment], used: np.ndarray, registry: FeatureRegistry
) -> tuple[np.ndarray, list[str]]:
    """The id of every name of ``fragments``, interning the names ``used``
    in that order (the others get 0), and the names a frozen registry does
    not hold, which get the ids -1, -2, ..., one per string."""
    every_name = chain.from_iterable(f.names for f in fragments)
    n_names = sum(len(f.names) for f in fragments)
    names = np.fromiter(every_name, object, n_names)[used]
    fids = registry.intern_all(names)
    unknown: dict[str, int] = {}
    missing = np.flatnonzero(fids < 0)
    if len(missing):
        fids[missing] = [
            -1 - unknown.setdefault(name, len(unknown)) for name in names[missing]
        ]
    ids = np.zeros(n_names, dtype=np.int64)
    ids[used] = fids
    return ids, list(unknown)


def _slots(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions of row-major entries, ``counts[k]`` of them in row k, when
    row k's entries run from ``starts[k]`` on."""
    return np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


class _GridCell(NamedTuple):
    """One cell to cross-validate: its row i is ``corpus`` row i followed by
    the nonzero values of the (n, width) ``block`` row i."""

    config: ExperimentConfig
    corpus: _Corpus
    block: np.ndarray


def _cell_rows(cells: Sequence[_GridCell], labels: Sequence[int]) -> CellRows:
    """Lay out every row of every cell for ``train_cells``; each fold takes
    its training and test rows out of this one layout.

    Cell c's row i is its corpus row i followed by the nonzero values of its
    block row i, column j having id ``corpus.size + j``, after every corpus
    id.  Ids were assigned once per corpus and rows sorted once, so the
    entries already ascend and are written straight into their slots, with
    no concatenation or sort.  Cell c owns ``corpus.size`` plus its block
    width ids, shifted by its offset, so its range depends only on its
    corpus: a name that no training row of a fold carries keeps a +0.0
    weight in that fold.
    """
    block_counts = [np.count_nonzero(cell.block, axis=1) for cell in cells]
    lengths = sum(
        np.diff(cell.corpus.indptr) + counts for cell, counts in zip(cells, block_counts)
    )
    stops = np.cumsum(lengths)
    starts = stops - lengths
    ids = np.empty(stops[-1], dtype=np.int64)
    values = np.empty(stops[-1], dtype=np.float64)
    layout_cells = np.empty(stops[-1], dtype=np.intp)
    offsets = np.cumsum([0, *(cell.corpus.size + cell.block.shape[1] for cell in cells)])
    cursor = starts.copy()
    for index, (cell, counts) in enumerate(zip(cells, block_counts)):
        corpus = cell.corpus
        prior_counts = np.diff(corpus.indptr)
        rows, columns = np.nonzero(cell.block)
        block_ids = corpus.size + columns
        for slots, cell_ids, cell_values in (
            (_slots(cursor, prior_counts), corpus.ids, corpus.values),
            (_slots(cursor + prior_counts, counts), block_ids, cell.block[rows, columns]),
        ):
            ids[slots] = cell_ids + offsets[index]
            values[slots] = cell_values
            layout_cells[slots] = index
        cursor += prior_counts + counts
    return CellRows(starts, stops, ids, values, layout_cells, offsets, np.asarray(labels))


def _cell_name(config: ExperimentConfig) -> str:
    """``config``'s label with its table, e.g. ``L+S:emb-a``; a base cell
    reads no table."""
    return f"{config.label}:{config.embedding}" if config.embedding else config.label


class _FoldOutcome(NamedTuple):
    """One fold's test scores and predicted labels, (n_test, cells) float64
    and bool, and its (3, cells) int64 tp, fp and fn per cell."""

    scores: np.ndarray
    predicted: np.ndarray
    counts: np.ndarray


def _cross_validate(
    cells: Sequence[_GridCell],
    labels: np.ndarray,
    splits: Sequence[tuple[list[int], list[int]]],
    train_config: TrainConfig | None,
) -> list[ConfigResult]:
    """Cross-validate each of ``cells``.

    The cells are laid out once; they share the splits, so per split they
    train together in lockstep, and the split's test rows of every cell
    are scored at once.  Folds come in order from :func:`_fold_pool`, one
    it lacks computed here, so no fold trains twice and the first training
    error in fold order is raised, naming the cell by its label, its table
    and the fold, e.g. ``L+S:emb-a (fold 2)``.  Scores and predicted labels
    are pooled in split order.
    """
    train_config = train_config or TrainConfig()
    layout = _cell_rows(cells, labels)
    names = [_cell_name(cell.config) for cell in cells]

    def outcome(fold: int) -> _FoldOutcome:
        train_idx, test_idx = splits[fold]
        weights, thresholds = train(
            layout.take(train_idx), train_config, [f"{name} (fold {fold})" for name in names]
        )
        scores = cell_scores(layout.take(test_idx), weights)
        predicted = scores >= thresholds
        positive = labels[test_idx, None] == SARCASTIC
        hits = predicted & positive
        # Per cell: tp, fp, fn.
        counts = [hits.sum(0), (predicted ^ hits).sum(0), (positive ^ hits).sum(0)]
        return _FoldOutcome(scores, predicted, np.array(counts, dtype=np.int64))

    pooled = _fold_pool(outcome, len(splits))
    outcomes = []
    for fold in range(len(splits)):
        result = pooled[fold] if fold in pooled else outcome(fold)
        if isinstance(result, InputError):
            raise result
        outcomes.append(result)
    scores = np.concatenate([o.scores for o in outcomes])
    predicted = np.concatenate([o.predicted for o in outcomes])
    # Cell by fold by (tp, fp, fn), as ints; the pooled counts are their sums.
    counts = np.moveaxis(np.array([o.counts for o in outcomes]), 2, 0).tolist()
    return [
        ConfigResult(
            cell.config,
            MetricsReport(
                *_precision_recall_f(*map(sum, zip(*cell_counts))),
                per_fold=tuple(FoldMetrics(*_precision_recall_f(*c)) for c in cell_counts),
            ),
            scores[:, index],
            predicted[:, index],
        )
        for index, (cell, cell_counts) in enumerate(zip(cells, counts))
    ]


def _fold_pool(
    outcome: Callable[[int], _FoldOutcome], folds: int
) -> dict[int, _FoldOutcome | InputError]:
    """Folds' ``outcome`` by fold, on ``min(usable CPUs, folds)`` processes:
    process p, 0 being this one, computes folds p, p + processes, ... and
    stops at its first ``InputError``, kept as that fold's value; a worker
    pickles its folds when done.  Folds are missing if one process is all
    there is, no pipe or process is to be had, a worker exits otherwise
    than 0 (every fold), or a worker sends nothing (its folds).
    """
    processes = min(usable_cpus(), folds)
    if processes < 2:
        return {}

    def share(process: int) -> dict:
        done = {}
        for fold in range(process, folds, processes):
            try:
                done[fold] = outcome(fold)
            except InputError as error:
                done[fold] = error
                break
        return done

    def send(worker: int, out: BinaryIO) -> bool:
        # The write blocks until the running process is done with its folds.
        out.write(pickle.dumps(share(worker)))
        return True

    def receive(pipes: list[io.FileIO]) -> tuple[dict, list[bytes]]:
        return share(0), [pipe.readall() for pipe in pipes]

    jobs = [functools.partial(send, worker) for worker in range(1, processes)]
    received = run_forked(jobs, receive)
    if received is None:
        return {}
    # Unpickled only once every worker has exited 0, so a payload is whole.
    pooled, payloads = received
    for payload in filter(None, payloads):
        pooled.update(pickle.loads(payload))
    return pooled


@dataclass(frozen=True)
class MatrixResult:
    """All grid cells plus the context needed to render a report."""

    cells: Mapping[tuple[str, Augmentation, str], ConfigResult]
    embeddings: tuple[str, ...]
    vocab_sizes: Mapping[str, int]
    intersected: bool
    n_instances: int
    folds: int
    seed: int
    # Entry k of a cell's scores is corpus row test_rows[k], of fold test_folds[k].
    test_rows: np.ndarray
    test_folds: np.ndarray


def run_matrix(
    instances: Sequence[LabeledInstance],
    resources: Resources,
    *,
    intersect: bool = False,
    folds: int = 5,
    seed: int = 0,
    train_config: TrainConfig | None = None,
) -> MatrixResult:
    """Run every (prior set, augmentation, embedding) combination.

    A cell's features are its prior set's plus the columns of its table's
    S+WS block that its augmentation selects; each prior set is extracted
    and compiled once, through its own registry, and each block extracted
    once.  Per fold, every cell is trained in one lockstep group: each
    prior set's base cell, then its augmented cells, prior sets in
    ``PRIOR_SETS`` order.
    Cells with augmentation ``none`` do not depend on the embedding, so
    they are computed once per prior set and replicated across embedding
    keys; their metrics are consequently constant along that axis.
    """
    if not resources.embeddings:
        raise InputError("run_matrix needs at least one embedding table")
    if intersect:
        tables = intersect_vocabularies(list(resources.embeddings.values()))
        resources = dataclasses.replace(
            resources,
            embeddings={t.name: t for t in tables},
        )
    names = tuple(resources.embeddings)
    splits = stratified_kfold(instances, k=folds, seed=seed)
    tokens = token_table([tokenize(inst.text) for inst in instances], resources.stopwords)
    blocks = {
        name: similarity_block(tokens, table) for name, table in resources.embeddings.items()
    }

    grid = []
    for prior in PRIOR_SETS:
        corpus = _compile(
            build_config_features(tokens, prior, resources.lexicon),
            len(instances),
            FeatureRegistry(),
        )
        # The base cell, then its augmented cells, embedding by embedding.
        grid.append(_GridCell(ExperimentConfig(prior), corpus, np.zeros((len(instances), 0))))
        for name in names:
            for augmentation in AUGMENTATIONS[1:]:
                grid.append(_GridCell(
                    ExperimentConfig(prior, augmentation, name),
                    corpus,
                    blocks[name][:, _columns(augmentation)],
                ))

    cells: dict[tuple[str, Augmentation, str], ConfigResult] = {}
    labels = np.array([instance.label for instance in instances])
    for result in _cross_validate(grid, labels, splits, train_config):
        config = result.config
        if config.augmentation is not Augmentation.NONE:
            cells[(config.prior_set, config.augmentation, config.embedding)] = result
            continue
        for name in names:
            cells[(config.prior_set, Augmentation.NONE, name)] = dataclasses.replace(
                result, config=dataclasses.replace(config, embedding=name)
            )
    vocab_sizes = {name: len(resources.embeddings[name]) for name in names}
    return MatrixResult(
        cells=cells,
        embeddings=names,
        vocab_sizes=vocab_sizes,
        intersected=intersect,
        n_instances=len(instances),
        folds=folds,
        seed=seed,
        test_rows=np.concatenate([test_idx for _, test_idx in splits]),
        test_folds=np.repeat(np.arange(folds), [len(test_idx) for _, test_idx in splits]),
    )


@dataclass(frozen=True)
class GainTables:
    """Mean F gains: one value per (embedding, augmentation), one per embedding."""

    per_augmentation: Mapping[tuple[str, Augmentation], float]
    per_embedding: Mapping[str, float]


def compute_gains(matrix: MatrixResult) -> GainTables:
    """Reduce the grid to mean F gains over the four prior sets.

    For each embedding and augmentation, the gain is the mean over prior
    sets of F(prior + augmentation) - F(prior); the per-embedding value
    averages its three augmentation gains.  A missing cell raises
    :class:`IncompleteMatrixError`.
    """
    per_augmentation: dict[tuple[str, Augmentation], float] = {}
    per_embedding: dict[str, float] = {}
    for name in matrix.embeddings:
        augmentation_gains = []
        for augmentation in AUGMENTATIONS[1:]:
            deltas = []
            for prior in PRIOR_SETS:
                augmented = _cell(matrix, (prior, augmentation, name))
                baseline = _cell(matrix, (prior, Augmentation.NONE, name))
                deltas.append(
                    augmented.metrics.f_score - baseline.metrics.f_score
                )
            gain = _mean(deltas)
            per_augmentation[(name, augmentation)] = gain
            augmentation_gains.append(gain)
        per_embedding[name] = _mean(augmentation_gains)
    return GainTables(per_augmentation, per_embedding)


def _mean(values: Sequence[float]) -> float:
    """The mean of ``values`` summed left to right from +0.0.  The built-in
    ``sum`` of floats compensates from Python 3.12, so report bytes would
    depend on the Python version."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


_DEVIATION_NOTE = (
    "classifier: class-weighted hinge SGD with an F-score-maximizing "
    "decision threshold (approximate stand-in for direct F-loss training)"
)


def emit_report(
    matrix: MatrixResult,
    gains: GainTables,
    fmt: str = "markdown",
    path: str | Path | None = None,
) -> str:
    """Render the grid and gain tables; optionally write to ``path``.

    Output ordering is fixed (embeddings in matrix order, prior sets
    L,G,B,J, augmentations none,S,WS,S+WS) and all values are percentages
    with exactly two decimals, so equal-seed reruns emit identical bytes.
    """
    if fmt == "tsv":
        text = _report_tsv(matrix, gains)
    elif fmt == "markdown":
        text = _report_markdown(matrix, gains)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def _cell(matrix: MatrixResult, key) -> ConfigResult:
    try:
        return matrix.cells[key]
    except KeyError as exc:
        raise IncompleteMatrixError(f"missing grid cell {exc.args[0]}") from exc


def _report_tsv(matrix: MatrixResult, gains: GainTables) -> str:
    lines = ["embedding\tprior\taugmentation\tprecision\trecall\tf_score"]
    for name in matrix.embeddings:
        for prior in PRIOR_SETS:
            for augmentation in AUGMENTATIONS:
                m = _cell(matrix, (prior, augmentation, name)).metrics
                lines.append(
                    f"{name}\t{prior}\t{augmentation.label}\t"
                    f"{m.precision:.2f}\t{m.recall:.2f}\t{m.f_score:.2f}"
                )
    lines.append("")
    lines.append("embedding\taugmentation\tmean_f_gain")
    for name in matrix.embeddings:
        for augmentation in AUGMENTATIONS[1:]:
            value = gains.per_augmentation[(name, augmentation)]
            lines.append(f"{name}\t+{augmentation.label}\t{value:.2f}")
    lines.append("")
    lines.append("embedding\taverage_f_gain")
    for name in matrix.embeddings:
        lines.append(f"{name}\t{gains.per_embedding[name]:.2f}")
    return "\n".join(lines) + "\n"


def _report_markdown(matrix: MatrixResult, gains: GainTables) -> str:
    out = ["# Similarity-augmentation experiment report", ""]
    out.append(f"- instances: {matrix.n_instances}")
    out.append(f"- folds: {matrix.folds} (stratified, seed {matrix.seed})")
    out.append(f"- vocabulary intersected: {'yes' if matrix.intersected else 'no'}")
    out.append(f"- {_DEVIATION_NOTE}")
    out.append("")
    for name in matrix.embeddings:
        out.append(f"## Embedding: {name} (vocabulary {matrix.vocab_sizes[name]})")
        out.append("")
        out.append("| features | precision | recall | f-score |")
        out.append("| --- | --- | --- | --- |")
        for prior in PRIOR_SETS:
            for augmentation in AUGMENTATIONS:
                cell = _cell(matrix, (prior, augmentation, name))
                m = cell.metrics
                out.append(
                    f"| {cell.config.label} | {m.precision:.2f} "
                    f"| {m.recall:.2f} | {m.f_score:.2f} |"
                )
        out.append("")
    out.append("## Mean F gain by augmentation")
    out.append("")
    out.append("| augmentation | " + " | ".join(matrix.embeddings) + " |")
    out.append("| --- |" + " --- |" * len(matrix.embeddings))
    for augmentation in AUGMENTATIONS[1:]:
        row = [
            f"{gains.per_augmentation[(name, augmentation)]:.2f}"
            for name in matrix.embeddings
        ]
        out.append(f"| +{augmentation.label} | " + " | ".join(row) + " |")
    out.append("")
    out.append("## Mean F gain by embedding")
    out.append("")
    out.append("| embedding | mean gain |")
    out.append("| --- | --- |")
    for name in matrix.embeddings:
        out.append(f"| {name} | {gains.per_embedding[name]:.2f} |")
    out.append("")
    return "\n".join(out) + "\n"
