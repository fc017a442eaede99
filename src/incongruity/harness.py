"""Corpus ingestion, stratified cross-validation, experiment grid, reports.

The harness runs feature configurations over a labeled corpus with
stratified k-fold cross-validation.  Features are extracted and compiled
once per corpus: every name is interned once into a corpus vocabulary and
the corpus becomes one CSR triple of global ids and values.  Per fold only
the ids are remapped: fold ids number the names of the training rows in
first-occurrence order, exactly as a fresh :class:`FeatureRegistry` fit on
the training fragments would, and test entries whose name no training row
has are dropped, as by a frozen registry, so no feature id can originate
in test data.  An augmented cell's fold entries are derived from its prior
set's by inserting the S/WS block columns.
The cells of one prior set (the base cell and its augmented cells) share
the splits, so per fold they are trained together by
:func:`~incongruity.classify.train_cells`, and each cell's test rows are
scored in one pass; both sum in the classifier's canonical order.
Pooled metrics concatenate the per-fold test predictions and are the
primary numbers; per-fold values are kept alongside.

``run_matrix`` evaluates every (prior set, augmentation, embedding)
cell; ``compute_gains`` reduces the grid to mean F gains per
(embedding, augmentation) and per embedding; ``emit_report`` renders
both as TSV or Markdown with deterministic ordering and 2-decimal
percentages.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .classify import CellRows, TrainConfig
# Folds train through the module attribute ``train``, the name under which
# perfbench/tracing.py times training.
from .classify import train_cells as train
from .embeddings import EmbeddingTable, intersect_vocabularies
from .features import (
    PRIOR_SETS,
    ExperimentConfig,
    FeatureRegistry,
    FeatureVector,
    Lexicon,
    build_config_features,
    default_lexicon,
)
from .similarity import Augmentation, embed_features
from .text import TokenizedSentence, default_stopwords, tokenize

AUGMENTATIONS = (
    Augmentation.NONE,
    Augmentation.S,
    Augmentation.WS,
    Augmentation.S_AND_WS,
)

SARCASTIC = 1
NON_SARCASTIC = 0


class DatasetParseError(ValueError):
    """A corpus file line violates the dataset contract."""


class SplitError(ValueError):
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


def load_dataset(path: str | Path, fmt: str = "auto") -> list[LabeledInstance]:
    """Read a corpus file.

    TSV rows are ``<id>\\t<label>\\t<text>`` with label 0 or 1
    (1 = sarcastic); JSONL rows are objects with ``id``, ``label`` and
    ``text`` keys.  ``fmt`` is ``tsv``, ``jsonl``, or ``auto`` (sniffed
    from the first line).  Bad labels, duplicate ids, and empty text
    raise :class:`DatasetParseError` naming the line.
    """
    path = Path(path)
    content = path.read_text(encoding="utf-8")
    if fmt == "auto":
        first = content.lstrip()[:1]
        fmt = "jsonl" if first == "{" else "tsv"
    if fmt not in ("tsv", "jsonl"):
        raise ValueError(f"unknown dataset format {fmt!r}")

    instances: list[LabeledInstance] = []
    seen: set[str] = set()
    for lineno, line in enumerate(content.splitlines(), start=1):
        if not line.strip():
            continue
        if fmt == "tsv":
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
                instance_id = str(record["id"])
                label = record["label"]
                text = record["text"]
            except (KeyError, TypeError) as exc:
                raise DatasetParseError(
                    f"{path}: line {lineno}: need 'id', 'label', 'text' keys"
                ) from exc
            if label not in (0, 1):
                raise DatasetParseError(
                    f"{path}: line {lineno}: label must be 0 or 1, got {label!r}"
                )
        if instance_id in seen:
            raise DatasetParseError(
                f"{path}: line {lineno}: duplicate id {instance_id!r}"
            )
        if not str(text).strip():
            raise DatasetParseError(f"{path}: line {lineno}: empty text")
        seen.add(instance_id)
        instances.append(LabeledInstance(instance_id, str(text), label))
    if not instances:
        raise DatasetParseError(f"{path}: no instances")
    return instances


def save_dataset_tsv(instances: Sequence[LabeledInstance], path: str | Path) -> None:
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


@dataclass(frozen=True)
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
    precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    f_score = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
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
    config: ExperimentConfig
    metrics: MetricsReport
    predictions: tuple[Prediction, ...]


def _fragments(
    sentence: TokenizedSentence, config: ExperimentConfig, resources: Resources
) -> list[Mapping[str, float]]:
    return build_config_features(
        sentence,
        config,
        resources.embeddings,
        resources.lexicon,
        stopwords=resources.stopwords,
    )


def extract_features(
    sentences: Sequence[TokenizedSentence],
    config: ExperimentConfig,
    resources: Resources,
    registry: FeatureRegistry,
) -> list[FeatureVector]:
    return [
        FeatureVector.from_fragments(registry, _fragments(s, config, resources))
        for s in sentences
    ]


class _Corpus(NamedTuple):
    """A corpus's features as one CSR triple over a corpus vocabulary.

    Row i's entries are ``gids[indptr[i]:indptr[i + 1]]`` with their
    ``values``, zeros included, in the order
    :meth:`FeatureVector.from_fragments` visits the names.  The global ids
    ``0 .. size - 1`` number the vocabulary.
    """

    indptr: np.ndarray
    gids: np.ndarray
    values: np.ndarray
    size: int


def _compile(rows: Sequence[Sequence[Mapping[str, float]]]) -> _Corpus:
    """Intern each row's fragment names once into a corpus vocabulary.

    A name occurring twice in one row is a namespace collision and raises
    ValueError, as in :meth:`FeatureVector.from_fragments`.
    """
    vocabulary: dict[str, int] = {}
    gids: list[int] = []
    values: list[float] = []
    indptr = [0]
    for fragments in rows:
        seen: set[str] = set()
        for fragment in fragments:
            for name, value in fragment.items():
                if name in seen:
                    raise ValueError(f"feature name {name!r} emitted twice")
                seen.add(name)
                gids.append(vocabulary.setdefault(name, len(vocabulary)))
                values.append(value)
        indptr.append(len(gids))
    return _Corpus(
        np.array(indptr, dtype=np.int64),
        np.array(gids, dtype=np.int64),
        np.array(values, dtype=np.float64),
        len(vocabulary),
    )


def _fold_rows(
    corpus: _Corpus, rows: Sequence[int], n_train: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One fold's entries (row, id, value) for ``rows``, whose first
    ``n_train`` are training rows; row k is ``rows[k]``.

    Fold ids number the training entries' names in first-occurrence order,
    zeros included, which is the order a fresh :class:`FeatureRegistry`
    interns them in.  An entry whose name no training row has, or whose
    value is 0, is dropped.  Entries are sorted by row, then id.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = corpus.indptr[rows]
    lengths = corpus.indptr[rows + 1] - starts
    ends = np.cumsum(lengths)
    # The corpus positions of the rows' entries, row after row.
    positions = np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)
    gids = corpus.gids[positions]
    values = corpus.values[positions]
    names, first = np.unique(gids[: ends[n_train - 1]], return_index=True)
    remap = np.full(corpus.size, -1, dtype=np.int64)
    remap[names[np.argsort(first)]] = np.arange(len(names))
    ids = remap[gids]
    row_of = np.repeat(np.arange(len(rows)), lengths)
    keep = (ids >= 0) & (values != 0.0)
    ids, values, row_of = ids[keep], values[keep], row_of[keep]
    order = np.lexsort((ids, row_of))
    return row_of[order], ids[order], values[order]


def _augment_rows(
    fold: tuple[np.ndarray, np.ndarray, np.ndarray], block: np.ndarray, head: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_fold_rows` of a corpus whose row k is a prior row followed by
    ``block[k]``, computed from the prior's fold entries ``fold``.

    ``head`` is the entry count of the first training row of the prior
    corpus, zeros included.  Every row carries all ``width`` block columns,
    so in first-occurrence order the columns take the ids ``head ..
    head + width - 1`` and the prior ids from ``head`` on move up by
    ``width``.  A row's block entries go before its shifted ids; zeros are
    dropped.
    """
    row_of, ids, values = fold
    n, width = block.shape
    low = ids < head
    # A row's insertion point is its start plus its count of ids below head.
    lengths = np.bincount(row_of, minlength=n)
    points = np.cumsum(lengths) - lengths + np.bincount(row_of[low], minlength=n)
    block_values = block.ravel()
    keep = block_values != 0.0
    # np.insert keeps the given order of values inserted at one index.
    points = np.repeat(points, width)[keep]
    block_rows = np.repeat(np.arange(n), width)[keep]
    block_ids = np.tile(head + np.arange(width), n)[keep]
    return (
        np.insert(row_of, points, block_rows),
        np.insert(np.where(low, ids, ids + width), points, block_ids),
        np.insert(values, points, block_values[keep]),
    )


def _cell_rows(
    entries: tuple[np.ndarray, np.ndarray, np.ndarray],
    blocks: Sequence[np.ndarray],
    head: int,
    labels: Sequence[int],
) -> CellRows:
    """Lay out the training rows of every cell for ``train_cells``.

    ``entries`` holds the prior's fold entries of the training rows and
    ``blocks[c]`` cell c's block rows (see :func:`_augment_rows`).  Cell
    c's ids are shifted by its offset; its weight dimension is its largest
    training id + 1, as in ``classify.train``.  Each cell's entries are
    written straight into their rows' slots, with no concatenation or sort.
    """
    n = len(blocks[0])
    # Row k holds its prior entries and its nonzero block values.
    base_counts = np.bincount(entries[0], minlength=n)
    counts = [base_counts + np.count_nonzero(block, axis=1) for block in blocks]
    indptr = np.concatenate([[0], np.cumsum(np.sum(counts, axis=0))])
    ids = np.empty(indptr[-1], dtype=np.int64)
    values = np.empty(indptr[-1], dtype=np.float64)
    cells = np.empty(indptr[-1], dtype=np.intp)
    cursor = indptr[:-1].copy()
    offsets = [0]
    for cell, (block, count) in enumerate(zip(blocks, counts)):
        _, cell_ids, cell_values = _augment_rows(entries, block, head)
        row_starts = np.cumsum(count) - count
        slots = np.arange(len(cell_ids)) + np.repeat(cursor - row_starts, count)
        ids[slots] = cell_ids + offsets[-1]
        values[slots] = cell_values
        cells[slots] = cell
        cursor += count
        offsets.append(offsets[-1] + int(cell_ids.max(initial=-1)) + 1)
    return CellRows(indptr, ids, values, cells, np.array(offsets), np.asarray(labels))


def _fold_predictions(
    instances: Sequence[LabeledInstance],
    prior: _Corpus,
    blocks: Sequence[np.ndarray],
    names: Sequence[str],
    fold_index: int,
    train_idx: list[int],
    test_idx: list[int],
    train_config: TrainConfig,
) -> list[list[Prediction]]:
    """Train every cell on one fold's training rows in lockstep, then score
    each cell's test rows in one pass.

    Cell c's corpus is ``prior`` with ``blocks[c]`` appended to each row.
    """
    n_train = len(train_idx)
    row_of, ids, values = _fold_rows(prior, train_idx + test_idx, n_train)
    split = int(np.searchsorted(row_of, n_train))
    fit = (row_of[:split], ids[:split], values[:split])
    test = (row_of[split:] - n_train, ids[split:], values[split:])
    head = int(prior.indptr[train_idx[0] + 1] - prior.indptr[train_idx[0]])

    labels = [instances[i].label for i in train_idx]
    layout = _cell_rows(fit, [block[train_idx] for block in blocks], head, labels)
    models = train(layout, train_config, names)
    predictions = []
    for model, block in zip(models, blocks):
        cell_test = _augment_rows(test, block[test_idx], head)
        scores = model.decisions(*cell_test, len(test_idx)).tolist()
        predictions.append([
            Prediction(
                instances[i].id,
                instances[i].label,
                int(score >= model.threshold),
                score,
                fold_index,
            )
            for i, score in zip(test_idx, scores)
        ])
    return predictions


def _cross_validate(
    configs: Sequence[ExperimentConfig],
    instances: Sequence[LabeledInstance],
    prior: _Corpus,
    blocks: Sequence[np.ndarray],
    splits: Sequence[tuple[list[int], list[int]]],
    train_config: TrainConfig | None,
) -> list[ConfigResult]:
    """Cross-validate each of ``configs``; config c's corpus is ``prior``
    with the (n, width) ``blocks[c]`` appended to each row.

    The cells share the splits, so per split they train together in
    lockstep.  The pooled metrics concatenate all test predictions.
    """
    train_config = train_config or TrainConfig()
    names = [config.label for config in configs]
    predictions: list[list[Prediction]] = [[] for _ in configs]
    per_fold: list[list[FoldMetrics]] = [[] for _ in configs]
    for fold_index, (train_idx, test_idx) in enumerate(splits):
        cell_predictions = _fold_predictions(
            instances, prior, blocks, names, fold_index, train_idx, test_idx,
            train_config,
        )
        for cell, fold_predictions in enumerate(cell_predictions):
            fold_metrics = metrics_from_predictions(fold_predictions)
            per_fold[cell].append(FoldMetrics(*fold_metrics))
            predictions[cell].extend(fold_predictions)
    return [
        ConfigResult(
            config,
            MetricsReport(
                *metrics_from_predictions(cell_predictions), per_fold=tuple(cell_folds)
            ),
            tuple(cell_predictions),
        )
        for config, cell_predictions, cell_folds in zip(configs, predictions, per_fold)
    ]


def run_config(
    config: ExperimentConfig,
    instances: Sequence[LabeledInstance],
    resources: Resources,
    *,
    folds: int = 5,
    seed: int = 0,
    train_config: TrainConfig | None = None,
) -> ConfigResult:
    """Cross-validate one configuration; features are compiled once, not per fold."""
    splits = stratified_kfold(instances, k=folds, seed=seed)
    sentences = [tokenize(inst.text) for inst in instances]
    corpus = _compile([_fragments(s, config, resources) for s in sentences])
    no_block = np.zeros((len(instances), 0))
    [result] = _cross_validate(
        [config], instances, corpus, [no_block], splits, train_config
    )
    return result


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
    and compiled once, each block extracted once.  A prior set's cells
    are trained in lockstep, one prior set at a time, so a fold's layout
    holds one prior set's cells and not the whole grid's.
    Cells with augmentation ``none`` do not depend on the embedding, so
    they are computed once per prior set and replicated across embedding
    keys; their metrics are consequently constant along that axis.
    """
    if not resources.embeddings:
        raise ValueError("run_matrix needs at least one embedding table")
    if intersect:
        tables = intersect_vocabularies(list(resources.embeddings.values()))
        resources = dataclasses.replace(
            resources,
            embeddings={t.name: t for t in tables},
        )
    names = tuple(resources.embeddings)
    splits = stratified_kfold(instances, k=folds, seed=seed)
    sentences = [tokenize(inst.text) for inst in instances]
    # One (n, 8) S+WS array per table; its columns follow the names of
    # Augmentation.S_AND_WS.
    block_names = Augmentation.S_AND_WS.feature_names
    blocks = {
        name: np.array(
            [
                list(embed_features(
                    s, table, Augmentation.S_AND_WS, stopwords=resources.stopwords
                ).values())
                for s in sentences
            ],
            dtype=np.float64,
        )
        for name, table in resources.embeddings.items()
    }

    cells: dict[tuple[str, Augmentation, str], ConfigResult] = {}
    for prior in PRIOR_SETS:
        # The base cell, then its augmented cells, embedding by embedding.
        base_config = ExperimentConfig(prior)
        priors = _compile([_fragments(s, base_config, resources) for s in sentences])
        configs = [base_config]
        cell_blocks = [np.zeros((len(instances), 0))]
        for name in names:
            for augmentation in AUGMENTATIONS[1:]:
                columns = [block_names.index(n) for n in augmentation.feature_names]
                configs.append(ExperimentConfig(prior, augmentation, name))
                cell_blocks.append(blocks[name][:, columns])
        base, *augmented = _cross_validate(
            configs, instances, priors, cell_blocks, splits, train_config
        )
        for name in names:
            cells[(prior, Augmentation.NONE, name)] = dataclasses.replace(
                base,
                config=dataclasses.replace(base_config, embedding=name),
            )
        for result in augmented:
            config = result.config
            cells[(prior, config.augmentation, config.embedding)] = result
    vocab_sizes = {name: len(resources.embeddings[name]) for name in names}
    return MatrixResult(
        cells=cells,
        embeddings=names,
        vocab_sizes=vocab_sizes,
        intersected=intersect,
        n_instances=len(instances),
        folds=folds,
        seed=seed,
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
                try:
                    augmented = matrix.cells[(prior, augmentation, name)]
                    baseline = matrix.cells[(prior, Augmentation.NONE, name)]
                except KeyError as exc:
                    raise IncompleteMatrixError(
                        f"missing grid cell {exc.args[0]}"
                    ) from exc
                deltas.append(
                    augmented.metrics.f_score - baseline.metrics.f_score
                )
            gain = sum(deltas) / len(deltas)
            per_augmentation[(name, augmentation)] = gain
            augmentation_gains.append(gain)
        per_embedding[name] = sum(augmentation_gains) / len(augmentation_gains)
    return GainTables(per_augmentation, per_embedding)


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
