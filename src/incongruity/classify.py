"""Binary linear classifier: class-weighted hinge SGD plus an F-tuned threshold.

Training minimizes ``lambda/2 * ||w||^2 + (1/n) * sum_i cw_i * hinge_i``
by seeded stochastic subgradient descent, where ``cw_i`` is ``w`` for
positive instances and 1 for negatives, and ``lambda = 1 / (c * n)``.
The weights are held as ``w = scale * v`` (Bottou, *Stochastic Gradient
Descent Tricks*, 2012; Pegasos): the per-step decay ``w *= 1 - eta*lam``
multiplies the scalar ``scale`` only, and a hinge update writes only
the instance's nonzero ids of ``v``, so a step costs O(nnz) rather than
O(dimension).  When ``|scale|`` falls below a floor it is folded into
``v``, which also covers a decay factor of exactly 0.
The intercept stays at zero during descent; after the weights converge,
the decision threshold is chosen to maximize F-score on the training
scores themselves.  The candidate grid is every distinct training score
plus 0.0, so the tuned threshold can never score below the fixed-zero
threshold, and ties break toward the lower threshold (higher recall).
One sort of each class's scores yields the true- and false-positive
counts of every candidate at once.

Prediction is ``score = <w, x> + bias`` with the positive label assigned
iff ``score >= threshold``; feature ids the model has never seen
contribute zero.  Training is bit-deterministic for a fixed seed.

``train_cells`` trains several models ("cells") on the same labelled rows
in lockstep: the instance order, the ``eta`` schedule and the scale are
shared, so one step gathers every cell's entries of the row at once.  It
and :meth:`LinearModel.decisions` sum a row's products in one canonical
order, left to right in ascending feature id from +0.0 (see
``_segment_sums``), so their results do not depend on the CPU's BLAS
kernel.  ``train`` and :meth:`LinearModel.decision` still sum with
``np.dot``, which agrees with that order below 16 entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .features import FeatureRegistry, FeatureVector


# Below this |scale| the trainer folds the scale into v (see ``train``).
_SCALE_FLOOR = 1e-9


class DegenerateTrainingError(ValueError):
    """Training data does not contain both classes."""


class TrainingError(RuntimeError):
    """Optimization produced a non-finite scale, weight, margin or score."""


class ModelFormatError(ValueError):
    """A model file violates the versioned text format."""


def _segment_sums(segments: np.ndarray, terms: np.ndarray, count: int) -> np.ndarray:
    """Sum ``terms`` per segment id in ``range(count)``.

    The canonical summation order: each segment's terms are added left to
    right in array order, starting from +0.0, so a segment's sum does not
    depend on the other segments.  ``np.bincount`` adds its weights in
    input order; ``np.add.reduceat`` does not (it computes
    ``x0 + (x1 + x2)`` for three terms), and ``np.dot`` and
    ``np.add.reduce`` switch to blocked or pairwise sums on longer inputs.
    """
    return np.bincount(segments, weights=terms, minlength=count)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for hinge-SGD training.

    ``c`` scales inverse regularization (lambda = 1/(c*n)); ``w``
    multiplies the loss of positive instances.
    """

    c: float = 20.0
    w: float = 3.0
    epochs: int = 50
    eta0: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.w <= 0:
            raise ValueError("w must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")


@dataclass
class LinearModel:
    """Dense weight vector indexed by feature id, plus bias and threshold."""

    weights: np.ndarray
    bias: float
    threshold: float

    def decision(self, vector: FeatureVector) -> float:
        """Raw score for one feature vector; unknown ids contribute 0."""
        ids, values = vector.as_arrays()
        known = ids < len(self.weights)
        return float(np.dot(self.weights[ids[known]], values[known]) + self.bias)

    def predict(self, vector: FeatureVector) -> tuple[float, int]:
        """(score, label): label is 1 iff score >= threshold (inclusive)."""
        score = self.decision(vector)
        return score, int(score >= self.threshold)

    def decisions(
        self, rows: np.ndarray, ids: np.ndarray, values: np.ndarray, n: int
    ) -> np.ndarray:
        """Raw scores of ``n`` rows whose entries are (row, id, value) triples.

        Each row's products are summed in the canonical order (see
        ``_segment_sums``), so entries should come in ascending id within a
        row; unknown ids contribute 0.
        """
        known = ids < len(self.weights)
        products = self.weights[ids[known]] * values[known]
        return _segment_sums(rows[known], products, n) + self.bias


def tune_threshold(
    scores: np.ndarray, labels: np.ndarray
) -> tuple[float, float]:
    """F-maximizing threshold over all distinct scores plus 0.0.

    Returns (threshold, best F).  Predictions count an instance positive
    when its score is >= the threshold.  Ties in F break toward the
    lowest threshold, which prefers recall.  One sort per class gives,
    for every candidate at once, how many scores of that class lie at or
    above it.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(labels).astype(bool)
    candidates = np.unique(np.concatenate([scores, [0.0]]))
    positives = np.sort(scores[positive])
    negatives = np.sort(scores[~positive])
    tp = len(positives) - np.searchsorted(positives, candidates, side="left")
    fp = len(negatives) - np.searchsorted(negatives, candidates, side="left")
    fn = len(positives) - tp
    # A zero denominator means tp == 0, so F is 0 either way.
    f = 2 * tp / np.maximum(2 * tp + fp + fn, 1)
    best = int(np.argmax(f))
    return float(candidates[best]), float(f[best])


def train(
    instances: Sequence[tuple[FeatureVector, int]],
    config: TrainConfig = TrainConfig(),
) -> LinearModel:
    """Train a linear model on (feature vector, label in {0, 1}) pairs.

    Raises :class:`DegenerateTrainingError` unless both classes are
    present, and :class:`TrainingError` naming the epoch if the scale,
    the weights, a margin or a training score stops being finite.  Two
    calls with identical data and seed produce bit-identical weights.
    """
    n = len(instances)
    labels = np.array([int(label) for _, label in instances])
    if not ((labels == 1).any() and (labels == 0).any()):
        raise DegenerateTrainingError("training data must contain both classes")

    dimension = 0
    prepared = []
    for vector, label in instances:
        ids, values = vector.as_arrays()
        if len(ids):
            dimension = max(dimension, int(ids[-1]) + 1)
        y = 1.0 if label == 1 else -1.0
        class_weight = config.w if label == 1 else 1.0
        prepared.append((ids, values, y, class_weight))

    # The weights are scale * v: the decay rescales one number, and a
    # step writes only the instance's own ids.
    v = np.zeros(dimension, dtype=np.float64)
    scale = 1.0
    eta0 = config.eta0
    lam = 1.0 / (config.c * n)
    rng = np.random.default_rng(config.seed)
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            for index in rng.permutation(n).tolist():
                ids, values, y, class_weight = prepared[index]
                eta = eta0 / (1.0 + eta0 * lam * step)
                margin = y * scale * float(np.dot(v[ids], values))
                if not math.isfinite(margin):
                    raise TrainingError(f"non-finite margin in epoch {epoch}")
                scale *= 1.0 - eta * lam
                # Fold the scale into v before dividing by it: a decay
                # factor of exactly 0 (eta0 * lam == 1) zeroes the scale.
                if abs(scale) < _SCALE_FLOOR:
                    v *= scale
                    scale = 1.0
                if margin < 1.0:
                    v[ids] += (eta * class_weight * y / scale) * values
                step += 1
            if not (
                math.isfinite(scale)
                and math.isfinite(v.min(initial=0.0))
                and math.isfinite(v.max(initial=0.0))
            ):
                raise TrainingError(f"non-finite weights after epoch {epoch}")

        # Materialize the weights in place: v becomes scale * v.
        v *= scale
        scores = np.array([np.dot(v[ids], values) for ids, values, _, _ in prepared])
    if not np.all(np.isfinite(scores)):
        raise TrainingError(
            f"non-finite training scores after epoch {config.epochs - 1}"
        )
    threshold, _ = tune_threshold(scores, labels)
    return LinearModel(weights=v, bias=0.0, threshold=threshold)


@dataclass(frozen=True)
class CellRows:
    """Labelled rows of several cells, laid out for :func:`train_cells`.

    Row i has label ``labels[i]`` and entries ``ids[indptr[i]:indptr[i + 1]]``
    with their ``values`` and ``cells``: cell after cell, ids ascending
    within a cell, values nonzero.  The ids index one flat weight vector in
    which cell c owns ``offsets[c]:offsets[c + 1]``; ``cells`` holds intp
    cell indices.  ``len(rows)`` is the number of rows.
    """

    indptr: np.ndarray
    ids: np.ndarray
    values: np.ndarray
    cells: np.ndarray
    offsets: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


def train_cells(
    rows: CellRows, config: TrainConfig, names: Sequence[str]
) -> list[LinearModel]:
    """Train one model per cell of ``rows``, all cells in lockstep.

    The cells share the labels, so they share the seeded instance order,
    the ``eta`` schedule and the scale of ``w = scale * v``, floor folds
    included; only their margins differ.  One step gathers the row's
    entries of every cell, sums each cell's products in the canonical order
    (``_segment_sums``) and applies the hinge update to the cells whose
    margin is below 1.  A cell's weights and threshold therefore do not
    depend on the other cells: they equal a run on that cell alone, bit for
    bit, and agree with :func:`train` up to ``np.dot``'s summation order.

    Raises :class:`DegenerateTrainingError` unless both classes are
    present, and :class:`TrainingError` naming the cell (from ``names``) and
    the epoch if a margin, the weights, the scale or a training score stops
    being finite.
    """
    labels = np.asarray(rows.labels)
    n = len(labels)
    if not ((labels == 1).any() and (labels == 0).any()):
        raise DegenerateTrainingError("training data must contain both classes")
    count = len(rows.offsets) - 1
    offsets = rows.offsets
    positive = labels == 1
    bounds = rows.indptr[1:-1]
    prepared = list(
        zip(
            np.split(rows.ids, bounds),
            np.split(rows.values, bounds),
            np.split(rows.cells, bounds),
            np.where(positive, 1.0, -1.0).tolist(),
            np.where(positive, config.w, 1.0).tolist(),
        )
    )

    v = np.zeros(int(offsets[-1]), dtype=np.float64)
    scale = 1.0
    eta0 = config.eta0
    lam = 1.0 / (config.c * n)
    rng = np.random.default_rng(config.seed)
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            for index in rng.permutation(n).tolist():
                ids, values, cells, y, class_weight = prepared[index]
                eta = eta0 / (1.0 + eta0 * lam * step)
                margins = (y * scale) * _segment_sums(cells, v[ids] * values, count)
                # A finite total implies finite margins (and is cheaper).
                if not math.isfinite(margins.sum()):
                    finite = np.isfinite(margins)
                    if not finite.all():
                        cell = names[int(np.argmin(finite))]
                        raise TrainingError(
                            f"non-finite margin for cell {cell!r} in epoch {epoch}"
                        )
                scale *= 1.0 - eta * lam
                # Fold the scale into v before dividing by it: a decay
                # factor of exactly 0 (eta0 * lam == 1) zeroes the scale.
                if abs(scale) < _SCALE_FLOOR:
                    v *= scale
                    scale = 1.0
                violated = margins < 1.0
                if violated.any():
                    update = violated[cells]
                    coefficient = eta * class_weight * y / scale
                    # Ids are unique within a row, so np.add.at adds each
                    # update once, like v[ids] += ..., only faster.
                    np.add.at(v, ids[update], coefficient * values[update])
                step += 1
            if not math.isfinite(scale):
                raise TrainingError(
                    f"non-finite scale for cells {', '.join(names)} after epoch {epoch}"
                )
            finite = np.isfinite(v)
            if not finite.all():
                position = int(np.argmin(finite))
                cell = names[int(np.searchsorted(offsets, position, side="right")) - 1]
                raise TrainingError(
                    f"non-finite weights for cell {cell!r} after epoch {epoch}"
                )

        # Materialize the weights in place: v becomes scale * v.
        v *= scale
        # One row per instance, one column per cell.
        scores = np.array([
            _segment_sums(cells, v[ids] * values, count)
            for ids, values, cells, _, _ in prepared
        ])
    finite = np.isfinite(scores).all(axis=0)
    if not finite.all():
        raise TrainingError(
            f"non-finite training scores for cell {names[int(np.argmin(finite))]!r} "
            f"after epoch {config.epochs - 1}"
        )
    return [
        LinearModel(
            weights=v[offsets[cell] : offsets[cell + 1]],
            bias=0.0,
            threshold=tune_threshold(scores[:, cell], labels)[0],
        )
        for cell in range(count)
    ]


_MODEL_MAGIC = "incongruity-model"
_MODEL_VERSION = 1


def save_model(
    path: str | Path, model: LinearModel, registry: FeatureRegistry
) -> None:
    """Write the model as versioned text.

    Floats use ``repr`` so a load reproduces them exactly.  The registry's
    full name list is stored (one name per id, in id order) followed by
    the nonzero id/weight pairs, the bias, and the threshold.
    """
    names = registry.names
    if len(names) < len(model.weights):
        raise ValueError("registry does not cover every weight id")
    lines = [
        f"{_MODEL_MAGIC} v{_MODEL_VERSION}",
        f"dim {len(model.weights)}",
        f"bias {float(model.bias)!r}",
        f"threshold {float(model.threshold)!r}",
        f"names {len(names)}",
    ]
    lines.extend(names)
    nonzero = np.flatnonzero(model.weights)
    lines.append(f"weights {len(nonzero)}")
    lines.extend(f"{int(i)} {float(model.weights[i])!r}" for i in nonzero)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> tuple[LinearModel, FeatureRegistry]:
    """Read a model file back into a model and a frozen registry."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    try:
        if lines[0] != f"{_MODEL_MAGIC} v{_MODEL_VERSION}":
            raise ModelFormatError(f"unsupported model header {lines[0]!r}")
        dimension = int(_expect(lines[1], "dim"))
        bias = float(_expect(lines[2], "bias"))
        threshold = float(_expect(lines[3], "threshold"))
        name_count = int(_expect(lines[4], "names"))
        if dimension > name_count:
            raise ModelFormatError(
                f"{path}: line 2: dim {dimension} exceeds {name_count} names"
            )
        names = lines[5 : 5 + name_count]
        if len(names) != name_count:
            raise ModelFormatError("truncated name section")
        registry = FeatureRegistry()
        for lineno, name in enumerate(names, start=6):
            if name in registry:
                raise ModelFormatError(f"{path}: line {lineno}: name {name!r} listed twice")
            registry.intern(name)
        weight_header = 5 + name_count
        weight_count = int(_expect(lines[weight_header], "weights"))
        weight_lines = lines[weight_header + 1 : weight_header + 1 + weight_count]
        if len(weight_lines) != weight_count:
            raise ModelFormatError(
                f"{path}: line {weight_header + 1}: declares {weight_count} "
                f"weights, file has {len(weight_lines)}"
            )
        weights = np.zeros(dimension, dtype=np.float64)
        seen: set[int] = set()
        for lineno, line in enumerate(weight_lines, start=weight_header + 2):
            fid_text, _, value_text = line.partition(" ")
            fid = int(fid_text)
            if not 0 <= fid < dimension:
                raise ModelFormatError(
                    f"{path}: line {lineno}: weight id {fid} outside [0, {dimension})"
                )
            if fid in seen:
                raise ModelFormatError(f"{path}: line {lineno}: weight id {fid} listed twice")
            seen.add(fid)
            weights[fid] = float(value_text)
    except (IndexError, ValueError) as exc:
        if isinstance(exc, ModelFormatError):
            raise
        raise ModelFormatError(f"malformed model file {path}") from exc
    registry.freeze()
    return LinearModel(weights=weights, bias=bias, threshold=threshold), registry


def _expect(line: str, key: str) -> str:
    prefix = key + " "
    if not line.startswith(prefix):
        raise ModelFormatError(f"expected '{key} ...' line, found {line!r}")
    return line[len(prefix) :]
