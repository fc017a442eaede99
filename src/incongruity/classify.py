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

``train`` runs its step loop only on steps that might update.  After a
run of steps without an update it certifies the rest of the epoch at
once: one product over the corpus gives every row's dot with ``v`` in
some summation order, and each remaining step's ``eta``, decay factor
and scale are computed elementwise with the loop's association, the
scales by a left-to-right product, so they are the loop's bit for bit.
Any two summation orders of a row's m products, blocked or fused BLAS
kernels included, differ by at most ``2 * gamma_m * sum |v_i x_i|``,
where ``gamma_m = m*u / (1 - m*u)`` and ``u = 2**-53`` (Higham, *Accuracy
and Stability of Numerical Algorithms*, 2002, section 3.1), and
``sum |v_i x_i| <= V * ||x||_1`` for ``V = max |v|``, which stays fixed
while no step updates.  A step is certified
when its margin exceeds 1 by more than the allowance
``4*m*u * |scale| * V * ||x||_1 + 2**-50 * |margin|`` (the second term
covers the rounding of the margin's own product and of underflow), when
``V * ||x||_1`` and ``|scale| * V * ||x||_1`` stay below ``2**1022``, so
that no summation order can overflow, and when the scale stays at or
above the fold floor through it.  On such a step the loop would find
``margin >= 1`` and only decay the scale, which the jump reproduces; so
weights and thresholds are the step loop's on every BLAS kernel.  The
first step that is not certified runs in the loop.

Prediction is ``score = <w, x> + bias`` with the positive label assigned
iff ``score >= threshold``; feature ids the model has never seen
contribute zero.  Training is bit-deterministic for a fixed seed.

``train_cells`` trains several models ("cells") on the same labelled rows
in lockstep: the instance order, the ``eta`` schedule and the scale are
shared, so one step gathers every cell's entries of the row at once.  It
and :func:`cell_scores`, which scores training and test rows alike, sum a
row's products in one canonical order, left to right in ascending feature
id from +0.0 (see ``_segment_sums``), so their results do not depend on
the CPU's BLAS kernel.  ``train`` and :meth:`LinearModel.decision` still
sum with ``np.dot``, which agrees with that order below 16 entries.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputError, read_lines
from .features import FeatureRegistry, FeatureVector


# Below this |scale| the trainer folds the scale into v (see ``train``).
_SCALE_FLOOR = 1e-9


class DegenerateTrainingError(InputError):
    """Training data does not contain both classes."""


class TrainingError(InputError, RuntimeError):
    """Optimization produced a non-finite scale, weight, margin or score: the
    user's features or hyperparameters overflow."""


class TrainConfigError(InputError):
    """A training hyperparameter is not finite, positive or whole."""


class ModelFormatError(InputError):
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
        for name in ("c", "w", "eta0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise TrainConfigError(
                    f"{name} must be finite and positive, got {value!r}"
                )
        for name, least in (("epochs", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < least:
                raise TrainConfigError(
                    f"{name} must be an integer of at least {least}, got {value!r}"
                )


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
    rows = _Rows.of(prepared)

    # The weights are scale * v: the decay rescales one number, and a
    # step writes only the instance's own ids.
    v = np.zeros(dimension, dtype=np.float64)
    scale = 1.0
    eta0 = config.eta0
    lam = 1.0 / (config.c * n)
    rng = np.random.default_rng(config.seed)
    step = 0
    # Exact steps since the last update or the last certification that
    # stopped short of the end of its epoch.
    clean = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            pending = order.tolist()
            position = 0
            while position < n:
                if clean >= _CLEAN_RUN:
                    count, scale = _certified_steps(
                        rows, v, scale, step, eta0, lam, order[position:]
                    )
                    step += count
                    position += count
                    if position == n:
                        break
                    clean = 0
                ids, values, y, class_weight = prepared[pending[position]]
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
                    clean = 0
                else:
                    clean += 1
                step += 1
                position += 1
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


# After this many exact steps without an update, ``train`` certifies the
# rest of the epoch.  One certification costs about as much as 250-300
# exact steps (0.65-0.73 ms against about 2.5 us a step, on 3,629 rows with
# 175k entries), so the loop waits about that long before it bets that the
# rest of the epoch is clean.  On that corpus, clean runs of 64, 256 and
# 1,024 steps need 134, 68 and 46 certifications and 15k, 25k and 33k
# exact steps per 50-epoch fit: 256 spends the least on the two together.
_CLEAN_RUN = 256


@dataclass(frozen=True)
class _Rows:
    """The training rows end to end, for :func:`_certified_steps`.

    ``ids`` and ``values`` hold every row's entries in row order, and
    ``starts`` where each row with entries (``nonempty``) begins.  Per
    row: the sign ``y``, ``norms`` its ``||x||_1`` and ``slack`` its
    ``m * 2**-51`` for m entries.
    """

    ids: np.ndarray
    values: np.ndarray
    starts: np.ndarray
    nonempty: np.ndarray
    y: np.ndarray
    norms: np.ndarray
    slack: np.ndarray

    @classmethod
    def of(cls, prepared) -> "_Rows":
        """The rows of ``train``'s (ids, values, y, class weight) tuples."""
        lengths = np.array([len(ids) for ids, _, _, _ in prepared], dtype=np.int64)
        nonempty = lengths > 0
        starts = (np.cumsum(lengths) - lengths)[nonempty]
        values = np.concatenate([values for _, values, _, _ in prepared])
        norms = np.zeros(len(prepared))
        norms[nonempty] = np.add.reduceat(np.abs(values), starts)
        return cls(
            ids=np.concatenate([ids for ids, _, _, _ in prepared]),
            values=values,
            starts=starts,
            nonempty=nonempty,
            y=np.array([y for _, _, y, _ in prepared]),
            norms=norms,
            slack=lengths * 2.0**-51,
        )


def _certified_steps(
    rows: _Rows,
    v: np.ndarray,
    scale: float,
    step: int,
    eta0: float,
    lam: float,
    pending: np.ndarray,
) -> tuple[int, float]:
    """How many of the next steps, over row indices ``pending``, provably
    make no update; and the scale after them.

    The steps are ``step``, ``step + 1``, ... with the weights
    ``scale * v``.  One product over the corpus gives every row's dot
    with ``v`` in an order other than ``np.dot``'s, and each step's
    ``eta``, decay factor and scale are computed as in ``train``'s loop,
    bit for bit.  A step is certified when its margin exceeds 1 by more
    than the allowance, its magnitudes cannot overflow and the scale
    stays at or above the floor through it (see the module docstring);
    the count is the length of the certified prefix.
    """
    # NaN if v holds a NaN, which certifies nothing.
    top = np.abs(v).max(initial=0.0)
    products = v[rows.ids] * rows.values
    dots = np.zeros(len(rows.y))
    dots[rows.nonempty] = np.add.reduceat(products, rows.starts)
    steps = np.arange(step, step + len(pending), dtype=np.float64)
    eta = eta0 / (1.0 + eta0 * lam * steps)
    # Left to right: scales[t] is the scale before step t, bit for bit.
    scales = np.multiply.accumulate(np.concatenate([[scale], 1.0 - eta * lam]))
    before = scales[:-1]
    margins = rows.y[pending] * before * dots[pending]
    reach = top * rows.norms[pending]
    bound = np.abs(before) * reach
    allowance = bound * rows.slack[pending] + 2.0**-50 * np.abs(margins)
    certified = (
        (margins - allowance > 1.0)
        & (reach < 2.0**1022)
        & (bound < 2.0**1022)
        & (np.abs(scales[1:]) >= _SCALE_FLOOR)
    )
    count = len(pending) if certified.all() else int(np.argmin(certified))
    return count, float(scales[count])


@dataclass(frozen=True)
class CellRows:
    """Labelled rows of several cells, laid out for :func:`train_cells`.

    Row i has label ``labels[i]`` and entries ``ids[starts[i]:stops[i]]``
    with their ``values`` and ``cells``: cell after cell, ids ascending
    within a cell, values nonzero.  The ids index one flat weight vector in
    which cell c owns ``offsets[c]:offsets[c + 1]``; ``cells`` holds intp
    cell indices.  ``len(rows)`` is the number of rows; :meth:`take`
    selects rows without copying an entry.
    """

    starts: np.ndarray
    stops: np.ndarray
    ids: np.ndarray
    values: np.ndarray
    cells: np.ndarray
    offsets: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, rows: Sequence[int]) -> CellRows:
        """Rows ``rows``, row k being row ``rows[k]``, over the same entries."""
        return replace(
            self, starts=self.starts[rows], stops=self.stops[rows], labels=self.labels[rows]
        )


def cell_scores(rows: CellRows, weights: np.ndarray) -> np.ndarray:
    """The scores of ``rows`` under the flat weight vector ``weights``, one
    row per row and one column per cell (the models of :func:`train_cells`
    have no bias).

    Each (row, cell) sums its products in the canonical order (see
    ``_segment_sums``).  Rows are scored one at a time, so no temporary
    spans more than one row's entries.
    """
    count = len(rows.offsets) - 1
    scores = np.empty((len(rows), count))
    for row, (a, b) in enumerate(zip(rows.starts.tolist(), rows.stops.tolist())):
        products = weights[rows.ids[a:b]] * rows.values[a:b]
        scores[row] = _segment_sums(rows.cells[a:b], products, count)
    return scores


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
    prepared = [
        (rows.ids[a:b], rows.values[a:b], rows.cells[a:b], y, class_weight)
        for a, b, y, class_weight in zip(
            rows.starts.tolist(),
            rows.stops.tolist(),
            np.where(positive, 1.0, -1.0).tolist(),
            np.where(positive, config.w, 1.0).tolist(),
        )
    ]

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
        scores = cell_scores(rows, v)
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
    """Read a model file back into a model and a frozen registry.

    The file is read by :func:`~incongruity.errors.read_lines`.  A file that
    breaks the format raises :class:`ModelFormatError` naming the file and
    the line.
    """
    lines = [line for _, line in read_lines(path, ModelFormatError)]
    header = lines[0] if lines else ""
    if header != f"{_MODEL_MAGIC} v{_MODEL_VERSION}":
        raise ModelFormatError(f"{path}: line 1: unsupported model header {header!r}")
    dimension = _count(path, lines, 2, "dim")
    bias = _finite(path, 3, _expect(path, lines, 3, "bias"))
    threshold = _finite(path, 4, _expect(path, lines, 4, "threshold"))
    name_count = _count(path, lines, 5, "names")
    if dimension > name_count:
        raise ModelFormatError(
            f"{path}: line 2: dim {dimension} exceeds {name_count} names"
        )
    names = lines[5 : 5 + name_count]
    if len(names) != name_count:
        raise ModelFormatError(
            f"{path}: line 5: declares {name_count} names, file has {len(names)}"
        )
    registry = FeatureRegistry()
    for lineno, name in enumerate(names, start=6):
        if name in registry:
            raise ModelFormatError(f"{path}: line {lineno}: name {name!r} listed twice")
        registry.intern(name)
    # Line numbers from here on count from 1, as in the messages.
    weight_header = 6 + name_count
    weight_count = _count(path, lines, weight_header, "weights")
    weight_lines = lines[weight_header : weight_header + weight_count]
    if len(weight_lines) != weight_count:
        raise ModelFormatError(
            f"{path}: line {weight_header}: declares {weight_count} "
            f"weights, file has {len(weight_lines)}"
        )
    weights = np.zeros(dimension, dtype=np.float64)
    seen: set[int] = set()
    for lineno, line in enumerate(weight_lines, start=weight_header + 1):
        fid_text, _, value_text = line.partition(" ")
        try:
            fid, value = int(fid_text), float(value_text)
        except ValueError:
            raise ModelFormatError(
                f"{path}: line {lineno}: expected '<id> <weight>', found {line!r}"
            ) from None
        if not 0 <= fid < dimension:
            raise ModelFormatError(
                f"{path}: line {lineno}: weight id {fid} outside [0, {dimension})"
            )
        if fid in seen:
            raise ModelFormatError(f"{path}: line {lineno}: weight id {fid} listed twice")
        if not math.isfinite(value):
            raise ModelFormatError(f"{path}: line {lineno}: non-finite value {value_text!r}")
        seen.add(fid)
        weights[fid] = value
    registry.freeze()
    return LinearModel(weights=weights, bias=bias, threshold=threshold), registry


def _finite(path: str | Path, lineno: int, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ModelFormatError(f"{path}: line {lineno}: not a number {text!r}") from None
    if not math.isfinite(value):
        raise ModelFormatError(f"{path}: line {lineno}: non-finite value {text!r}")
    return value


def _count(path: str | Path, lines: Sequence[str], lineno: int, key: str) -> int:
    """The whole number on line ``lineno`` (from 1), a ``key`` line."""
    text = _expect(path, lines, lineno, key)
    if not (text.isascii() and text.isdigit()):
        raise ModelFormatError(
            f"{path}: line {lineno}: {key} must be a whole number, found {text!r}"
        )
    return int(text)


def _expect(path: str | Path, lines: Sequence[str], lineno: int, key: str) -> str:
    """The rest of line ``lineno`` (from 1), which must start with ``key``."""
    line = lines[lineno - 1] if lineno <= len(lines) else None
    if line is None or not line.startswith(key + " "):
        found = "the end of the file" if line is None else repr(line)
        raise ModelFormatError(
            f"{path}: line {lineno}: expected '{key} ...' line, found {found}"
        )
    return line[len(key) + 1 :]
