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

Every sum of a row's products, in training and in scoring, is taken in
one canonical order: left to right in ascending feature id, from +0.0
(see ``_segment_sums``).  So, for given features, weights, thresholds
and scores do not depend on the CPU's BLAS kernel, and ``train`` equals
a one-cell :func:`train_cells` bit for bit.

``train`` runs its step loop only on steps that might update.  After a
run of steps without an update it certifies the rest of the epoch in
blocks of pending rows, each twice as long as the last while every step
so far is certified.  A block needs each row's dot with ``v``; a dot is
computed only for a row whose dot was not kept since the last write to
``v`` (a hinge update or a scale-floor fold), and an exact step that does
not update keeps its own.  So an epoch on weights that stood still
through the one before computes no dot.  The dots are summed in the
canonical order, and each step's ``eta``, decay factor and scale are
computed elementwise with the loop's association, the scales by a
left-to-right product continued from block to block; so each margin is
the one the loop would compute, bit for bit.  A step is certified exactly
when the loop would not update: its margin is finite and at least 1, and
the scale stays at or above the fold floor through it.  The jump then
only decays the scale, as the loop would.  The first step that is not
certified runs in the loop.

Prediction is ``score = <w, x> + bias`` with the positive label assigned
iff ``score >= threshold``; feature ids the model has never seen
contribute zero.  Training is bit-deterministic for a fixed seed.

``train_cells`` trains several models ("cells") on the same labelled rows
in lockstep: the instance order, the ``eta`` schedule and the scale are
shared, so one step gathers every cell's entries of the row at once.
:func:`cell_scores` scores its training and test rows alike.
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
    ``x0 + (x1 + x2)`` for three terms), and BLAS dot products and
    ``np.add.reduce`` switch to blocked or pairwise sums on longer inputs.
    """
    return np.bincount(segments, weights=terms, minlength=count)


def _row_sum(terms: np.ndarray) -> float:
    """``terms`` summed in the canonical order (see ``_segment_sums``).

    ``np.add.accumulate`` adds left to right from the first term.  The two
    orders can differ only in the sign of a zero total, and a sum from
    +0.0 is never -0.0, so adding +0.0 makes them agree.
    """
    return float(np.add.accumulate(terms)[-1]) + 0.0 if len(terms) else 0.0


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
        return _row_sum(self.weights[ids[known]] * values[known]) + self.bias

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

    Raises :class:`InputError` naming the row of a label that is not 0 or
    1, :class:`DegenerateTrainingError` unless both classes are present,
    and :class:`TrainingError` naming the epoch if the scale, the weights,
    a margin or a training score stops being finite.  Two calls with
    identical data and seed produce bit-identical weights.
    """
    n = len(instances)
    for row, (_, label) in enumerate(instances):
        if label not in (0, 1):
            raise InputError(f"row {row}: label {label!r} is not 0 or 1")
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
    rows = _Rows(prepared)
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
            written = rows.writes
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
                index = pending[position]
                ids, values, y, class_weight = prepared[index]
                eta = eta0 / (1.0 + eta0 * lam * step)
                dot = _row_sum(v[ids] * values)
                margin = y * scale * dot
                if not math.isfinite(margin):
                    raise TrainingError(f"non-finite margin in epoch {epoch}")
                scale *= 1.0 - eta * lam
                # Kept before a fold, which forgets it with every other dot.
                if margin >= 1.0:
                    rows.keep(index, dot)
                    clean += 1
                # Fold the scale into v before dividing by it: a decay
                # factor of exactly 0 (eta0 * lam == 1) zeroes the scale.
                if abs(scale) < _SCALE_FLOOR:
                    v *= scale
                    scale = 1.0
                    rows.writes += 1
                if margin < 1.0:
                    coefficient = eta * class_weight * y / scale
                    v[ids] += coefficient * values
                    rows.writes += 1
                    clean = 0
                step += 1
                position += 1
            # v is checked only after an epoch that wrote to it.
            if not math.isfinite(scale) or (
                rows.writes != written
                and not (
                    math.isfinite(v.min(initial=0.0)) and math.isfinite(v.max(initial=0.0))
                )
            ):
                raise TrainingError(f"non-finite weights after epoch {epoch}")

        # Materialize the weights in place: v becomes scale * v.
        v *= scale
        scores = np.array([_row_sum(v[ids] * values) for ids, values, _, _ in prepared])
    if not np.all(np.isfinite(scores)):
        raise TrainingError(
            f"non-finite training scores after epoch {config.epochs - 1}"
        )
    threshold, _ = tune_threshold(scores, labels)
    return LinearModel(weights=v, bias=0.0, threshold=threshold)


# After this many exact steps without an update, ``train`` certifies the
# rest of the epoch.  Measured on the 3,629 rows (175k entries) of the
# benchmark's seed-0 fit-highdim corpus, one 50-epoch fit with a first
# block of 64 rows, medians of 11 fits interleaved across the settings on
# a 2-core host:
#
#   clean run          8      16      32      64     128
#   certifications   353     234     167     134     101
#   exact steps     7.7k    9.5k   11.8k   15.1k   19.6k
#   row dots         58k     49k     42k     37k     31k
#   fit (ms)          95      92      94      92      99
#
# 16 to 64 lie within each other's noise.  Over 21 fits each on the seed-0
# and seed-1 corpora, 32 took 97.6 and 96.3 ms, 64 took 104.4 and 98.2 ms.
_CLEAN_RUN = 32

# A certification examines this many pending rows first, then twice as many
# at each block whose steps are all certified.  With a clean run of 32, on
# the same fits:
#
#   first block       16      32      64     128     256
#   row dots         40k     41k     42k     48k     55k
#   fit (ms)         104      97      97     100     102
_FIRST_BLOCK = 64


class _Rows:
    """The training rows, for :func:`_certified_steps`, and the row dots
    ``train`` keeps while ``v`` stands still.

    ``ids`` and ``values`` hold every row's entries in row order, row i's
    being ``bounds[i]:bounds[i + 1]``, and ``y`` holds the rows' signs.

    ``writes`` counts the writes to ``v``: hinge updates and scale-floor
    folds.  ``dots[i]`` is row i's dot with ``v``, summed in the canonical
    order, while ``stamps[i] >= writes``.  An empty row's dot is 0 whatever
    ``v`` holds, so its stamp never falls behind (its margin, 0, is never
    kept by an exact step).
    """

    def __init__(self, prepared):
        """The rows of ``train``'s (ids, values, y, class weight) tuples."""
        lengths = np.array([len(ids) for ids, _, _, _ in prepared], dtype=np.int64)
        self.bounds = np.concatenate([[0], np.cumsum(lengths)])
        self.ids = np.concatenate([np.zeros(0, np.int64), *(ids for ids, _, _, _ in prepared)])
        self.values = np.concatenate([np.zeros(0), *(values for _, values, _, _ in prepared)])
        self.y = np.array([y for _, _, y, _ in prepared])
        self.dots = np.zeros(len(prepared))
        self.stamps = np.where(lengths > 0, -1, np.iinfo(np.int64).max)
        self.writes = 0

    def keep(self, row: int, dot: float) -> None:
        """Row ``row``'s dot with the current ``v`` is ``dot``."""
        self.dots[row] = dot
        self.stamps[row] = self.writes

    def dots_of(self, v: np.ndarray, chosen: np.ndarray) -> np.ndarray:
        """The dots of rows ``chosen`` with ``v``, computing only those not
        kept since the last write, and keeping them."""
        # Ascending rows read their entries in memory order.
        stale = np.sort(chosen[self.stamps[chosen] < self.writes])
        if len(stale):
            self.dots[stale] = _row_dots(self, v, stale)
            self.stamps[stale] = self.writes
        return self.dots[chosen]


def _row_dots(rows: _Rows, v: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """The dots of the nonempty rows ``chosen`` with ``v``, each summed in
    the canonical order, as ``train``'s step loop sums it."""
    starts = rows.bounds[chosen]
    lengths = rows.bounds[chosen + 1] - starts
    segments = np.repeat(np.arange(len(chosen)), lengths)
    # Entry k of the gathered rows is entry k - first + start of its row.
    slots = np.arange(len(segments)) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    products = v.take(rows.ids.take(slots))
    products *= rows.values.take(slots)
    return _segment_sums(segments, products, len(chosen))


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
    ``scale * v``.  The pending rows are examined in blocks, the first of
    ``_FIRST_BLOCK`` rows and each next one twice as long, while every step
    of a block is certified.  A block's row dots come from ``rows``, which
    computes only those not kept since ``v`` was last written; they, and
    each step's ``eta``, decay factor, scale and margin, are computed as in
    ``train``'s loop, the scales continuing from block to block, bit for
    bit.  A step is certified when its margin is finite and at least 1 and
    the scale stays at or above the floor through it; the count is the
    length of the certified prefix.
    """
    done = 0
    size = _FIRST_BLOCK
    while done < len(pending):
        block = pending[done : done + size]
        dots = rows.dots_of(v, block)
        steps = np.arange(step + done, step + done + len(block), dtype=np.float64)
        eta = eta0 / (1.0 + eta0 * lam * steps)
        # Left to right: scales[t] is the scale before step t, bit for bit.
        scales = np.multiply.accumulate(np.concatenate([[scale], 1.0 - eta * lam]))
        before = scales[:-1]
        margins = rows.y[block] * before * dots
        certified = (
            (margins >= 1.0) & np.isfinite(margins) & (np.abs(scales[1:]) >= _SCALE_FLOOR)
        )
        if not certified.all():
            count = int(np.argmin(certified))
            return done + count, float(scales[count])
        done += len(block)
        scale = float(scales[-1])
        size *= 2
    return done, scale


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
) -> tuple[np.ndarray, np.ndarray]:
    """Train one model per cell of ``rows``, all cells in lockstep: the flat
    weight vector, cell c's weights being ``offsets[c]:offsets[c + 1]``, and
    the cells' thresholds (the models have no bias).

    The cells share the labels, so they share the seeded instance order,
    the ``eta`` schedule and the scale of ``w = scale * v``, floor folds
    included; only their margins differ.  One step gathers the row's
    entries of every cell, sums each cell's products in the canonical order
    (``_segment_sums``) and applies the hinge update to the cells whose
    margin is below 1.  A cell's weights and threshold therefore do not
    depend on the other cells: they equal a run on that cell alone, bit for
    bit, and equal :func:`train` on that cell's rows.

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
    return v, np.array([tune_threshold(scores[:, cell], labels)[0] for cell in range(count)])


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
    breaks the format, a line after the declared weights included, raises
    :class:`ModelFormatError` naming the file and the line.
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
    registry.intern_all(names)
    if len(registry) < name_count:
        seen: set[str] = set()
        for lineno, name in enumerate(names, start=6):
            if name in seen:
                raise ModelFormatError(f"{path}: line {lineno}: name {name!r} listed twice")
            seen.add(name)
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
    # Two model files joined with ``cat`` must not load as the first one.
    end = weight_header + weight_count
    if len(lines) > end:
        raise ModelFormatError(
            f"{path}: line {end + 1}: expected the end of the file after "
            f"{weight_count} weights, found {lines[end]!r}"
        )
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
