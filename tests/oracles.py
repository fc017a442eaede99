"""Brute-force reference implementations used to check the real pipeline.

These deliberately avoid the library's matrix staging: every per-word
extreme is recomputed by scanning the full pair list, so a bug in the
production bookkeeping cannot hide here.
"""

from __future__ import annotations

import math
import unicodedata

import numpy as np

from incongruity.classify import (
    _SCALE_FLOOR,
    DegenerateTrainingError,
    LinearModel,
    TrainingError,
    tune_threshold,
)
from incongruity.features import FeatureRegistry, FeatureVector
from incongruity.similarity import Augmentation


def cosine(u, v) -> float:
    dot = sum(float(a) * float(b) for a, b in zip(u, v))
    nu = math.sqrt(sum(float(a) ** 2 for a in u))
    nv = math.sqrt(sum(float(b) ** 2 for b in v))
    value = dot / (nu * nv)
    return max(-1.0, min(1.0, value))


def min_distance(positions_a, positions_b) -> int:
    return min(abs(p - q) for p in positions_a for q in positions_b)


def brute_force_blocks(words, vectors, positions, exponent: int = 2):
    """Reference S and WS blocks for one sentence.

    ``words`` is the list of content-word types, ``vectors[i]`` the vector
    of words[i], ``positions[i]`` its occurrence positions.  Returns
    (s_block, ws_block), each (max_sim, min_sim, max_dissim, min_dissim).
    """
    n = len(words)
    assert n >= 2
    return _blocks(n, lambda a, b: cosine(vectors[a], vectors[b]), positions, exponent)


def _blocks(n, score_of, positions, exponent=2):
    pairs = [(i, j) for i in range(n) for j in range(n) if i < j]

    def block(score):
        best = []
        worst = []
        for i in range(n):
            touching = []
            for a, b in pairs:
                if i in (a, b):
                    touching.append(score(a, b))
            best.append(max(touching))
            worst.append(min(touching))
        return (max(best), min(best), max(worst), min(worst))

    s_block = block(score_of)
    ws_block = block(
        lambda a, b: score_of(a, b) / min_distance(positions[a], positions[b]) ** exponent
    )
    return s_block, ws_block


def content_words(tokens, stopwords, table):
    """Reference content-word selection, one token at a time.

    Returns (words, vectors, positions) in first-occurrence order.
    """
    positions = {}
    for position, token in enumerate(tokens):
        punctuation = all(unicodedata.category(ch)[0] in "PS" for ch in token)
        if punctuation or token.casefold() in stopwords:
            continue
        word = token if token in table else token.lower()
        if word in table and any(float(x) != 0.0 for x in table.vector(word)):
            positions.setdefault(word, []).append(position)
    words = list(positions)
    return words, [table.vector(w) for w in words], [positions[w] for w in words]


def gram_block_row(tokens, stopwords, table):
    """Reference S+WS row of one sentence in the library's arithmetic.

    The cosines come from one 2-D Gram product of the unit-normalized
    float64 rows, the smaller of (i, j) and (j, i) clamped to [-1, 1];
    everything else is a loop.  A sentence with fewer than two types gets
    zeros.
    """
    words, vectors, positions = content_words(tokens, stopwords, table)
    if len(words) < 2:
        return np.zeros(8)
    unit = np.array(vectors, dtype=np.float64)
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    gram = unit @ unit.T

    def score_of(a, b):
        return min(max(min(float(gram[a, b]), float(gram[b, a])), -1.0), 1.0)

    s_block, ws_block = _blocks(len(words), score_of, positions)
    return np.array(s_block + ws_block)


def number_row(registry, fragments):
    """Reference numbering of one sentence's fragments, one dict per sentence,
    as the library's ``_compile`` numbered a corpus row by row.

    Interns every name through ``registry`` in fragment order, zero-valued
    ones included, keeps the nonzero values of names the registry holds and
    returns them as (id, value) pairs, ids ascending.  A name in two
    fragments raises ValueError.
    """
    values = {}
    seen = set()
    for fragment in fragments:
        for name, value in fragment.items():
            if name in seen:
                raise ValueError(f"feature name {name!r} repeated in one row")
            seen.add(name)
            fid = registry.intern(name)
            if fid is not None and value != 0.0:
                values[fid] = float(value)
    return sorted(values.items())


# -- per-sentence tokens and prior fragments ---------------------------------
#
# The library tokenized one sentence at a time and built one name -> value
# dict per prior family per sentence; these are those functions.  The
# corpus path must give every sentence the same names, values and, through
# ``number_row``, the same numbering.


def _is_punct_char(ch) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


def is_punctuation(token) -> bool:
    return bool(token) and all(map(_is_punct_char, token))


def tokenize(text):
    """Reference tokens of ``text``: NFC, split on whitespace, each leading
    and trailing run of punctuation or symbol characters its own token."""
    tokens = []
    for chunk in unicodedata.normalize("NFC", text).split():
        lead = 0
        while lead < len(chunk) and _is_punct_char(chunk[lead]):
            lead += 1
        if lead == len(chunk):
            tokens.append(chunk)
            continue
        trail = len(chunk)
        while trail > lead and _is_punct_char(chunk[trail - 1]):
            trail -= 1
        if lead:
            tokens.append(chunk[:lead])
        tokens.append(chunk[lead:trail])
        if trail < len(chunk):
            tokens.append(chunk[trail:])
    return tuple(tokens)


def _tags(lexicon, token):
    return lexicon.entries.get(token.lower(), frozenset())


def _polarity(lexicon, token) -> int:
    tags = _tags(lexicon, token)
    positive = "positive" in tags
    negative = "negative" in tags
    if positive == negative:
        return 0
    return 1 if positive else -1


_NGRAM_PREFIX = {1: "uni", 2: "bi", 3: "tri"}


def ngram_features(tokens, n_max):
    """Binary presence of 1..n_max-grams over lowercased word tokens."""
    words = [t.lower() for t in tokens if not is_punctuation(t)]
    fragment = {}
    for n in range(1, n_max + 1):
        for start in range(len(words) - n + 1):
            fragment[f"{_NGRAM_PREFIX[n]}:{'_'.join(words[start : start + n])}"] = 1.0
    return fragment


def lexicon_category_features(tokens, lexicon):
    """G's per-category token counts; categories with no hits are omitted."""
    fragment = {}
    for category in ("emotion", "psych_process"):
        count = sum(1 for tok in tokens if category in _tags(lexicon, tok))
        if count:
            fragment[f"lexcat.{category}"] = float(count)
    return fragment


_QUOTE_CHARS = set("\"'“”‘’`«»")
_ELLIPSIS_MARKS = ("...", "…")


def _has_ellipsis(token):
    return any(mark in token for mark in _ELLIPSIS_MARKS)


def _punctuation_mark_counts(tokens):
    counts = dict.fromkeys(
        ("exclamation", "question", "period", "comma", "quote", "ellipsis", "other"), 0
    )
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


def _longest_run(values, sign):
    longest = current = 0
    for value in values:
        current = current + 1 if value == sign else 0
        longest = max(longest, current)
    return longest


def pragmatic_features(tokens, lexicon):
    """B's pragmatic block plus unigrams."""
    token_polarity = [_polarity(lexicon, t) for t in tokens]
    fragment = ngram_features(tokens, 1)
    if _longest_run(token_polarity, 1) >= 3 or _longest_run(token_polarity, -1) >= 3:
        fragment["prag.hyperbole"] = 1.0
    punct_tokens = [t for t in tokens if is_punctuation(t)]
    if any(set(t) & _QUOTE_CHARS for t in punct_tokens):
        fragment["prag.quotes"] = 1.0
    if any(_has_ellipsis(t) for t in punct_tokens):
        fragment["prag.ellipsis"] = 1.0
    for i, polarity in enumerate(token_polarity[:-1]):
        follower = tokens[i + 1]
        if polarity == 0 or not is_punctuation(follower):
            continue
        side = "pos" if polarity > 0 else "neg"
        if "!" in follower or "?" in follower:
            fragment[f"prag.{side}_then_emphasis"] = 1.0
        if _has_ellipsis(follower):
            fragment[f"prag.{side}_then_ellipsis"] = 1.0
    for mark_class, count in _punctuation_mark_counts(tokens).items():
        if count:
            fragment[f"prag.punct.{mark_class}"] = float(count)
    interjections = sum(1 for t in tokens if "interjection" in _tags(lexicon, t))
    if interjections:
        fragment["prag.interjections"] = float(interjections)
    laughter = sum(1 for t in tokens if "laughter" in _tags(lexicon, t))
    if laughter:
        fragment["prag.laughter"] = float(laughter)
    return fragment


def incongruity_features(raw, tokens, lexicon):
    """J's polarity-sequence block plus unigrams; implicit phrases are
    counted in the NFC-normalized, lowercased raw text."""
    sequence = [p for p in (_polarity(lexicon, t) for t in tokens) if p != 0]
    fragment = ngram_features(tokens, 1)
    flips = sum(1 for a, b in zip(sequence, sequence[1:]) if a != b)
    if flips:
        fragment["incong.flips"] = float(flips)
    pos_run = _longest_run(sequence, 1)
    if pos_run:
        fragment["incong.longest_pos_run"] = float(pos_run)
    neg_run = _longest_run(sequence, -1)
    if neg_run:
        fragment["incong.longest_neg_run"] = float(neg_run)
    if sum(sequence):
        fragment["incong.polarity"] = float(sum(sequence))
    haystack = unicodedata.normalize("NFC", raw).lower()
    phrases = [e for e, tags in lexicon.entries.items() if "implicit_incongruity_phrase" in tags]
    matches = sum(haystack.count(phrase) for phrase in phrases)
    if matches:
        fragment["incong.implicit_matches"] = float(matches)
    return fragment


def prior_fragments(text, prior_set, lexicon):
    """One sentence's fragments under ``prior_set``, in emission order."""
    tokens = tokenize(text)
    if prior_set == "L":
        return [ngram_features(tokens, 3)]
    if prior_set == "G":
        return [ngram_features(tokens, 1), lexicon_category_features(tokens, lexicon)]
    if prior_set == "B":
        return [pragmatic_features(tokens, lexicon)]
    return [incongruity_features(text, tokens, lexicon)]


def brute_force_threshold(scores, labels):
    """Reference F-tuned threshold: score every candidate separately.

    Candidates are the distinct scores plus 0.0, ascending; the first
    (lowest) threshold with the highest F wins.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(labels).astype(bool)
    candidates = np.unique(np.concatenate([scores, [0.0]]))
    best_threshold = 0.0
    best_f = -1.0
    for threshold in candidates:
        predicted = scores >= threshold
        tp = int(np.sum(predicted & positive))
        fp = int(np.sum(predicted & ~positive))
        fn = int(np.sum(~predicted & positive))
        denominator = 2 * tp + fp + fn
        f = 2 * tp / denominator if denominator else 0.0
        if f > best_f:
            best_f = f
            best_threshold = float(threshold)
    return best_threshold, best_f


def dense_sgd_weights(instances, config):
    """Reference hinge-SGD weights: decay the whole dense vector every step.

    Same objective, step sizes and seeded instance order as
    ``classify.train``, without the scale-factor representation.
    """
    n = len(instances)
    prepared = []
    dimension = 0
    for vector, label in instances:
        ids, values = vector.as_arrays()
        if len(ids):
            dimension = max(dimension, int(ids[-1]) + 1)
        y = 1.0 if label == 1 else -1.0
        class_weight = config.w if label == 1 else 1.0
        prepared.append((ids, values, y, class_weight))

    weights = np.zeros(dimension, dtype=np.float64)
    lam = 1.0 / (config.c * n)
    rng = np.random.default_rng(config.seed)
    step = 0
    for _ in range(config.epochs):
        for index in rng.permutation(n):
            ids, values, y, class_weight = prepared[index]
            eta = config.eta0 / (1.0 + config.eta0 * lam * step)
            margin = y * np.dot(weights[ids], values)
            weights *= 1.0 - eta * lam
            if margin < 1.0:
                weights[ids] += (eta * class_weight) * y * values
            step += 1
    return weights


def sequential_sum(terms) -> float:
    """Left-to-right sum from +0.0, one Python float addition per term."""
    total = 0.0
    for term in terms:
        total += float(term)
    return total


def sequential_dot(v, ids, values) -> float:
    """The dot of ``v[ids]`` with ``values``, its products summed by
    ``sequential_sum``: the canonical order."""
    return sequential_sum(v[i] * x for i, x in zip(ids.tolist(), values.tolist()))


def sequential_sgd_weights(instances, config):
    """Reference one-cell weights and threshold in the canonical summation order.

    The scale-factor steps of ``classify.train`` with every dot product a
    Python loop over the instance's entries in ascending id, from +0.0
    (``sequential_dot``); the threshold is ``brute_force_threshold`` of the
    training scores summed the same way.  Returns (weights, threshold).
    """
    n = len(instances)
    prepared = []
    dimension = 0
    for vector, label in instances:
        ids, values = vector.as_arrays()
        if len(ids):
            dimension = max(dimension, int(ids[-1]) + 1)
        y = 1.0 if label == 1 else -1.0
        class_weight = config.w if label == 1 else 1.0
        prepared.append((ids, values, y, class_weight))

    v = np.zeros(dimension, dtype=np.float64)
    scale = 1.0
    lam = 1.0 / (config.c * n)
    rng = np.random.default_rng(config.seed)
    step = 0
    for _ in range(config.epochs):
        for index in rng.permutation(n):
            ids, values, y, class_weight = prepared[index]
            eta = config.eta0 / (1.0 + config.eta0 * lam * step)
            margin = y * scale * sequential_dot(v, ids, values)
            scale *= 1.0 - eta * lam
            if abs(scale) < 1e-9:
                v *= scale
                scale = 1.0
            if margin < 1.0:
                v[ids] += (eta * class_weight * y / scale) * values
            step += 1
    v *= scale
    scores = [sequential_dot(v, ids, values) for ids, values, _, _ in prepared]
    threshold, _ = brute_force_threshold(scores, [label for _, label in instances])
    return v, threshold


def step_loop_train(instances, config):
    """Reference ``classify.train``: the exact step loop, run on every step.

    ``classify.train`` skips the loop on steps it proves cannot update;
    it must return this function's weights and threshold bit for bit and
    raise its errors.  Trains a linear model on (feature vector, label in
    {0, 1}) pairs; every dot product is ``sequential_dot``.

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
                margin = y * scale * sequential_dot(v, ids, values)
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
        scores = np.array([sequential_dot(v, ids, values) for ids, values, _, _ in prepared])
    if not np.all(np.isfinite(scores)):
        raise TrainingError(
            f"non-finite training scores after epoch {config.epochs - 1}"
        )
    threshold, _ = tune_threshold(scores, labels)
    return LinearModel(weights=v, bias=0.0, threshold=threshold)


# -- the whole grid ----------------------------------------------------------

# The ``gram_block_row`` columns of each augmentation: S, then WS.
_BLOCK_COLUMNS = {
    Augmentation.S: range(0, 4),
    Augmentation.WS: range(4, 8),
    Augmentation.S_AND_WS: range(0, 8),
}


def reference_matrix(instances, tables, lexicon, stopwords, splits, train_config):
    """Reference ``harness.run_matrix`` cells, sentence by sentence and fold
    by fold, from the oracles above.

    Each prior set numbers its sentences' ``prior_fragments`` with
    ``number_row`` through a fresh registry.  An augmented cell appends a
    sentence's nonzero ``gram_block_row`` values of its augmentation's
    columns, whose ids count on from the registry size.  Each fold trains
    with ``sequential_sgd_weights`` on its training rows and scores its test
    rows with ``sequential_sum``; an id past the weights contributes
    nothing.  Returns {(prior, augmentation, table name): (predictions,
    per-fold (P, R, F), pooled (P, R, F))}, a prediction being (id, label,
    predicted, score, fold) and predictions in fold order; a base cell is
    under every table name.
    """
    blocks = {
        name: [gram_block_row(tokenize(i.text), stopwords, table) for i in instances]
        for name, table in tables.items()
    }
    cells = {}
    for prior in ("L", "G", "B", "J"):
        registry = FeatureRegistry()
        rows = [
            number_row(registry, prior_fragments(i.text, prior, lexicon)) for i in instances
        ]
        size = len(registry)
        base = _reference_cell(instances, rows, splits, train_config)
        for name in tables:
            cells[(prior, Augmentation.NONE, name)] = base
            for augmentation, columns in _BLOCK_COLUMNS.items():
                cell_rows = [
                    row + [
                        (size + j, float(block[c]))
                        for j, c in enumerate(columns)
                        if block[c] != 0.0
                    ]
                    for row, block in zip(rows, blocks[name])
                ]
                cells[(prior, augmentation, name)] = _reference_cell(
                    instances, cell_rows, splits, train_config
                )
    return cells


def _reference_cell(instances, rows, splits, train_config):
    predictions, per_fold = [], []
    for fold, (train_idx, test_idx) in enumerate(splits):
        fit = [(_vector(rows[i]), instances[i].label) for i in train_idx]
        weights, threshold = sequential_sgd_weights(fit, train_config)
        fold_predictions = []
        for i in test_idx:
            score = sequential_sum(
                weights[fid] * value for fid, value in rows[i] if fid < len(weights)
            )
            instance = instances[i]
            fold_predictions.append(
                (instance.id, instance.label, int(score >= threshold), score, fold)
            )
        per_fold.append(_precision_recall_f(fold_predictions))
        predictions.extend(fold_predictions)
    return predictions, per_fold, _precision_recall_f(predictions)


def _vector(pairs):
    return FeatureVector(
        np.array([fid for fid, _ in pairs], dtype=np.int64),
        np.array([value for _, value in pairs], dtype=np.float64),
    )


def _precision_recall_f(predictions):
    """Positive-class percentages; F is the count form 2tp / (2tp + fp + fn)."""
    outcomes = [(label, predicted) for _, label, predicted, _, _ in predictions]
    tp = outcomes.count((1, 1))
    fp = outcomes.count((0, 1))
    fn = outcomes.count((1, 0))
    precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    f_score = 100.0 * 2 * tp / (2 * tp + fp + fn) if tp else 0.0
    return precision, recall, f_score
