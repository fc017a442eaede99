"""Brute-force reference implementations used to check the real pipeline.

These deliberately avoid the library's matrix staging: every per-word
extreme is recomputed by scanning the full pair list, so a bug in the
production bookkeeping cannot hide here.
"""

from __future__ import annotations

import math

import numpy as np


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
    pairs = [(i, j) for i in range(n) for j in range(n) if i < j]

    def block(score_of):
        best = []
        worst = []
        for i in range(n):
            touching = []
            for a, b in pairs:
                if i in (a, b):
                    touching.append(score_of(a, b))
            best.append(max(touching))
            worst.append(min(touching))
        return (max(best), min(best), max(worst), min(worst))

    s_block = block(lambda a, b: cosine(vectors[a], vectors[b]))
    ws_block = block(
        lambda a, b: cosine(vectors[a], vectors[b])
        / min_distance(positions[a], positions[b]) ** exponent
    )
    return s_block, ws_block


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
