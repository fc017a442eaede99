"""The benchmark's three workloads: input generation, set-up, operation, checks.

Each workload drives the public library API the way a CLI command does:

* ``grid`` -- ``run-matrix``: ``run_matrix`` over the package's synthetic
  corpus with the four toy tables, then ``compute_gains`` and the Markdown
  report.
* ``fit-highdim`` -- ``train``: L-prior trigram features over a
  random-vocabulary corpus of the paper's size, then one 50-epoch fit.
* ``score-long`` -- ``evaluate``: J+S+WS features for long sentences against
  a frozen registry loaded from a model file, then one prediction each.

Library functions are always looked up as module attributes at call time
(``harness.extract_features``, ``classify.train`` ...), so the tracer in
``tracing.py`` sees every call by patching those attributes.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass
from importlib import resources as package_data
from pathlib import Path
from typing import Callable

import numpy as np

from incongruity import classify, embeddings, features, harness, synthetic, text
from incongruity.similarity import Augmentation

# "full" is what the benchmark measures; "tiny" keeps the smoke tests fast.
SIZES = {
    "grid": {
        "full": {"n": 300, "skew": 0.21, "separability": 0.9, "folds": 3, "epochs": 10},
        "tiny": {"n": 40, "skew": 0.3, "separability": 0.8, "folds": 2, "epochs": 2},
    },
    "fit-highdim": {
        "full": {"n": 3629, "skew": 0.21, "separability": 0.8, "vocab": 40000, "epochs": 50},
        "tiny": {"n": 120, "skew": 0.3, "separability": 0.8, "vocab": 2000, "epochs": 3},
    },
    "score-long": {
        "full": {"n": 2000, "n_train": 600, "skew": 0.21, "separability": 0.8,
                 "vocab": 30000, "dim": 300, "epochs": 50},
        "tiny": {"n": 40, "n_train": 60, "skew": 0.3, "separability": 0.8,
                 "vocab": 1500, "dim": 16, "epochs": 3},
    },
}

# Set-up is repeated within a run and its median reported.
SETUP_REPS = {"grid": 21, "fit-highdim": 21, "score-long": 3}

SCORE_CONFIG = "J+S+WS"
TABLE_NAME = "long"


def f_percent(predicted: np.ndarray, positive: np.ndarray) -> float:
    """Positive-class F-score in percent, as the harness reports it."""
    tp = int(np.sum(predicted & positive))
    fp = int(np.sum(predicted & ~positive))
    fn = int(np.sum(~predicted & positive))
    return 100.0 * 2 * tp / (2 * tp + fp + fn) if tp else 0.0


# --------------------------------------------------------------------------
# Input generation (runs in a child process, outside every timed region)


def _copy_package_data(out: Path) -> None:
    data = package_data.files("incongruity.data")
    for name in ("stopwords.txt", "sentiment_lexicon.tsv"):
        (out / name).write_bytes(data.joinpath(name).read_bytes())


def _random_vocabulary(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words: list[str] = []
    seen = set(taken)
    while len(words) < count:
        length = int(rng.integers(5, 10))
        word = "".join(rng.choice(letters, length))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _labels(rng: np.random.Generator, n: int, skew: float) -> list[int]:
    n_pos = round(n * skew)
    labels = [1] * n_pos + [0] * (n - n_pos)
    rng.shuffle(labels)
    return labels


def _content_draw(
    rng: np.random.Generator, by_family: list[np.ndarray], k: int, label: int,
    separability: float,
) -> list[int]:
    """Vocabulary indices for one sentence's content words.

    Plain sentences draw every word from one family.  A sarcastic sentence
    (with probability ``separability``) swaps one word for an intruder from
    the other family, which embeddings place at near-zero cosine: the
    label depends on embedding structure, not on which words occur.
    """
    family = int(rng.integers(0, 2))
    chosen = rng.choice(by_family[family], k, replace=False)
    if label == 1 and rng.random() < separability:
        chosen[int(rng.integers(0, k))] = rng.choice(by_family[1 - family])
    return [int(i) for i in chosen]


def _single_word_lexicon(lexicon_path: Path) -> list[str]:
    entries = []
    for line in lexicon_path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            entry = line.split("\t")[0]
            if " " not in entry:
                entries.append(entry)
    return entries


def _write_corpus(path: Path, labels: list[int], texts: list[str]) -> None:
    instances = [
        harness.LabeledInstance(f"s{i:05d}", t, y)
        for i, (t, y) in enumerate(zip(texts, labels))
    ]
    harness.save_dataset_tsv(instances, path)


def _generate_grid(size: dict, seed: int, out: Path) -> None:
    instances = synthetic.generate_corpus(
        size["n"], size["skew"], seed, size["separability"]
    )
    synthetic.write_corpus_and_tables(
        instances, out / "corpus.tsv", synthetic.toy_embedding_tables(seed), out / "tables"
    )


def _generate_fit_highdim(size: dict, seed: int, out: Path) -> None:
    rng = np.random.default_rng([seed, 1])
    stopwords = sorted(text.load_stopwords(out / "stopwords.txt"))
    vocab = _random_vocabulary(rng, size["vocab"], set(stopwords))
    family = rng.integers(0, 2, len(vocab))  # an intruder comes from the other family
    by_family = [np.flatnonzero(family == f) for f in (0, 1)]
    labels = _labels(rng, size["n"], size["skew"])
    texts = []
    for label in labels:
        words = [vocab[i] for i in _content_draw(
            rng, by_family, int(rng.integers(12, 19)), label, size["separability"])]
        for _ in range(int(rng.integers(1, 4))):
            words.insert(int(rng.integers(0, len(words) + 1)), str(rng.choice(stopwords)))
        texts.append(" ".join(words) + " .")
    _write_corpus(out / "corpus.tsv", labels, texts)


def _long_table(rng: np.random.Generator, vocab: list[str], family: np.ndarray, dim: int):
    """Vectors with family and cluster structure: same cluster ~0.75 cosine,
    same family ~0.4, other family ~0; rows have unequal norms."""
    clusters = rng.integers(0, 8, len(vocab))
    family_dirs = rng.standard_normal((2, dim))
    cluster_dirs = rng.standard_normal((2, 8, dim))
    noise = rng.standard_normal((len(vocab), dim))
    for block in (family_dirs, cluster_dirs, noise):
        block /= np.linalg.norm(block, axis=-1, keepdims=True)
    matrix = (
        math.sqrt(0.4) * family_dirs[family]
        + math.sqrt(0.35) * cluster_dirs[family, clusters]
        + math.sqrt(0.25) * noise
    )
    matrix *= rng.uniform(0.5, 2.0, (len(vocab), 1))
    # Four decimals survive the text round trip exactly, so the model trained
    # here sees the same float32 rows the benchmark later loads.
    return np.round(matrix, 4).astype(np.float32)


def _write_table(path: Path, vocab: list[str], matrix: np.ndarray) -> None:
    buffer = io.StringIO()
    np.savetxt(buffer, matrix.astype(np.float64), fmt="%.4f")
    rows = buffer.getvalue().splitlines()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{len(vocab)} {matrix.shape[1]}\n")
        handle.writelines(f"{word} {row}\n" for word, row in zip(vocab, rows))


def _long_sentences(
    rng: np.random.Generator, size: dict, n: int, vocab: list[str],
    by_family: list[np.ndarray], stopwords: list[str], lexicon_words: list[str],
) -> tuple[list[int], list[str]]:
    """30-60 token sentences: ~20 content words, stopwords, 1-3 out-of-vocabulary
    tokens, 1-3 single-word lexicon entries and punctuation."""
    labels = _labels(rng, n, size["skew"])
    texts = []
    for label in labels:
        tokens = [vocab[i] for i in _content_draw(
            rng, by_family, int(rng.integers(16, 25)), label, size["separability"])]
        extra = [str(w) for w in rng.choice(lexicon_words, int(rng.integers(1, 4)))]
        extra += ["zq" + "".join(rng.choice(list("xyzw"), 5)) for _ in range(int(rng.integers(1, 4)))]
        extra += [str(p) for p in rng.choice([",", "!", "...", "?"], int(rng.integers(0, 3)))]
        target = int(rng.integers(30, 61))
        while len(tokens) + len(extra) < target:
            extra.append(str(rng.choice(stopwords)))
        for token in extra:
            tokens.insert(int(rng.integers(0, len(tokens) + 1)), token)
        texts.append(" ".join(tokens) + " .")
    return labels, texts


def _generate_score_long(size: dict, seed: int, out: Path) -> None:
    rng = np.random.default_rng([seed, 2])
    stopwords = sorted(text.load_stopwords(out / "stopwords.txt"))
    lexicon_words = _single_word_lexicon(out / "sentiment_lexicon.tsv")
    vocab = _random_vocabulary(rng, size["vocab"], set(stopwords) | set(lexicon_words))
    family = rng.integers(0, 2, len(vocab))  # the tables separate the two families
    by_family = [np.flatnonzero(family == f) for f in (0, 1)]
    matrix = _long_table(rng, vocab, family, size["dim"])
    _write_table(out / f"{TABLE_NAME}.txt", vocab, matrix)

    args = (rng, size)
    rest = (vocab, by_family, stopwords, lexicon_words)
    train_labels, train_texts = _long_sentences(*args, size["n_train"], *rest)
    labels, texts = _long_sentences(*args, size["n"], *rest)
    _write_corpus(out / "corpus.tsv", labels, texts)

    # The model `evaluate` loads: trained once here, on separate sentences.
    resources = harness.Resources(
        embeddings={TABLE_NAME: embeddings.EmbeddingTable(TABLE_NAME, vocab, matrix)},
        lexicon=features.load_lexicon(out / "sentiment_lexicon.tsv"),
        stopwords=frozenset(stopwords),
    )
    registry = features.FeatureRegistry()
    config = features.ExperimentConfig.parse(SCORE_CONFIG, embedding=TABLE_NAME)
    vectors = harness.extract_features(
        [text.tokenize(t) for t in train_texts], config, resources, registry
    )
    model = classify.train(
        list(zip(vectors, train_labels)),
        classify.TrainConfig(epochs=size["epochs"], seed=0),
    )
    classify.save_model(out / "model.txt", model, registry)


_GENERATORS = {
    "grid": _generate_grid,
    "fit-highdim": _generate_fit_highdim,
    "score-long": _generate_score_long,
}


def generate(workload: str, seed: int, size_name: str, out: Path) -> None:
    """Write the workload's inputs and ``manifest.json`` (file sha256s) to ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    _copy_package_data(out)
    _GENERATORS[workload](SIZES[workload][size_name], seed, out)
    manifest = {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")


# --------------------------------------------------------------------------
# Set-up, operation and checks (run in the measured process)


@dataclass
class Outcome:
    """What one operation produced, reduced to what the checks compare."""

    failures: list[str]
    fingerprint: str
    metrics: dict[str, float]


@dataclass
class Workload:
    setup: Callable[[Path], dict]
    operate: Callable[[dict, dict], object]
    inspect: Callable[[dict, dict, object], Outcome]


def _common_setup(inputs: Path) -> dict:
    return {
        "instances": harness.load_dataset(inputs / "corpus.tsv"),
        "lexicon": features.load_lexicon(inputs / "sentiment_lexicon.tsv"),
        "stopwords": text.load_stopwords(inputs / "stopwords.txt"),
    }


def _resources(state: dict, tables: dict) -> harness.Resources:
    return harness.Resources(
        embeddings=tables, lexicon=state["lexicon"], stopwords=state["stopwords"]
    )


# grid ---------------------------------------------------------------------


def _grid_setup(inputs: Path) -> dict:
    state = _common_setup(inputs)
    tables = {}
    for path in sorted((inputs / "tables").glob("*.txt")):
        table = embeddings.load_embeddings(path, "text_vectors")
        tables[table.name] = table
    state["resources"] = _resources(state, tables)
    return state


def _grid_operate(state: dict, size: dict):
    matrix = harness.run_matrix(
        state["instances"],
        state["resources"],
        folds=size["folds"],
        seed=0,
        train_config=classify.TrainConfig(epochs=size["epochs"], seed=0),
    )
    gains = harness.compute_gains(matrix)
    report = harness.emit_report(matrix, gains, "markdown")
    return matrix, gains, report


def _grid_inspect(state: dict, size: dict, result) -> Outcome:
    matrix, gains, report = result
    failures = []
    names = list(state["resources"].embeddings)
    expected = [
        (prior, aug, name)
        for prior in features.PRIOR_SETS for aug in harness.AUGMENTATIONS for name in names
    ]
    f_scores = []
    for key in expected:
        cell = matrix.cells.get(key)
        if cell is None:
            failures.append(f"missing cell {key}")
            continue
        m = cell.metrics
        if not all(math.isfinite(v) for v in (m.precision, m.recall, m.f_score)):
            failures.append(f"non-finite cell {key}")
        f_scores.append(m.f_score)
    if len(matrix.cells) != len(expected):
        failures.append(f"{len(matrix.cells)} cells, expected {len(expected)}")
    gain_s = [gains.per_augmentation[(name, Augmentation.S)] for name in names]
    gain_ws = [gains.per_augmentation[(name, Augmentation.WS)] for name in names]
    failures += [f"+S gain {g:.2f} <= 0 on {n}" for n, g in zip(names, gain_s) if not g > 0]
    return Outcome(
        failures,
        hashlib.sha256(report.encode("utf-8")).hexdigest(),
        {
            "f_mean": float(np.mean(f_scores)),
            "gain_s": float(np.mean(gain_s)),
            "gain_ws": float(np.mean(gain_ws)),
        },
    )


# fit-highdim ----------------------------------------------------------------


def _fit_setup(inputs: Path) -> dict:
    state = _common_setup(inputs)
    state["resources"] = _resources(state, {})
    return state


def _fit_operate(state: dict, size: dict):
    instances = state["instances"]
    registry = features.FeatureRegistry()
    vectors = harness.extract_features(
        [text.tokenize(inst.text) for inst in instances],
        features.ExperimentConfig("L"),
        state["resources"],
        registry,
    )
    model = classify.train(
        [(vector, inst.label) for vector, inst in zip(vectors, instances)],
        classify.TrainConfig(epochs=size["epochs"], seed=0),
    )
    return model, vectors


def _scores(weights: np.ndarray, vectors) -> np.ndarray:
    out = np.empty(len(vectors))
    for i, vector in enumerate(vectors):
        ids, values = vector.as_arrays()
        known = ids < len(weights)
        out[i] = float(np.dot(weights[ids[known]], values[known]))
    return out


def _fit_inspect(state: dict, size: dict, result) -> Outcome:
    model, vectors = result
    positive = np.array([inst.label == 1 for inst in state["instances"]])
    failures = []
    if not np.all(np.isfinite(model.weights)):
        failures.append("non-finite weights")
    scores = _scores(model.weights, vectors) + model.bias
    f_tuned = f_percent(scores >= model.threshold, positive)
    f_zero = f_percent(scores >= 0.0, positive)
    if not f_tuned >= f_zero:
        failures.append(f"tuned-threshold F {f_tuned:.4f} < F at 0 {f_zero:.4f}")
    f_all_positive = f_percent(np.ones_like(positive), positive)
    return Outcome(
        failures,
        hashlib.sha256(model.weights.tobytes()).hexdigest(),
        {"f_mean": f_tuned, "gain_s": f_tuned - f_all_positive},
    )


# score-long -----------------------------------------------------------------


def _score_setup(inputs: Path) -> dict:
    state = _common_setup(inputs)
    table = embeddings.load_embeddings(inputs / f"{TABLE_NAME}.txt", "text_vectors", TABLE_NAME)
    state["resources"] = _resources(state, {TABLE_NAME: table})
    state["model"], state["registry"] = classify.load_model(inputs / "model.txt")
    return state


def _score_operate(state: dict, size: dict):
    instances = state["instances"]
    config = features.ExperimentConfig.parse(SCORE_CONFIG, embedding=TABLE_NAME)
    vectors = harness.extract_features(
        [text.tokenize(inst.text) for inst in instances],
        config,
        state["resources"],
        state["registry"],
    )
    model = state["model"]
    predictions = []
    for instance, vector in zip(instances, vectors):
        score, predicted = model.predict(vector)
        predictions.append(harness.Prediction(instance.id, instance.label, predicted, score, 0))
    return predictions, vectors


def _score_inspect(state: dict, size: dict, result) -> Outcome:
    predictions, vectors = result
    failures = []
    scores = np.array([p.score for p in predictions], dtype=np.float64)
    if len(predictions) != len(state["instances"]):
        failures.append(f"{len(predictions)} scores for {len(state['instances'])} instances")
    if not np.all(np.isfinite(scores)):
        failures.append("non-finite score")
    f_full = harness.metrics_from_predictions(predictions)[2]

    # Block ablation: score the same vectors with the similarity weights
    # zeroed, at the model's own threshold.
    model, registry = state["model"], state["registry"]
    positive = np.array([p.label == 1 for p in predictions])
    block = {
        prefix: [
            i for i, name in enumerate(registry.names[: len(model.weights)])
            if name.startswith(prefix)
        ]
        for prefix in ("emb.s.", "emb.ws.")
    }
    weights = model.weights.copy()
    weights[block["emb.ws."]] = 0.0
    f_prior_s = f_percent(_scores(weights, vectors) + model.bias >= model.threshold, positive)
    weights[block["emb.s."]] = 0.0
    f_prior = f_percent(_scores(weights, vectors) + model.bias >= model.threshold, positive)
    return Outcome(
        failures,
        hashlib.sha256(scores.tobytes()).hexdigest(),
        {"f_mean": f_full, "gain_s": f_prior_s - f_prior},
    )


WORKLOAD_IMPL = {
    "grid": Workload(_grid_setup, _grid_operate, _grid_inspect),
    "fit-highdim": Workload(_fit_setup, _fit_operate, _fit_inspect),
    "score-long": Workload(_score_setup, _score_operate, _score_inspect),
}
