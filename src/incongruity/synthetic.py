"""Deterministic synthetic corpora with a controllable similarity signal.

The generator builds sentences from stopword templates filled with
content words drawn from a clustered toy vocabulary: two word families,
four clusters per family, six words per cluster.  The matching toy
embedding tables place same-cluster words at high cosine (~0.90),
same-family words at moderate cosine (~0.45), and cross-family words
near zero.

Sarcastic sentences combine one same-cluster pair with a cross-family
pair, so they carry one high-similarity and one low-similarity content
pair; non-sarcastic sentences draw one word from each cluster of a
single family, giving uniform moderate similarities.  Word n-grams are
class-uninformative by construction, which isolates the value of the
similarity features.  ``separability`` in [0, 1] is the probability
that a sarcastic sentence actually uses the sarcastic recipe.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingTable, save_text_vectors
from .errors import InputError
from .harness import LabeledInstance, save_dataset_tsv

WORD_CLUSTERS = (
    ("cat", "dog", "horse", "sheep", "goat", "pig"),
    ("river", "lake", "ocean", "stream", "pond", "sea"),
    ("bread", "cheese", "butter", "honey", "jam", "toast"),
    ("violin", "piano", "flute", "drum", "cello", "harp"),
    ("hammer", "wrench", "saw", "drill", "chisel", "pliers"),
    ("shirt", "coat", "hat", "glove", "scarf", "boot"),
    ("train", "bus", "car", "truck", "tram", "ferry"),
    ("crimson", "azure", "emerald", "amber", "violet", "indigo"),
)
FAMILIES = ((0, 1, 2, 3), (4, 5, 6, 7))

# All template fillers are stopwords, so content words are exactly the
# four slot words.
TEMPLATES = (
    "the {0} and the {1} are like a {2} with a {3} .",
    "my {0} was a {1} but the {2} was not a {3} !",
    "a {0} or a {1} is more like a {2} than a {3} ...",
    "that {0} with the {1} was like some {2} on a {3} .",
)

VARIANTS = ("emb-a", "emb-b", "emb-c", "emb-d")
# One global, one per family, one per cluster and one per word: 59 needed.
DIMENSION = 64

# Component energies: same-cluster cosine ~= _GLOBAL + _FAMILY + _CLUSTER,
# same-family ~= _GLOBAL + _FAMILY, cross-family ~= _GLOBAL.
_GLOBAL = 0.02
_FAMILY = 0.43
_CLUSTER = 0.45
_WORD = 0.10
# Standard deviation of each variant's additive noise.
_JITTER = 0.02


def toy_embedding_tables(seed: int = 0) -> dict[str, EmbeddingTable]:
    """Build the ``VARIANTS`` tables, of ``DIMENSION`` components, sharing
    the clustered similarity structure.

    Each variant applies its own orthogonal rotation (cosine-preserving),
    small additive jitter, and overall scale, and appends three
    variant-unique filler words, so variants agree on structure but not
    on vectors or vocabulary.
    """
    n_clusters = len(WORD_CLUSTERS)
    n_words = sum(len(c) for c in WORD_CLUSTERS)

    family_of = {}
    for family_index, clusters in enumerate(FAMILIES):
        for cluster in clusters:
            family_of[cluster] = family_index

    words: list[str] = []
    base = np.zeros((n_words, DIMENSION))
    row = 0
    for cluster_index, cluster_words in enumerate(WORD_CLUSTERS):
        for word_index, word in enumerate(cluster_words):
            vector = np.zeros(DIMENSION)
            vector[0] = np.sqrt(_GLOBAL)
            vector[1 + family_of[cluster_index]] = np.sqrt(_FAMILY)
            vector[1 + len(FAMILIES) + cluster_index] = np.sqrt(_CLUSTER)
            vector[1 + len(FAMILIES) + n_clusters + row] = np.sqrt(_WORD)
            base[row] = vector
            words.append(word)
            row += 1

    scales = (1.0, 2.0, 0.5, 1.5)
    tables: dict[str, EmbeddingTable] = {}
    for variant_index, name in enumerate(VARIANTS):
        rng = np.random.default_rng([seed, variant_index])
        gaussian = rng.standard_normal((DIMENSION, DIMENSION))
        q, r = np.linalg.qr(gaussian)
        q *= np.sign(np.diag(r))
        rotated = base @ q
        rotated += _JITTER * rng.standard_normal(rotated.shape)
        rotated *= scales[variant_index % len(scales)]
        extra = rng.standard_normal((3, DIMENSION))
        vocab = words + [f"{name}-filler{i}" for i in range(3)]
        matrix = np.vstack([rotated, extra]).astype(np.float32)
        tables[name] = EmbeddingTable(name, vocab, matrix)
    return tables


class SyntheticConfigError(InputError):
    """A synthetic-corpus parameter is out of range."""


def _sarcastic_slots(rng: random.Random) -> list[str]:
    family = rng.randrange(len(FAMILIES))
    clusters = FAMILIES[family]
    high_cluster = rng.choice(clusters)
    a, b = rng.sample(WORD_CLUSTERS[high_cluster], 2)
    near_cluster = rng.choice([c for c in clusters if c != high_cluster])
    c = rng.choice(WORD_CLUSTERS[near_cluster])
    other_family = FAMILIES[1 - family]
    d = rng.choice(WORD_CLUSTERS[rng.choice(other_family)])
    slots = [a, b, c, d]
    rng.shuffle(slots)
    return slots


def _plain_slots(rng: random.Random) -> list[str]:
    family = rng.randrange(len(FAMILIES))
    slots = [rng.choice(WORD_CLUSTERS[cluster]) for cluster in FAMILIES[family]]
    rng.shuffle(slots)
    return slots


def generate_corpus(
    n: int, skew: float, seed: int = 0, separability: float = 1.0
) -> list[LabeledInstance]:
    """Generate ``n`` labeled instances; ``skew`` is the sarcastic fraction.
    An out-of-range or NaN value, or an ``n`` and ``skew`` that leave one
    class empty, raise :class:`SyntheticConfigError`."""
    if n < 1:
        raise SyntheticConfigError(f"n must be at least 1, got {n!r}")
    if not 0.0 < skew < 1.0:
        raise SyntheticConfigError(f"skew must be strictly between 0 and 1, got {skew!r}")
    if not 0.0 <= separability <= 1.0:
        raise SyntheticConfigError(f"separability must lie in [0, 1], got {separability!r}")
    n_sarcastic = round(n * skew)
    if n_sarcastic in (0, n):
        raise SyntheticConfigError(
            f"n={n!r} and skew={skew!r} give {n_sarcastic} sarcastic and "
            f"{n - n_sarcastic} plain instances; both classes need at least one"
        )
    rng = random.Random(seed)
    labels = [1] * n_sarcastic + [0] * (n - n_sarcastic)
    rng.shuffle(labels)
    instances = []
    for index, label in enumerate(labels):
        template = rng.choice(TEMPLATES)
        if label == 1 and rng.random() < separability:
            slots = _sarcastic_slots(rng)
        else:
            slots = _plain_slots(rng)
        text = template.format(*slots)
        instances.append(LabeledInstance(f"q{index:05d}", text, label))
    return instances


def write_corpus_and_tables(
    instances: Sequence[LabeledInstance],
    corpus_path: str | Path,
    tables: dict[str, EmbeddingTable] | None = None,
    tables_dir: str | Path | None = None,
) -> None:
    """Write a corpus TSV and, optionally, toy embedding text files.  The
    tables' directory is made first, so a directory that cannot be made
    leaves no corpus behind."""
    if tables_dir is not None:
        Path(tables_dir).mkdir(parents=True, exist_ok=True)
    save_dataset_tsv(instances, corpus_path)
    if tables_dir is not None:
        for name, table in (tables or {}).items():
            save_text_vectors(table, Path(tables_dir) / f"{name}.txt")
