import numpy as np
import pytest

from incongruity.embeddings import EmbeddingTable

# Five-word reference sentence: "A woman needs a man like a fish needs a
# bicycle".  Raw token positions: woman 1, needs {2, 8}, man 4, fish 7,
# bicycle 10.  The score matrix below is the reference pairwise cosine
# table for those five content words.
FIXTURE_WORDS = ("man", "woman", "fish", "needs", "bicycle")
FIXTURE_POSITIONS = {
    "man": (4,),
    "woman": (1,),
    "fish": (7,),
    "needs": (2, 8),
    "bicycle": (10,),
}
FIXTURE_PAIR_SCORES = {
    ("man", "woman"): 0.766,
    ("man", "fish"): 0.151,
    ("man", "needs"): 0.078,
    ("man", "bicycle"): 0.229,
    ("woman", "fish"): 0.084,
    ("woman", "needs"): 0.060,
    ("woman", "bicycle"): 0.229,
    ("fish", "needs"): 0.022,
    ("fish", "bicycle"): 0.130,
    ("needs", "bicycle"): 0.060,
}


def fixture_pairwise():
    """(words, scores, distances) of the reference sentence: the score matrix
    has NaN on its diagonal, the distance matrix 0."""
    n = len(FIXTURE_WORDS)
    scores = np.full((n, n), np.nan)
    distances = np.zeros((n, n), dtype=np.int64)
    for i, wi in enumerate(FIXTURE_WORDS):
        for j, wj in enumerate(FIXTURE_WORDS):
            if i == j:
                continue
            key = (wi, wj) if (wi, wj) in FIXTURE_PAIR_SCORES else (wj, wi)
            scores[i, j] = FIXTURE_PAIR_SCORES[key]
            distances[i, j] = min(
                abs(p - q)
                for p in FIXTURE_POSITIONS[wi]
                for q in FIXTURE_POSITIONS[wj]
            )
    return FIXTURE_WORDS, scores, distances


@pytest.fixture
def table_one():
    return fixture_pairwise()


def random_table(n_words: int, dim: int, seed: int, name: str = "random") -> EmbeddingTable:
    rng = np.random.default_rng(seed)
    vocab = [f"w{i:03d}" for i in range(n_words)]
    vectors = rng.standard_normal((n_words, dim)).astype(np.float32)
    return EmbeddingTable(name, vocab, vectors)


@pytest.fixture
def toy_table() -> EmbeddingTable:
    # Hand-picked vectors with easy cosines: a.b = 0, a.c = 1/sqrt(2).
    return EmbeddingTable(
        "toy",
        ["alpha", "beta", "gamma", "delta"],
        np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [1.0, 1.0, 0.0],
                [0.5, 0.5, 0.5],
            ],
            dtype=np.float32,
        ),
    )
