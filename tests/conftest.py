import multiprocessing
import os
import unicodedata

import numpy as np
import pytest
from hypothesis import strategies as st

from incongruity.classify import LinearModel
from incongruity.embeddings import EmbeddingTable
from incongruity.features import Fragment

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


# -- drawn corpora for the per-sentence oracles --------------------------------

_NFD_CAFE = unicodedata.normalize("NFD", "café")

# Case variants, sentiment and multi-tag words, interjections and laughter,
# words whose n-grams share a name ("a_b c" and "a b_c"), digits, and a
# decomposed word that also opens an implicit phrase.
ORACLE_WORDS = (
    "great", "Great", "GREAT", "awful", "Awful", "love", "LOVE", "hate", "mixed",
    "think", "feel", "wow", "Wow", "haha", "HaHa", "plain", "day", "a_b", "a", "b",
    "b_c", "c", "stuck", "in", "traffic", "don't", "x1", "42", _NFD_CAFE, "again",
    ":)",
)
# Punctuation and symbol runs: emphasis, ellipses, quotes and other marks.
ORACLE_MARKS = (
    "!", "!!!", "?", "?!", "...", "…", "..", ".", ",", '"', "“", "’", "'", "(", ")",
    "*", "€", "—", "!...", "?…", "«",
)
ORACLE_LEXICON_ENTRIES = {
    "great": frozenset({"positive"}),
    "love": frozenset({"positive", "emotion"}),
    "awful": frozenset({"negative", "emotion"}),
    "hate": frozenset({"negative", "emotion"}),
    "think": frozenset({"psych_process"}),
    "feel": frozenset({"psych_process", "emotion"}),
    "wow": frozenset({"interjection"}),
    "haha": frozenset({"laughter"}),
    "mixed": frozenset({"positive", "negative"}),
    ":)": frozenset({"positive"}),
    "stuck in traffic": frozenset({"implicit_incongruity_phrase"}),
    "café again": frozenset({"implicit_incongruity_phrase"}),
    "a b": frozenset({"implicit_incongruity_phrase"}),
}


@st.composite
def oracle_chunk(draw):
    """A whitespace chunk: a mark run alone, or a word with optional leading
    and trailing mark runs; or a run of sentiment words, for hyperbole and
    polarity flips."""
    marks = st.sampled_from(ORACLE_MARKS)
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return draw(marks) + draw(st.sampled_from(("",) + ORACLE_MARKS))
    if kind == 1:
        polar = st.sampled_from(("great", "LOVE", "awful", "hate", ":)", "mixed"))
        return " ".join(draw(st.lists(polar, min_size=2, max_size=4)))
    lead = draw(marks) if draw(st.booleans()) and draw(st.booleans()) else ""
    trail = draw(marks) if draw(st.booleans()) else ""
    return lead + draw(st.sampled_from(ORACLE_WORDS)) + trail


oracle_sentence = st.lists(oracle_chunk(), min_size=1, max_size=9).map(" ".join)
# Sentences of the kinds above, with all-mark and phrase sentences mixed in.
oracle_corpus = st.lists(
    st.one_of(
        oracle_sentence,
        st.lists(st.sampled_from(ORACLE_MARKS), min_size=1, max_size=3).map(" ".join),
        # Sentiment runs at both ends, so a run or a flip could cross into
        # the next sentence.
        st.sampled_from((
            "Stuck in traffic , GREAT !!!",
            f"{_NFD_CAFE} again ... awful",
            "so great LOVE",
            "LOVE great ! awful",
            "hate awful",
        )),
    ),
    min_size=1,
    max_size=6,
)


def fragments_of_rows(rows):
    """The corpus fragments of per-sentence rows of name -> value dicts:
    fragment j holds dict j of every row that has one."""
    fragments = []
    for j in range(max(map(len, rows), default=0)):
        names: dict[str, int] = {}
        entries = [
            (k, names.setdefault(name, len(names)), value)
            for k, row in enumerate(rows) if j < len(row)
            for name, value in row[j].items()
        ]
        k, name_ids, values = zip(*entries) if entries else ((), (), ())
        fragments.append(
            Fragment(
                list(names),
                np.array(k, dtype=np.int64),
                np.array(name_ids, dtype=np.int64),
                np.array(values, dtype=np.float64),
            )
        )
    return fragments


def cell_models(rows, trained):
    """``train_cells``' flat weights and thresholds over ``rows`` as one
    model per cell, whose weights are views of the flat vector."""
    weights, thresholds = trained
    return [
        LinearModel(cell_weights, 0.0, threshold)
        for cell_weights, threshold in zip(
            np.split(weights, rows.offsets[1:-1]), thresholds.tolist()
        )
    ]


def no_children():
    """True if this process has no child, running or unreaped."""
    if multiprocessing.active_children():
        return False
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
